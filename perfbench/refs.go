package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"

	"lcsim/internal/core"
	"lcsim/internal/iscas"
	"lcsim/internal/ssta"
)

// The stored brute-force references. A reference is expensive to make
// (ssta.RunMC costs about 0.1 s per sample on s1423), so it is computed
// once by `run.sh regen-ref` and checked in; every run compares against
// it outside the timed region.
var (
	//go:embed refs/ssta_s1423.json
	sstaRefJSON []byte
	//go:embed refs/path_chain.json
	pathRefJSON []byte
)

// Reference sample plans. Changing one invalidates the stored file: the
// loader refuses a reference whose identity differs.
const (
	sstaRefSeed    = 20020101
	sstaRefSamples = 2000
	pathRefSeed    = 20020101
	pathRefSamples = 20000
)

// sourceID is the identity of one variation source.
type sourceID struct {
	Name  string  `json:"name"`
	Sigma float64 `json:"sigma"`
	Wire  string  `json:"wire,omitempty"`
	IsDL  bool    `json:"is_dl,omitempty"`
	IsDVT bool    `json:"is_dvt,omitempty"`
}

func sourceIDs(src []core.Source) []sourceID {
	out := make([]sourceID, len(src))
	for i, s := range src {
		out[i] = sourceID{Name: s.Name, Sigma: s.Sigma, Wire: s.Wire, IsDL: s.IsDL, IsDVT: s.IsDVT}
	}
	return out
}

// sstaIdentity pins everything an ssta_chip reference depends on.
type sstaIdentity struct {
	Circuit   string     `json:"circuit"`
	Netlist   string     `json:"netlist_sha256"` // of the tech-mapped circuit
	Sources   []sourceID `json:"sources"`
	Engine    string     `json:"engine"`
	Sampler   string     `json:"sampler"`
	Seed      int64      `json:"seed"`
	Samples   int        `json:"samples"`
	ElemsWire int        `json:"elems"`
}

// refMoments is one sink's reference mean and σ (seconds).
type refMoments struct {
	Net  string  `json:"net"`
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
}

// sstaReference is a stored ssta.RunMC result.
type sstaReference struct {
	Identity   sstaIdentity `json:"identity"`
	Regenerate string       `json:"regenerate"`
	Sinks      []refMoments `json:"sinks"`
	Chip       refMoments   `json:"chip"`
}

// pathIdentity pins everything a path_chain reference depends on.
type pathIdentity struct {
	Cells   []string   `json:"cells"`
	Elems   int        `json:"elems"`
	Sources []sourceID `json:"sources"`
	Engine  string     `json:"engine"`
	Sampler string     `json:"sampler"`
	Seed    int64      `json:"seed"`
	Samples int        `json:"samples"`
}

// pathReference is a stored large-sample MC of the benchmark chain.
type pathReference struct {
	Identity   pathIdentity `json:"identity"`
	Regenerate string       `json:"regenerate"`
	Mean       float64      `json:"mean"`
	Std        float64      `json:"std"`
}

func netlistHash(c *iscas.Circuit) (string, error) {
	buf, err := json.Marshal(c)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf)), nil
}

func wantSSTAIdentity(c *iscas.Circuit, seed int64, samples int) (sstaIdentity, error) {
	h, err := netlistHash(c)
	if err != nil {
		return sstaIdentity{}, err
	}
	return sstaIdentity{
		Circuit: c.Name, Netlist: h, Sources: sourceIDs(sstaSources()),
		Engine: core.EngineTetaFast, Sampler: "lhs", Seed: seed, Samples: samples, ElemsWire: benchElems,
	}, nil
}

func wantPathIdentity(seed int64, samples int) pathIdentity {
	return pathIdentity{
		Cells: benchCells, Elems: benchElems, Sources: sourceIDs(chainSources()),
		Engine: core.EngineTetaFast, Sampler: "lhs", Seed: seed, Samples: samples,
	}
}

// loadSSTAReference decodes a stored reference and refuses it unless its
// identity is exactly the workload's.
func loadSSTAReference(data []byte, c *iscas.Circuit) (*sstaReference, error) {
	var ref sstaReference
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("ssta reference: %w", err)
	}
	want, err := wantSSTAIdentity(c, sstaRefSeed, sstaRefSamples)
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(ref.Identity, want) {
		return nil, fmt.Errorf("ssta reference identity %+v does not match the workload %+v; regenerate it with: %s",
			ref.Identity, want, regenCommand("ssta"))
	}
	if len(ref.Sinks) == 0 {
		return nil, fmt.Errorf("ssta reference has no sinks")
	}
	return &ref, nil
}

// loadPathReference decodes a stored chain reference and refuses it
// unless its identity is exactly the workload's.
func loadPathReference(data []byte) (*pathReference, error) {
	var ref pathReference
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("path reference: %w", err)
	}
	want := wantPathIdentity(pathRefSeed, pathRefSamples)
	if !reflect.DeepEqual(ref.Identity, want) {
		return nil, fmt.Errorf("path reference identity %+v does not match the workload %+v; regenerate it with: %s",
			ref.Identity, want, regenCommand("path"))
	}
	if !finite(ref.Mean, ref.Std) || ref.Std <= 0 {
		return nil, fmt.Errorf("path reference moments not finite")
	}
	return &ref, nil
}

// sstaRef returns the configured reference, or the stored one.
func (cfg Config) sstaRef(c *iscas.Circuit) (*sstaReference, error) {
	if cfg.SSTARef != nil {
		return cfg.SSTARef, nil
	}
	return loadSSTAReference(sstaRefJSON, c)
}

// pathRef returns the configured reference, or the stored one.
func (cfg Config) pathRef() (*pathReference, error) {
	if cfg.PathRef != nil {
		return cfg.PathRef, nil
	}
	return loadPathReference(pathRefJSON)
}

func regenCommand(which string) string {
	return "bash perfbench/run.sh regen-ref --ref " + which
}

// makeSSTAReference runs the brute-force ssta.RunMC reference.
func makeSSTAReference(ctx context.Context, circuit string, seed int64, samples, workers int) (*sstaReference, error) {
	c, err := loadCircuit(circuit)
	if err != nil {
		return nil, err
	}
	id, err := wantSSTAIdentity(c, seed, samples)
	if err != nil {
		return nil, err
	}
	mc, err := ssta.RunMC(ctx, c, ssta.Config{
		RunConfig: core.RunConfig{Seed: seed, Workers: workers},
		Sources:   sstaSources(),
	}, samples)
	if err != nil {
		return nil, err
	}
	if mc.Failures.Any() {
		return nil, fmt.Errorf("ssta reference: %d samples failed", mc.Failures.Skipped)
	}
	ref := &sstaReference{
		Identity:   id,
		Regenerate: regenCommand("ssta"),
		Chip:       refMoments{Net: "chip", Mean: mc.Chip.Mean, Std: mc.Chip.Std},
	}
	for _, s := range mc.Sinks {
		ref.Sinks = append(ref.Sinks, refMoments{Net: s.Net, Mean: s.Summary.Mean, Std: s.Summary.Std})
	}
	return ref, nil
}

// makePathReference runs a large-sample MC of the benchmark chain.
func makePathReference(ctx context.Context, seed int64, samples, workers int) (*pathReference, error) {
	p, err := core.BuildChain(chainSpec())
	if err != nil {
		return nil, err
	}
	mc, err := p.MonteCarloCtx(ctx, core.MCConfig{
		RunConfig: core.RunConfig{Seed: seed, Workers: workers},
		N:         samples,
		Sources:   chainSources(),
		Sampler:   core.SamplerLHS,
	})
	if err != nil {
		return nil, err
	}
	if mc.Failures.Any() || mc.Summary.NonFinite > 0 {
		return nil, fmt.Errorf("path reference: failed or non-finite samples")
	}
	return &pathReference{
		Identity:   wantPathIdentity(seed, samples),
		Regenerate: regenCommand("path"),
		Mean:       mc.Summary.Mean,
		Std:        mc.Summary.Std,
	}, nil
}

// regenRef is the regen-ref subcommand: recompute one stored reference
// at its fixed plan and write it where the benchmark embeds it.
func regenRef(args []string) error {
	fs := flag.NewFlagSet("regen-ref", flag.ContinueOnError)
	which := fs.String("ref", "", "reference to regenerate: ssta or path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx := context.Background()
	var ref any
	var out string
	var err error
	switch *which {
	case "ssta":
		out = "perfbench/refs/ssta_s1423.json"
		ref, err = makeSSTAReference(ctx, fullSize.Circuit, sstaRefSeed, sstaRefSamples, benchWorkers)
	case "path":
		out = "perfbench/refs/path_chain.json"
		ref, err = makePathReference(ctx, pathRefSeed, pathRefSamples, benchWorkers)
	default:
		return fmt.Errorf("regen-ref: --ref must be ssta or path")
	}
	if err != nil {
		return err
	}
	buf, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("regen-ref: wrote %s\n", out)
	return nil
}
