package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"lcsim/internal/circuit"
	"lcsim/internal/core"
	"lcsim/internal/device"
	"lcsim/internal/interconnect"
	"lcsim/internal/iscas"
	"lcsim/internal/runner"
	"lcsim/internal/spice"
	"lcsim/internal/stat"
)

// Ex3Options configures the ISCAS-89 experiments (Tables 4, 5, Figure 7).
type Ex3Options struct {
	Tech     *device.ModelSet
	Drive    float64
	DT       float64
	StageWin float64 // per-stage simulation window
	Order    int
	Samples  int // MC samples (paper: 100)
	Seed     int64
	// Workers selects MC evaluation parallelism per the core.RunConfig
	// convention: 0 = serial, negative = GOMAXPROCS, positive = exact.
	Workers int
	// Progress, when non-nil, receives one line per completed Table-4 row
	// (the baseline transients on the big circuits take minutes each).
	Progress io.Writer
}

func (o *Ex3Options) setDefaults() {
	if o.Tech == nil {
		o.Tech = device.Tech180
	}
	if o.Drive <= 0 {
		o.Drive = 2
	}
	if o.DT <= 0 {
		o.DT = 4e-12
	}
	if o.StageWin <= 0 {
		o.StageWin = 1.6e-9
	}
	if o.Order <= 0 {
		o.Order = 4
	}
	if o.Samples <= 0 {
		o.Samples = 100
	}
}

// buildBenchPath characterizes the critical path of a benchmark as a
// core chain with the requested inter-stage element count.
func buildBenchPath(o Ex3Options, b iscas.Benchmark, elems int, variational bool) (*core.Path, []string, error) {
	c, err := iscas.Load(b)
	if err != nil {
		return nil, nil, err
	}
	pathGates, err := c.LongestPath()
	if err != nil {
		return nil, nil, err
	}
	cells := iscas.PathCells(pathGates)
	p, err := core.BuildChain(core.ChainSpec{
		Cells:        cells,
		Drive:        o.Drive,
		ElemsBetween: elems,
		WireLengthUm: float64(elems) / 2, // one RC segment per micron
		Variational:  variational,
		Tech:         o.Tech,
		DT:           o.DT,
		TStop:        o.StageWin,
		Order:        o.Order,
	})
	if err != nil {
		return nil, nil, err
	}
	return p, cells, nil
}

// buildFullPathNetlist expands the whole critical path — cells plus
// inter-stage interconnect — into one flat transistor-level netlist for
// the Newton baseline, as the paper's "entire path simulation via
// traditional circuit simulators".
func buildFullPathNetlist(o Ex3Options, cells []string, elems int, dl, dvt float64) (*circuit.Netlist, string, error) {
	nl := circuit.New()
	nl.AddV("VDD", "vdd", "0", circuit.DC(o.Tech.VDD))
	vdd := o.Tech.VDD
	// 50% crossing of the stimulus at exactly 0.3 ns, matching the
	// framework's TStart reference.
	nl.AddV("VIN", "pathin", "0", circuit.SatRamp{V0: 0, V1: vdd, Start: 0.3e-9 - 0.05e-9, Slew: 0.1e-9})
	prev := "pathin"
	wire := interconnect.Wire180
	if o.Tech == device.Tech600 {
		wire = interconnect.Wire600
	}
	for i, cellName := range cells {
		cell, err := device.LookupCell(cellName)
		if err != nil {
			return nil, "", err
		}
		side, _, ok := core.SignalInfo(cellName)
		if !ok {
			return nil, "", fmt.Errorf("experiments: no signal info for %s", cellName)
		}
		ins := make([]string, cell.NIn)
		ins[0] = prev
		for k, lv := range side {
			n := fmt.Sprintf("side%d_%d", i, k)
			val := 0.0
			if lv == 1 {
				val = vdd
			}
			nl.AddV(fmt.Sprintf("VS%d_%d", i, k), n, "0", circuit.DC(val))
			ins[k+1] = n
		}
		out := fmt.Sprintf("st%d_out", i)
		if err := cell.Instantiate(nl, fmt.Sprintf("u%d", i), ins, out, device.BuildOpts{
			Tech: o.Tech, Drive: o.Drive, DL: dl, DVT: dvt,
		}); err != nil {
			return nil, "", err
		}
		far := interconnect.AddLineElements(nl, wire, out, fmt.Sprintf("w%d", i), elems, float64(elems)/2, false)
		prev = far
	}
	return nl, prev, nil
}

// Table4Row is one circuit/element-count entry of the speedup table.
type Table4Row struct {
	Circuit      string
	Stages       int
	Elems        int
	FrameworkSec float64 // per-sample stage-by-stage framework time
	SPICESec     float64 // per-sample full-path Newton time
	Speedup      float64

	// Counted work behind the two times, per sample: the framework's SC
	// iterations and prefactored solves over the whole path and the
	// largest reduced-model order a stage solves on, and the full-path
	// baseline's MNA unknowns and L+U factor nonzeros summed over its
	// factorizations. Unlike the times these are exact and
	// load-independent.
	FrameworkSCIters float64
	FrameworkSolves  float64
	FrameworkOrder   int
	SPICEUnknowns    int
	SPICELUNonzeros  float64
}

// RunTable4 measures the framework-vs-baseline speedup for each benchmark
// at the two inter-stage element counts of Table 4. fwSamples and
// spiceSamples bound the timed runs (the paper uses 100 MC samples; the
// per-sample ratio is the reported quantity).
func RunTable4(o Ex3Options, set []iscas.Benchmark, elemCounts []int, fwSamples, spiceSamples int) ([]Table4Row, error) {
	o.setDefaults()
	if fwSamples <= 0 {
		fwSamples = 10
	}
	if spiceSamples <= 0 {
		spiceSamples = 1
	}
	sources := core.DeviceSources(o.Tech, 0.33, 0.33)
	var rows []Table4Row
	for _, b := range set {
		for _, elems := range elemCounts {
			p, cells, err := buildBenchPath(o, b, elems, false)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", b.Name, err)
			}
			// Framework timing: per-sample full path evaluation, serial so
			// the per-sample ratio is a single-core quantity.
			fwWork := new(runner.Metrics)
			mcCfg := core.MCConfig{N: fwSamples, Sources: sources, RunConfig: core.RunConfig{Seed: o.Seed + 1, Metrics: fwWork}}
			t0 := time.Now()
			if _, err := p.MonteCarloCtx(context.Background(), mcCfg); err != nil {
				return nil, fmt.Errorf("%s framework MC: %w", b.Name, err)
			}
			fwPer := time.Since(t0).Seconds() / float64(fwSamples)
			// Baseline timing: full-path transient per sample.
			tstop := float64(len(cells))*0.25e-9 + 1e-9
			var spUnknowns, spNonzeros int
			t1 := time.Now()
			for s := 0; s < spiceSamples; s++ {
				dl := 0.33 * o.Tech.TolDL * float64(s) / float64(spiceSamples+1)
				nl, out, err := buildFullPathNetlist(o, cells, elems, dl, 0)
				if err != nil {
					return nil, err
				}
				sim, err := spice.NewSimulator(nl, spice.Options{DT: o.DT, TStop: tstop, Models: o.Tech})
				if err != nil {
					return nil, err
				}
				res, err := sim.Run([]string{out})
				if err != nil {
					return nil, fmt.Errorf("%s spice: %w", b.Name, err)
				}
				spUnknowns = res.Stats.Unknowns
				spNonzeros += res.Stats.LUNonzeros
			}
			spPer := time.Since(t1).Seconds() / float64(spiceSamples)
			work := fwWork.Snapshot()
			order := 0
			for _, st := range p.Stages {
				order = max(order, st.TStage.BuildStats.ROMOrder)
			}
			row := Table4Row{
				Circuit: b.Name, Stages: len(cells), Elems: elems,
				FrameworkSec: fwPer, SPICESec: spPer, Speedup: spPer / fwPer,
				FrameworkSCIters: float64(work.SCIterations) / float64(fwSamples),
				FrameworkSolves:  float64(work.LinearSolves) / float64(fwSamples),
				FrameworkOrder:   order,
				SPICEUnknowns:    spUnknowns,
				SPICELUNonzeros:  float64(spNonzeros) / float64(spiceSamples),
			}
			rows = append(rows, row)
			if o.Progress != nil {
				fmt.Fprintf(o.Progress, "table4: %s stages=%d elems=%d fw=%.4gs spice=%.4gs speedup=%.1f\n",
					row.Circuit, row.Stages, row.Elems, row.FrameworkSec, row.SPICESec, row.Speedup)
			}
		}
	}
	return rows, nil
}

// Table5Row is one circuit × variation setting of Table 5.
type Table5Row struct {
	Circuit       string
	Stages        int
	StdDL, StdVT  float64
	GAMeanPs      float64
	GAStdPs       float64
	MCMeanPs      float64
	MCStdPs       float64
	GASimulations int
	MCSimulations int
}

// RunTable5 reproduces the GA-vs-MC statistics table: longest-path delay
// mean and σ under std(DL) = 0.33 alone and std(DL) = std(VT) = 0.33
// (fractions of the 3σ tolerance class, as in the paper).
func RunTable5(o Ex3Options, set []iscas.Benchmark, elems int) ([]Table5Row, error) {
	o.setDefaults()
	settings := []struct{ dl, vt float64 }{{0.33, 0}, {0.33, 0.33}}
	var rows []Table5Row
	for _, setting := range settings {
		for _, b := range set {
			p, cells, err := buildBenchPath(o, b, elems, false)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", b.Name, err)
			}
			sources := core.DeviceSources(o.Tech, setting.dl, setting.vt)
			ga, err := p.GradientAnalysis(core.GAConfig{Sources: sources})
			if err != nil {
				return nil, fmt.Errorf("%s GA: %w", b.Name, err)
			}
			mc, err := p.MonteCarloCtx(context.Background(), core.MCConfig{
				N: o.Samples, Sources: sources,
				RunConfig: core.RunConfig{Seed: o.Seed, Workers: o.Workers},
			})
			if err != nil {
				return nil, fmt.Errorf("%s MC: %w", b.Name, err)
			}
			rows = append(rows, Table5Row{
				Circuit: b.Name, Stages: len(cells),
				StdDL: setting.dl, StdVT: setting.vt,
				GAMeanPs: ga.Mean * 1e12, GAStdPs: ga.Std * 1e12,
				MCMeanPs: mc.Summary.Mean * 1e12, MCStdPs: mc.Summary.Std * 1e12,
				GASimulations: ga.Simulations,
				MCSimulations: o.Samples * len(cells),
			})
		}
	}
	return rows, nil
}

// Figure7Result holds the MC and GA delay distributions for one circuit.
type Figure7Result struct {
	Circuit  string
	MCDelays []float64
	GAMean   float64
	GAStd    float64
	GADelays []float64 // deterministic normal quantile samples from GA
}

// RunFigure7 produces the histogram pair (MC empirical vs GA normal) for
// one benchmark under combined DL and VT variations.
func RunFigure7(o Ex3Options, b iscas.Benchmark, elems int) (*Figure7Result, error) {
	o.setDefaults()
	p, _, err := buildBenchPath(o, b, elems, false)
	if err != nil {
		return nil, err
	}
	sources := core.DeviceSources(o.Tech, 0.33, 0.33)
	mc, err := p.MonteCarloCtx(context.Background(), core.MCConfig{
		N: o.Samples, Sources: sources, KeepSamples: true,
		RunConfig: core.RunConfig{Seed: o.Seed, Workers: o.Workers},
	})
	if err != nil {
		return nil, err
	}
	ga, err := p.GradientAnalysis(core.GAConfig{Sources: sources})
	if err != nil {
		return nil, err
	}
	res := &Figure7Result{Circuit: b.Name, MCDelays: mc.Delays, GAMean: ga.Mean, GAStd: ga.Std}
	for i := 0; i < o.Samples; i++ {
		u := (float64(i) + 0.5) / float64(o.Samples)
		res.GADelays = append(res.GADelays, stat.Normal{Mean: ga.Mean, Sigma: ga.Std}.Quantile(u))
	}
	return res, nil
}

// RenderTable4 prints the speedup table in the paper's layout.
func RenderTable4(rows []Table4Row) string {
	var b strings.Builder
	b.WriteString("Table 4 — speedup of the framework vs the Newton baseline (Example 3)\n")
	fmt.Fprintf(&b, "%-8s %-7s %-9s %-14s %-14s %-8s\n", "circuit", "stages", "elements", "framework(s)", "spice(s)", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-7d %-9d %-14.4g %-14.4g %-8.2f\n",
			r.Circuit, r.Stages, r.Elems, r.FrameworkSec, r.SPICESec, r.Speedup)
	}
	return b.String()
}

// RenderTable5 prints the GA/MC statistics table in the paper's layout.
func RenderTable5(rows []Table5Row) string {
	var b strings.Builder
	b.WriteString("Table 5 — longest-path delay statistics, GA vs MC (Example 3)\n")
	fmt.Fprintf(&b, "%-8s %-7s %-8s %-8s %-8s %-11s %-10s\n", "circuit", "stages", "std(DL)", "std(VT)", "method", "mean(ps)", "std(ps)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-7d %-8.2f %-8.2f %-8s %-11.2f %-10.2f\n",
			r.Circuit, r.Stages, r.StdDL, r.StdVT, "GA", r.GAMeanPs, r.GAStdPs)
		fmt.Fprintf(&b, "%-8s %-7s %-8s %-8s %-8s %-11.2f %-10.2f\n",
			"", "", "", "", "MC", r.MCMeanPs, r.MCStdPs)
	}
	return b.String()
}

// RenderFigure7 prints the MC and GA histograms side by side.
func RenderFigure7(r *Figure7Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7 — %s longest-path delay (DL & VT variations)\n", r.Circuit)
	ps := func(v float64) string { return fmt.Sprintf("%8.1f ps", v*1e12) }
	b.WriteString("Monte-Carlo:\n")
	b.WriteString(stat.NewHistogram(r.MCDelays, 12).Render(40, ps))
	fmt.Fprintf(&b, "Gradient Analysis (normal, mean %.1f ps, std %.1f ps):\n", r.GAMean*1e12, r.GAStd*1e12)
	b.WriteString(stat.NewHistogram(r.GADelays, 12).Render(40, ps))
	return b.String()
}
