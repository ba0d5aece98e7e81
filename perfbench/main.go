// Command perfbench is the lcsim benchmark: three closed-loop batch
// workloads (path_mc, ssta_chip, daemon_jobs) driven through the
// repository's public Go APIs, each printing its end-to-end metrics
// (--trace 0) or, in a separate traced run, its per-layer breakdown
// (--trace 1). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"wall_s": {"value": 0.73, "unit": "s"}, ...}}
//
// A failed output check prints "correct": false and exits 1. Run it
// through run.sh, which builds it from source; see README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// report is the full record written beside the result line.
type report struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Trace       bool               `json:"trace"`
	Host        Host               `json:"host"`
	Checks      []string           `json:"failed_checks,omitempty"`
	Notes       []string           `json:"notes,omitempty"`
	FailedFrac  float64            `json:"failed_frac"`
	RepWallS    []float64          `json:"rep_wall_s"`
	CPUProbeS   []float64          `json:"cpu_probe_s"`
	DiskProbeS  []float64          `json:"disk_probe_s"`
	HostScale   float64            `json:"host_scale,omitempty"`
	Unscaled    map[string]float64 `json:"unscaled,omitempty"`
	Metrics     map[string]Metric  `json:"metrics"`
	LayerSelf   map[string]float64 `json:"layer_self_s,omitempty"`
	TracedWallS float64            `json:"traced_wall_s,omitempty"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "regen-ref" {
		if err := regenRef(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: path_mc, ssta_chip or daemon_jobs")
	seed := fs.Int64("seed", 1, "workload seed (the same seed gives the same inputs)")
	seconds := fs.Float64("seconds", 10, "measured time per run, s")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	outDir := fs.String("out-dir", ".bench_build", "directory for scratch files, span dumps and reports")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runWorkload, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want path_mc, ssta_chip or daemon_jobs)\n", *workload)
		return 2
	}
	cfg := Config{
		Workload: *workload,
		Seed:     *seed,
		Seconds:  *seconds,
		Trace:    *trace == 1,
		WorkDir:  filepath.Join(*outDir, fmt.Sprintf("work-%d", os.Getpid())),
		Size:     fullSize,
	}
	defer os.RemoveAll(cfg.WorkDir)
	res, err := runWorkload(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, rep := finish(cfg, res)
	printReport(rep)
	if err := writeReport(*outDir, cfg, rep, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing report:", err)
		return 1
	}
	buf, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(buf))
	if !line.Correct {
		return 1
	}
	return 0
}

// finish assembles the result line and the report. The result line
// carries exactly the end-to-end metrics (untraced run) or exactly the
// per-layer metrics (traced run); a metric that did not come out finite
// fails the run. The end-to-end times (unit s) and rates (unit 1/s) are
// scaled to the host's speed during the run (loopStats.scale); the
// report keeps the unscaled values.
func finish(cfg Config, res *Result) (resultLine, report) {
	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
	}
	var hostScale float64
	unscaled := map[string]float64{}
	if h := res.Loop; h != nil {
		if cfg.Trace {
			res.Metrics["host.cpu_probe_ms"] = 1e3 * median(h.cpu)
			res.Metrics["host.disk_probe_ms"] = 1e3 * median(h.disk)
		} else {
			hostScale = h.scale()
			for _, d := range endToEnd {
				switch d.Unit {
				case "s":
					unscaled[d.Name] = res.Metrics[d.Name]
					res.Metrics[d.Name] *= hostScale
				case "1/s":
					unscaled[d.Name] = res.Metrics[d.Name]
					res.Metrics[d.Name] /= hostScale
				}
			}
		}
	}
	line := resultLine{Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]Metric{}}
	for _, d := range defs {
		v := res.Metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			res.check(false, "metric %s is not finite", d.Name)
			v = 0
		}
		line.Metrics[d.Name] = Metric{Value: v, Unit: d.Unit}
	}
	if !cfg.Trace {
		for _, d := range endToEnd {
			res.check(res.Metrics[d.Name] > 0, "end-to-end metric %s is %g, want > 0", d.Name, res.Metrics[d.Name])
		}
	}
	res.check(res.Attempted > 0, "nothing attempted")
	line.Correct = len(res.Checks) == 0
	rep := report{
		Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace,
		Host: hostFingerprint(), Checks: res.Checks, Notes: res.Notes, Metrics: line.Metrics,
		RepWallS: res.RepWalls, HostScale: hostScale,
	}
	if res.Attempted > 0 {
		rep.FailedFrac = float64(res.Failed) / float64(res.Attempted)
	}
	if h := res.Loop; h != nil {
		rep.CPUProbeS, rep.DiskProbeS = h.cpu, h.disk
	}
	if len(unscaled) > 0 {
		rep.Unscaled = unscaled
	}
	if a := res.Attribution; a != nil {
		rep.LayerSelf = a.Self
		rep.TracedWallS = a.Wall
	}
	return line, rep
}

// printReport prints the human-readable report: the host, every metric
// by name with its unit, the layer breakdown and any failed check.
func printReport(rep report) {
	h := rep.Host
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%v\n", rep.Workload, rep.Seed, rep.Seconds, rep.Trace)
	fmt.Printf("host: cpu=%q num_cpu=%d gomaxprocs=%d go=%s commit=%s\n", h.CPUModel, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.Commit)
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Printf("  %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("  %-28s %14.6g %s\n", "failed_frac", rep.FailedFrac, "ratio")
	if rep.HostScale > 0 {
		fmt.Printf("times above are scaled by %.4f = %.0f ms / the run's median CPU probe (%.2f ms over %d probes); unscaled:\n",
			rep.HostScale, 1e3*probeRefS, 1e3*median(rep.CPUProbeS), len(rep.CPUProbeS))
		for _, n := range names {
			if v, ok := rep.Unscaled[n]; ok {
				fmt.Printf("  %-28s %14.6g %s\n", n, v, rep.Metrics[n].Unit)
			}
		}
	}
	if rep.LayerSelf != nil {
		fmt.Printf("layer self time over the traced reps (%.3f s wall; bench = residual):\n", rep.TracedWallS)
		fmt.Print(Attribution{Wall: rep.TracedWallS, Self: rep.LayerSelf}.String())
	}
	for _, n := range rep.Notes {
		fmt.Println("note:", n)
	}
	for _, c := range rep.Checks {
		fmt.Println("FAILED CHECK:", c)
	}
}

// writeReport writes the report, and the spans of a traced run, under
// outDir/reports.
func writeReport(outDir string, cfg Config, rep report, res *Result) error {
	dir := filepath.Join(outDir, "reports")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", cfg.Workload, cfg.Seed, map[bool]int{false: 0, true: 1}[cfg.Trace]))
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(buf, '\n'), 0o644); err != nil {
		return err
	}
	if res.Spans != nil {
		return res.Spans.WriteFile(base + ".spans.jsonl")
	}
	return nil
}
