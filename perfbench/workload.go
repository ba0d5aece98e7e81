package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"lcsim/internal/core"
	"lcsim/internal/device"
	"lcsim/internal/stat"
)

// Size fixes how much work one rep of each workload does. fullSize is
// the benchmark; the tests run tinySize.
type Size struct {
	PathN     int    // path_mc: MC samples per rep
	ErrRows   int    // rows of the fast-vs-exact subset (delay_err_pct); 0 = every row
	ProbeRows int    // sample rows the poleres probes evaluate
	Jobs      int    // daemon_jobs: queued jobs per rep
	JobN      int    // daemon_jobs: MC samples per job
	Circuit   string // ssta_chip: benchmark circuit
	SetupReps int    // set-ups before each rep; setup_s is the median of all of them
	MinReps   int    // timed reps per run, whatever --seconds says
}

// The daemon jobs are sized so that a pair of jobs takes 0.3-0.6 s on the
// benchmark host (2 CPUs), well inside the supervisor's 1 s queue poll:
// each pair then starts on its own poll and the pairs never overlap, so
// the rep's time net of poll waits does not depend on where the polls
// fall.
var fullSize = Size{PathN: 1000, ErrRows: 0, ProbeRows: 64, Jobs: 6, JobN: 200, Circuit: "s1423", SetupReps: 12, MinReps: 3}

// Config is one benchmark invocation.
type Config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	WorkDir  string // scratch space inside the checkout
	Size     Size
	// Refs supplies the stored references; nil loads the embedded ones.
	PathRef *pathReference
	SSTARef *sstaReference
}

// Result is what one workload run measured.
type Result struct {
	Attempted, Failed int
	Checks            []string // failed output checks; empty = correct
	Metrics           map[string]float64
	RepWalls          []float64 // wall time of every untraced rep, s
	Loop              *loopStats
	Attribution       *Attribution
	Spans             *Tracer
	Notes             []string
}

func newResult() *Result { return &Result{Metrics: map[string]float64{}} }

// check records an output check.
func (r *Result) check(ok bool, format string, args ...any) {
	if !ok {
		r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, Config) (*Result, error){
	"path_mc":     runPathMC,
	"ssta_chip":   runSSTAChip,
	"daemon_jobs": runDaemonJobs,
}

// endToEnd and perLayer list every metric the benchmark reports, with
// its unit: endToEnd is measured with tracing off, perLayer in the
// traced run. BENCHMARK.json mirrors both lists.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"samples_per_s", "1/s"},
	{"job_s_p50", "s"},
	{"delay_err_pct", "%"},
	{"ssta_err_pct", "%"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"core.build_chain_ms", "ms"},
	{"core.eval_path_us_p50", "us"},
	{"core.eval_path_us_p99", "us"},
	{"core.eval_path_direct_us_p50", "us"},
	{"core.propagate_us", "us"},
	{"teta.stage_us_p50", "us"},
	{"teta.stage_us_p99", "us"},
	{"teta.sc_iters_per_sample", "count"},
	{"teta.solves_per_sample", "count"},
	{"poleres.eval_into_us", "us"},
	{"poleres.advance_ns", "ns"},
	{"poleres.extract_var_ms", "ms"},
	{"runner.utilization", "ratio"},
	{"runner.chan_wait_frac", "ratio"},
	{"ssta.partition_ms", "ms"},
	{"ssta.characterize_s", "s"},
	{"ssta.propagate_ms", "ms"},
	{"ssta.simulations", "count"},
	{"ssta.cache_hits", "count"},
	{"modelcache.hits", "count"},
	{"modelcache.misses", "count"},
	{"modelcache.io_ms", "ms"},
	{"checkpoint.flushes", "count"},
	{"checkpoint.bytes_written", "B"},
	{"checkpoint.flush_ms_p50", "ms"},
	{"checkpoint.flush_ms_p99", "ms"},
	{"jobd.enqueue_ms", "ms"},
	{"jobd.queue_io_ms", "ms"},
	{"jobd.claim_wait_ms", "ms"},
	{"jobd.poll_idle_s", "s"},
	{"jobd.overhead_frac", "ratio"},
	{"jobd.retries", "count"},
	{"core.self_s", "s"},
	{"teta.self_s", "s"},
	{"ssta.self_s", "s"},
	{"modelcache.self_s", "s"},
	{"checkpoint.self_s", "s"},
	{"jobd.self_s", "s"},
	{"trace.wall_s", "s"},
	{"trace.residual_s", "s"},
	{"trace.residual_frac", "ratio"},
	{"trace.unspanned_s", "s"},
	{"trace.untraced_wall_s", "s"},
	{"trace.overhead_s", "s"},
	{"trace.spans", "count"},
	{"host.cpu_probe_ms", "ms"},
	{"host.disk_probe_ms", "ms"},
}

type metricDef struct{ Name, Unit string }

// maxResidualFrac bounds the share of a traced rep's wall time that no
// layer span covers (the benchmark's own code and the gaps between
// calls).
const maxResidualFrac = 0.05

// spanLayers are the layers whose calls the traced run wraps in spans;
// each gets a "<layer>.self_s" metric.
var spanLayers = []string{"core", "teta", "ssta", "modelcache", "checkpoint", "jobd"}

// benchCells is the chain path_mc and daemon_jobs sample.
var benchCells = []string{"INV", "NAND2", "NOR2", "INV"}

const (
	benchElems   = 10
	benchStdDL   = 0.33
	benchStdVT   = 0.33
	benchWorkers = 2
)

// chainSpec is the path_mc/daemon_jobs chain at the job layer's
// characterization settings (the `lcsim path -elems 10 -wires` chain).
func chainSpec() core.ChainSpec {
	return core.ChainSpec{
		Cells:        append([]string(nil), benchCells...),
		Drive:        2,
		ElemsBetween: benchElems,
		Variational:  true,
		Tech:         device.Tech180,
		DT:           4e-12,
		TStop:        1.6e-9,
		Order:        4,
	}
}

// chainSources are the device and wire variation sources of the chain.
func chainSources() []core.Source {
	return append(core.DeviceSources(device.Tech180, benchStdDL, benchStdVT), core.WireSources(0.33)...)
}

// timedLoop runs rep until both minReps reps are done and seconds have
// passed, samples the host's speed before every rep and the process's
// peak memory during every untraced one. traced tells rep whether this
// one records spans: with trace on the reps alternate untraced, traced,
// so one run measures both.
func timedLoop(ctx context.Context, cfg Config, rep func(i int, traced bool) error) (*loopStats, error) {
	st := &loopStats{}
	deadline := time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
	for i := 0; i < cfg.Size.MinReps || time.Now().Before(deadline); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := st.take(filepath.Join(cfg.WorkDir, "probe")); err != nil {
			return nil, err
		}
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		traced := cfg.Trace && i%2 == 1
		if err := rep(i, traced); err != nil {
			return nil, err
		}
		if !traced {
			rss, err := peakRSSMB()
			if err != nil {
				return nil, err
			}
			st.rssMB = append(st.rssMB, rss)
		}
	}
	return st, nil
}

// delayErrPct is the mean per-row relative delay error of fast against
// exact, in percent. (The larger of |Δmean|/mean and |Δσ|/σ, which
// momentNote reports, is noise-dominated at this size: it spreads from
// 0.002% to 0.18% across seeds, too wide for a relative bound.)
func delayErrPct(fast, exact []float64) float64 {
	t := 0.0
	for i := range fast {
		t += relErr(fast[i], exact[i])
	}
	return 100 * t / float64(len(fast))
}

// momentNote reports the larger of |Δmean|/mean and |Δσ|/σ between the
// fast and exact delays of the subset.
func momentNote(fast, exact []float64) string {
	f, e := stat.Summarize(fast), stat.Summarize(exact)
	return fmt.Sprintf("fast vs teta-exact on %d rows: larger of |Δmean|/mean and |Δσ|/σ %.4f%%",
		len(fast), 100*math.Max(relErr(f.Mean, e.Mean), relErr(f.Std, e.Std)))
}

// exactSubset evaluates k rows spread over the sweep with the teta-exact
// engine, on 2 workers, and returns the sweep's fast delays for the same
// rows beside them.
func exactSubset(p *core.Path, sources []core.Source, rows [][]float64, delays []float64, k int) (fast, exact []float64, err error) {
	eng, err := p.Engine(core.EngineTetaExact)
	if err != nil {
		return nil, nil, err
	}
	idx := spreadIndices(len(rows), k)
	exact = make([]float64, len(idx))
	errs := make([]error, benchWorkers)
	var wg sync.WaitGroup
	for w := 0; w < benchWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := eng.NewScratch()
			for j := w; j < len(idx); j += benchWorkers {
				ev, err := eng.EvalPath(sc, core.BuildRunSpec(sources, rows[idx[j]]))
				if err != nil {
					errs[w] = fmt.Errorf("teta-exact row %d: %w", idx[j], err)
					return
				}
				exact[j] = ev.Delay
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	for _, i := range idx {
		fast = append(fast, delays[i])
	}
	return fast, exact, nil
}

// spreadIndices picks k indices spread evenly over [0, n); k <= 0 or
// k >= n picks all of them.
func spreadIndices(n, k int) []int {
	if k <= 0 || k > n {
		k = n
	}
	out := make([]int, k)
	for j := range out {
		out[j] = j * n / k
	}
	return out
}

// gaErrPct is the first-order (Gradient Analysis) error of the chain's
// mean and σ against the stored brute-force MC reference, in percent.
func gaErrPct(p *core.Path, sources []core.Source, ref *pathReference) (float64, error) {
	ga, err := p.GradientAnalysis(core.GAConfig{Sources: sources})
	if err != nil {
		return 0, err
	}
	return 100 * math.Max(relErr(ga.Mean, ref.Mean), relErr(ga.Std, ref.Std)), nil
}

func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// tempDir makes a fresh directory under the work dir. The directories
// stay until the run ends and the work dir is removed: deleting a rep's
// files between reps would put the filesystem's cleanup of them (block
// discards, journal commits) into the next rep's fsyncs.
func tempDir(cfg Config, pattern string) (string, error) {
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(cfg.WorkDir, pattern)
}
