package job

// This file measures the worker-scaling section of BENCH_mc.json: the
// per-sample cost of one teta.Stage sweep at a given worker count,
// each sample under core.Watchdog.

import (
	"context"
	"runtime"
	"time"

	"lcsim/internal/core"
	"lcsim/internal/runner"
	"lcsim/internal/teta"
)

// benchBox holds one worker's stage scratch behind a replaceable slot:
// when the watchdog abandons a hung evaluation, the stray goroutine
// keeps the old scratch and the worker continues on a fresh one.
type benchBox struct{ sc *teta.Scratch }

// benchStage times one MC-style sweep over the sample specs with the
// given worker count and dispatch batch size, reporting per-sample wall
// time, allocations and the worker-utilization split. engineName labels
// the row (the backend the teta.Stage was built for); deadline, when
// positive, bounds each sample evaluation.
func benchStage(st *teta.Stage, specs []teta.RunSpec, workers, batch int, engineName string, deadline time.Duration) (benchRow, error) {
	// The sweep skips failing samples (instead of aborting the whole
	// benchmark) and records them in the row's fault counters, so a partly
	// sick configuration still produces a measurement — visibly flagged.
	// Metrics are reset per pass so the reported counters cover exactly the
	// measured sweep, not the warm-up.
	var metrics *runner.Metrics
	run := func() (time.Duration, error) {
		metrics = &runner.Metrics{}
		t0 := time.Now()
		err := runner.MapWorker(context.Background(), len(specs),
			runner.Options{
				Workers: workers, BatchSize: batch, Metrics: metrics,
				OnSkip: func(_ int, err error) {
					metrics.AddFailure(string(core.ClassifyFailure(err)))
				},
			},
			func() *benchBox { return &benchBox{sc: st.NewScratch()} },
			runner.WithRecovery(
				func(ctx context.Context, i int, box *benchBox) (struct{}, error) {
					sc := box.sc
					_, err := core.Watchdog(ctx, deadline, "bench", metrics,
						func() { box.sc = st.NewScratch() },
						func() (*teta.Result, error) { return st.RunWith(sc, specs[i]) })
					return struct{}{}, err
				},
				func(_ context.Context, i int, _ *benchBox, cause error) (struct{}, error) {
					return struct{}{}, runner.SkipSample(core.NewSampleError(i, cause))
				}),
			nil)
		if err != nil {
			return 0, err
		}
		return time.Since(t0), nil
	}
	// Warm-up pass: DC warm start, convolver memo, scratch pools.
	if _, err := run(); err != nil {
		return benchRow{}, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	el, err := run()
	if err != nil {
		return benchRow{}, err
	}
	runtime.ReadMemStats(&m1)
	n := float64(len(specs))
	snap := metrics.Snapshot()
	w := runner.ResolveWorkers(workers)
	capacity := float64(w) * float64(el.Nanoseconds())
	return benchRow{
		Engine:          engineName,
		Workers:         w,
		Batch:           batch,
		NsPerSample:     float64(el.Nanoseconds()) / n,
		AllocsPerSample: float64(m1.Mallocs-m0.Mallocs) / n,
		SamplesPerSec:   n / el.Seconds(),
		Utilization:     float64(snap.BusyNs) / capacity,
		ChanWaitFrac:    float64(snap.SendWaitNs) / capacity,
		Skipped:         snap.Skipped,
		Degraded:        snap.Degraded,
		TimedOut:        snap.TimedOut,
		Failures:        snap.Failures,
	}, nil
}
