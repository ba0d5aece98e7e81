package job

// This file measures the optional -engine row of BENCH_mc.json: the
// same Example-2 sweep through an arbitrary registered backend, with
// crash-safe checkpoint journaling for hour-long spice-golden runs.

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"lcsim/internal/checkpoint"
	"lcsim/internal/core"
	"lcsim/internal/experiments"
	"lcsim/internal/runner"
	"lcsim/internal/teta"
)

// benchState is the journal payload of a checkpointed engine-row sweep:
// the wall time already spent on the completed prefix and its cost
// counters. Per-sample timings are additive, so a resumed measurement
// just keeps accumulating both.
type benchState struct {
	ElapsedNs int64           `json:"elapsed_ns"`
	Metrics   runner.Snapshot `json:"metrics"`
}

// benchEngine times the same sweep through an arbitrary registered
// backend via the experiments Example-2 evaluator (single worker),
// returning the row and the final metrics snapshot (resumed-sample and
// checkpoint self-repair counters included). Without a journal the full warm-up pass matches benchStage,
// so keep -samples small for slow backends like spice-golden. With
// -checkpoint the warm-up is skipped — the row exists to survive crashes
// of hour-long spice-golden sweeps, and a resume must not redo the full
// population as a warm-up — so the measurement is cold-start inclusive.
func benchEngine(o experiments.Ex2Options, wire float64, name string, specs []teta.RunSpec, deadline time.Duration, ck *checkpoint.Config) (benchRow, runner.Snapshot, error) {
	eval, err := experiments.Example2Evaluator(o, wire, name)
	if err != nil {
		return benchRow{}, runner.Snapshot{}, err
	}

	fp := checkpoint.Fingerprint{
		Kind:    "bench-engine",
		Seed:    o.Seed,
		N:       len(specs),
		Sampler: "lhs",
		Engine:  name,
		Policy:  "skip",
		Sources: fmt.Sprintf("ex2/wire=%gum/samples=%d", wire, o.Samples),
	}
	start := 0
	var prior benchState
	if ck != nil && ck.Resume {
		snap, _, err := checkpoint.Load(ck.Path, nil)
		if err != nil && !checkpoint.IsNotExist(err) {
			return benchRow{}, runner.Snapshot{}, err
		}
		if err == nil {
			if err := fp.Check(snap.Fingerprint); err != nil {
				return benchRow{}, runner.Snapshot{}, err
			}
			if err := json.Unmarshal(snap.State, &prior); err != nil {
				return benchRow{}, runner.Snapshot{}, err
			}
			start = snap.Next
		}
	}

	var metrics *runner.Metrics
	var ckErr error
	run := func(measured bool) (time.Duration, error) {
		metrics = &runner.Metrics{}
		opts := runner.Options{
			Workers: 1, Metrics: metrics,
			OnSkip: func(_ int, err error) {
				metrics.AddFailure(string(core.ClassifyFailure(err)))
			},
		}
		t0 := time.Now()
		if measured && ck != nil {
			s := prior.Metrics
			s.Resumed = 0
			metrics.Merge(s)
			metrics.AddResumed(start)
			flush := func(next int) {
				if ckErr != nil {
					return
				}
				s := metrics.Snapshot()
				s.Resumed = 0
				body, err := json.Marshal(benchState{
					ElapsedNs: prior.ElapsedNs + time.Since(t0).Nanoseconds(),
					Metrics:   s,
				})
				if err == nil {
					err = checkpoint.Save(ck.Path, &checkpoint.Snapshot{Fingerprint: fp, Next: next, State: body}, metrics)
				}
				ckErr = err
			}
			opts.Start = start
			opts.OnCheckpoint = flush
			opts.CheckpointEvery = ck.Every
			opts.CheckpointInterval = ck.Interval
			defer flush(len(specs))
		}
		err := runner.MapWorker(context.Background(), len(specs), opts,
			func() any { return nil },
			runner.WithRecovery(
				func(ctx context.Context, i int, _ any) (struct{}, error) {
					_, err := core.Watchdog(ctx, deadline, "bench", metrics, nil,
						func() (float64, error) { return eval(specs[i]) })
					return struct{}{}, err
				},
				func(_ context.Context, i int, _ any, cause error) (struct{}, error) {
					return struct{}{}, runner.SkipSample(core.NewSampleError(i, cause))
				}),
			nil)
		if err != nil {
			return 0, err
		}
		return time.Since(t0), nil
	}
	if ck == nil {
		if _, err := run(false); err != nil { // warm-up
			return benchRow{}, runner.Snapshot{}, err
		}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	el, err := run(true)
	if err != nil {
		return benchRow{}, runner.Snapshot{}, err
	}
	runtime.ReadMemStats(&m1)
	if ckErr != nil {
		return benchRow{}, runner.Snapshot{}, ckErr
	}
	n := float64(len(specs))
	// Wall time accumulates across the resume chain; allocations can only
	// be measured for the samples this process actually evaluated.
	total := time.Duration(prior.ElapsedNs) + el
	allocs := 0.0
	if evaluated := len(specs) - start; evaluated > 0 {
		allocs = float64(m1.Mallocs-m0.Mallocs) / float64(evaluated)
	}
	snap := metrics.Snapshot()
	return benchRow{
		Engine:          name,
		Workers:         1,
		NsPerSample:     float64(total.Nanoseconds()) / n,
		AllocsPerSample: allocs,
		SamplesPerSec:   n / total.Seconds(),
		Skipped:         snap.Skipped,
		Degraded:        snap.Degraded,
		TimedOut:        snap.TimedOut,
		Failures:        snap.Failures,
	}, snap, nil
}
