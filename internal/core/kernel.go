package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"lcsim/internal/checkpoint"
	"lcsim/internal/runner"
	"lcsim/internal/teta"
)

// EvalFunc runs kernel path j at one sample's RunSpec through the engine
// of the current attempt — the primary engine, or one Degrade ladder rung
// — under the SampleTimeout watchdog, charging the cost counters.
type EvalFunc func(j int, rs teta.RunSpec) (*PathEval, error)

// Driver is what a sampling driver plugs into the Kernel: how one sample
// is evaluated, how delivered values are aggregated, and how that
// aggregate is journaled. T is the per-sample value the driver's workers
// hand to its ordered drain.
type Driver[T any] struct {
	// Sample evaluates sample i, running each kernel path it needs
	// through eval. It is called once for the primary engines and, when
	// that fails under Degrade, once per ladder rung. An error that did
	// not come from eval (a sample row that maps to no RunSpec) is not
	// retried on the ladder. Sample must be a pure function of i and
	// the evaluations, so results are bit-identical at any worker count.
	Sample func(i int, eval EvalFunc) (T, error)
	// Worker, when non-nil, runs once per worker and returns a fold that
	// worker applies to every value it evaluates (the sharded moment
	// accumulators of streaming MC).
	Worker func() func(v T)
	// Add folds delivered sample i into the driver's accumulators, in
	// strict index order on the runner's delivery goroutine.
	Add func(i int, v T)
	// Failures receives the skipped samples and the degraded count.
	Failures *FailureReport

	// Fingerprint, Save and Restore journal the accumulators when
	// RunConfig.Checkpoint is set. Save builds the snapshot payload for
	// the prefix cut next, carrying m as the persisted cost counters;
	// Restore decodes a resumed snapshot's payload (decode unmarshals it
	// into the driver's payload struct), restores the accumulators and
	// returns the cost counters it carried.
	Fingerprint checkpoint.Fingerprint
	Save        func(next int, m runner.Snapshot) any
	Restore     func(next int, decode func(payload any) error) (runner.Snapshot, error)

	// injectFault, when non-nil, can fail sample i's primary evaluation
	// (test hook; a Degrade retry still exercises the real ladder rungs).
	injectFault func(i int) error
}

// Kernel is the one sampling loop behind every statistical driver —
// plain and correlated MC, importance-sampled yield, skew and the ssta
// brute-force reference: draw sample i, evaluate the stage chains,
// aggregate (§4.3). Drivers differ only in how a sample is evaluated
// and aggregated (Driver); the kernel owns the rest, so every driver
// shares one semantics for:
//
//   - engine and Degrade-ladder resolution over the paths evaluated per
//     sample, with ladder rungs paired across paths by engine name;
//   - the boxed per-worker engine scratch;
//   - the SampleTimeout watchdog on every engine invocation;
//   - Skip/Degrade/FailFast recovery and failure recording;
//   - checkpoint resume and flush, and Checkpoint.Limit shards.
//
// Recovery is a pure function of (index, cause), never of worker
// identity, so skip-sets and results are bit-identical at any worker
// count.
type Kernel[T any] struct {
	cfg     RunConfig
	d       Driver[T]
	primary []engineSlot   // per path
	ladder  [][]engineSlot // per rung, per path (Degrade only)
	next    int            // first sample not yet delivered
	ckpt    *ckptWriter
}

// engineSlot is one resolved engine bound to one kernel path, with the
// scratch pool its evaluations draw from.
type engineSlot struct {
	eng    Engine
	pool   *scratchPool
	label  string // watchdog error label
	stages int
}

func newEngineSlot(eng Engine, p *Path) engineSlot {
	return engineSlot{eng: eng, pool: newScratchPool(eng), label: "engine " + eng.Name(), stages: len(p.Stages)}
}

// NewKernel resolves the engine (and, under Degrade, the ladder) for
// every path, validates the execution policy and, when
// cfg.Checkpoint.Resume is set, restores the driver's accumulators from
// a matching snapshot. The error order is engine resolution, ladder
// composition, policy validation, resume.
func NewKernel[T any](cfg RunConfig, paths []*Path, d Driver[T]) (*Kernel[T], error) {
	k := &Kernel[T]{cfg: cfg, d: d}
	for _, p := range paths {
		eng, err := p.Engine(cfg.Engine)
		if err != nil {
			return nil, err
		}
		k.primary = append(k.primary, newEngineSlot(eng, p))
	}
	if cfg.OnFailure == Degrade && len(paths) > 0 {
		ladders := make([][]Engine, len(paths))
		for j, p := range paths {
			var err error
			if ladders[j], err = p.EngineLadder(k.primary[j].eng, cfg.Ladder); err != nil {
				return nil, err
			}
		}
		// A rung exists only where every path can build the same engine
		// (e.g. spice-golden drops out for a hand-assembled path), so a
		// recovered sample comes from one backend throughout.
	rungs:
		for _, e := range ladders[0] {
			rung := []engineSlot{newEngineSlot(e, paths[0])}
			for j, lad := range ladders[1:] {
				var match Engine
				for _, ej := range lad {
					if ej.Name() == e.Name() {
						match = ej
						break
					}
				}
				if match == nil {
					continue rungs
				}
				rung = append(rung, newEngineSlot(match, paths[j+1]))
			}
			k.ladder = append(k.ladder, rung)
		}
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if ck := cfg.Checkpoint; ck != nil {
		if ck.Resume {
			if err := k.resume(ck); err != nil {
				return nil, err
			}
		}
		k.ckpt = &ckptWriter{ck: ck, fp: d.Fingerprint, m: cfg.Metrics, payload: func(next int) any {
			return d.Save(next, saveMetrics(cfg.Metrics))
		}}
	}
	return k, nil
}

// resume loads, fingerprint-checks and restores a snapshot. No snapshot
// on disk means nothing to resume — the run starts from sample 0 — so
// enabling Resume unconditionally is safe for first runs.
func (k *Kernel[T]) resume(ck *checkpoint.Config) error {
	snap, _, err := checkpoint.Load(ck.Path, k.cfg.Metrics)
	if err != nil {
		if checkpoint.IsNotExist(err) {
			return nil
		}
		return err
	}
	if err := k.d.Fingerprint.Check(snap.Fingerprint); err != nil {
		return fmt.Errorf("core: cannot resume %s: %w", ck.Path, err)
	}
	if snap.Next <= 0 {
		return nil
	}
	m, err := k.d.Restore(snap.Next, func(payload any) error {
		if err := json.Unmarshal(snap.State, payload); err != nil {
			return fmt.Errorf("core: %s: %w: state payload: %v", ck.Path, checkpoint.ErrCorruptCheckpoint, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	restoreMetrics(k.cfg.Metrics, m, snap.Next)
	k.next = snap.Next
	return nil
}

// Run evaluates samples [next, n) — next is the restored prefix cut, or
// the end of the previous Run — and delivers them to the driver. A
// checkpointed run is flushed once after the sweep, so resuming a
// completed run restores the final state and evaluates nothing. With
// Checkpoint.Limit < n the sweep stops at the Limit cut and Run returns
// an error wrapping ErrPartial; the next leg resumes from the journal.
func (k *Kernel[T]) Run(ctx context.Context, n int) error {
	ck := k.cfg.Checkpoint
	sweepN := n
	if ck != nil && ck.Limit > 0 && ck.Limit < n {
		sweepN = ck.Limit
		if k.next >= sweepN {
			return fmt.Errorf("core: samples [0,%d) already durable in %s: %w", k.next, ck.Path, ErrPartial)
		}
	}
	opts := runner.Options{
		Workers:   k.cfg.Workers,
		BatchSize: k.cfg.BatchSize,
		Metrics:   k.cfg.Metrics,
		Progress:  k.cfg.Progress,
		Start:     k.next,
		OnSkip:    k.skip,
	}
	if k.ckpt != nil {
		opts.OnCheckpoint = k.ckpt.flush
		opts.CheckpointEvery = ck.Every
		opts.CheckpointInterval = ck.Interval
	}
	if err := runner.MapWorker(ctx, sweepN, opts, k.newWorker, k.eval, k.deliver); err != nil {
		return err
	}
	k.next = sweepN
	if k.ckpt != nil {
		k.ckpt.flush(sweepN)
		if k.ckpt.err != nil {
			return fmt.Errorf("core: checkpoint write failed: %w", k.ckpt.err)
		}
	}
	if sweepN < n {
		return fmt.Errorf("core: samples [0,%d) of %d durable in %s: %w", sweepN, n, ck.Path, ErrPartial)
	}
	return nil
}

// kernelWorker is one worker's state: a scratch slot per path for the
// primary engines (replaced when the watchdog abandons the evaluation
// that owns it) and the driver's optional per-worker fold.
type kernelWorker[T any] struct {
	scratch []any
	fold    func(T)
}

func (k *Kernel[T]) newWorker() *kernelWorker[T] {
	w := &kernelWorker[T]{scratch: make([]any, len(k.primary))}
	for j, e := range k.primary {
		w.scratch[j] = e.pool.get()
	}
	if k.d.Worker != nil {
		w.fold = k.d.Worker()
	}
	return w
}

// kernelValue carries one evaluated sample to the ordered drain.
type kernelValue[T any] struct {
	v        T
	degraded bool // recovered through a Degrade ladder rung
}

// eval evaluates sample i on the primary engines and, on failure,
// applies the OnFailure policy.
func (k *Kernel[T]) eval(ctx context.Context, i int, w *kernelWorker[T]) (kernelValue[T], error) {
	v, err := k.d.Sample(i, func(j int, rs teta.RunSpec) (*PathEval, error) {
		if k.d.injectFault != nil {
			if err := k.d.injectFault(i); err != nil {
				return nil, err
			}
		}
		return k.invoke(ctx, k.primary[j], &w.scratch[j], rs)
	})
	out := kernelValue[T]{v: v}
	if err != nil {
		if out.v, err = k.recover(ctx, i, err); err != nil {
			return kernelValue[T]{}, err
		}
		out.degraded = true
	}
	if w.fold != nil {
		w.fold(out.v)
	}
	return out, nil
}

// recover implements the OnFailure policy for a failed sample: Skip
// excludes it, Degrade walks the ladder in ascending cost order (the
// first rung that evaluates the sample wins; every rung failing falls
// through to a skip carrying the whole cause chain), FailFast returns
// the typed per-sample error.
func (k *Kernel[T]) recover(ctx context.Context, i int, cause error) (T, error) {
	var zero T
	switch k.cfg.OnFailure {
	case Skip:
		return zero, runner.SkipSample(NewSampleError(i, cause))
	case Degrade:
		for _, rung := range k.ladder {
			engineFailed := false
			v, err := k.d.Sample(i, func(j int, rs teta.RunSpec) (*PathEval, error) {
				ev, err := k.invoke(ctx, rung[j], nil, rs)
				engineFailed = engineFailed || err != nil
				return ev, err
			})
			if err == nil {
				k.cfg.Metrics.AddDegraded(1)
				return v, nil
			}
			if !engineFailed {
				return zero, runner.SkipSample(NewSampleError(i, err))
			}
			cause = fmt.Errorf("%s rung also failed: %w (previous: %v)", rung[0].eng.Name(), err, cause)
		}
		return zero, runner.SkipSample(NewSampleError(i, cause))
	default:
		return zero, NewSampleError(i, cause)
	}
}

// invoke runs one engine invocation under the watchdog. box is the
// worker's scratch slot for a primary engine; a ladder rung (box nil)
// borrows scratch from its pool. A timed-out evaluation keeps the
// scratch it was given — it never re-enters the pool — and the worker's
// slot gets a replacement, so a leaked evaluation never races a live one.
func (k *Kernel[T]) invoke(ctx context.Context, e engineSlot, box *any, rs teta.RunSpec) (*PathEval, error) {
	var sc any
	if box != nil {
		sc = *box
	} else {
		sc = e.pool.get()
	}
	abandoned := false
	ev, err := Watchdog(ctx, k.cfg.SampleTimeout, e.label, k.cfg.Metrics,
		func() { abandoned = true },
		func() (*PathEval, error) { return e.eng.EvalPath(sc, rs) })
	switch {
	case abandoned && box != nil:
		*box = e.pool.get()
	case !abandoned && box == nil:
		e.pool.put(sc)
	}
	if err != nil {
		return nil, err
	}
	k.cfg.Metrics.AddSC(ev.SCIters)
	k.cfg.Metrics.AddSolves(ev.LinearSolves)
	k.cfg.Metrics.AddStageEvals(e.stages)
	return ev, nil
}

// deliver folds one evaluated sample on the ordered drain.
func (k *Kernel[T]) deliver(i int, v kernelValue[T]) {
	if v.degraded {
		k.d.Failures.Degraded++
	}
	k.d.Add(i, v.v)
}

// skip records one skipped sample (the runner's OnSkip, in strict index
// order) in the failure report and the per-class metrics.
func (k *Kernel[T]) skip(i int, err error) {
	k.d.Failures.record(i, err)
	class := ClassOther
	var se *SampleError
	if errors.As(err, &se) {
		class = se.Class
	}
	k.cfg.Metrics.AddFailure(string(class))
}
