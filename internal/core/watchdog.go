package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"lcsim/internal/runner"
)

// scratchPool recycles one engine's scratch state across degrade-ladder
// retries and watchdog replacements, so a burst of recoveries (or a
// pathological sample timing out on every rung) does not allocate fresh
// solver state per incident. A scratch goes back in the pool ONLY after
// its evaluation returned cleanly: a watchdog-abandoned goroutine still
// owns the scratch it was given, so that scratch is leaked to it and the
// pool hands out a fresh one instead. Engines whose NewScratch returns
// nil flow through untouched (sync.Pool drops nil on Put and New keeps
// returning nil).
type scratchPool struct {
	pool sync.Pool
}

// newScratchPool builds a pool producing eng's scratch state on demand.
func newScratchPool(eng Engine) *scratchPool {
	p := &scratchPool{}
	p.pool.New = func() any { return eng.NewScratch() }
	return p
}

// get draws a pooled (or freshly allocated) scratch.
func (p *scratchPool) get() any { return p.pool.Get() }

// put returns a scratch whose evaluation completed cleanly.
func (p *scratchPool) put(sc any) { p.pool.Put(sc) }

// Watchdog runs eval — one synchronous evaluation — under the
// per-sample deadline d; d <= 0 runs eval inline with no watchdog. On
// timeout the evaluation goroutine is abandoned (abandoned, when
// non-nil, must retire any state the goroutine still owns, such as its
// scratch), m counts the timeout, and the error — labelled with name —
// wraps ErrSampleTimeout, so it classifies as FailTimeout and flows
// through the Skip/Degrade/FailFast policies like any other per-sample
// failure. Canceling ctx also abandons the evaluation and returns
// ctx.Err(), so a hung evaluation cannot delay a canceled run either.
//
// It is the one per-sample watchdog: the sampling Kernel applies it to
// every engine invocation, and the bench and validation sweeps to each
// of their evaluations.
func Watchdog[T any](ctx context.Context, d time.Duration, name string, m *runner.Metrics, abandoned func(), eval func() (T, error)) (T, error) {
	if d <= 0 {
		return eval()
	}
	type outcome struct {
		v   T
		err error
	}
	ch := make(chan outcome, 1) // buffered: the abandoned goroutine never blocks
	go func() {
		v, err := eval()
		ch <- outcome{v, err}
	}()
	timer := time.NewTimer(d)
	defer timer.Stop()
	var zero T
	select {
	case o := <-ch:
		return o.v, o.err
	case <-ctx.Done():
		if abandoned != nil {
			abandoned()
		}
		return zero, ctx.Err()
	case <-timer.C:
		if abandoned != nil {
			abandoned()
		}
		m.AddTimeout(1)
		return zero, fmt.Errorf("%s: no result after %v: %w", name, d, ErrSampleTimeout)
	}
}
