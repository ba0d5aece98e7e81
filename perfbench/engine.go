package main

import (
	"sync/atomic"

	"lcsim/internal/circuit"
	"lcsim/internal/core"
	"lcsim/internal/teta"
)

// tracedEngine decorates a core.Engine with spans: "teta.EvalStage"
// around every stage evaluation and "core.EvalPath" around every path
// sample. To see the stages of a path sample from outside, EvalPath
// replays the stage loop of core's shared path engine here — the same
// saturated-ramp stimulus, 50% re-alignment and waveform compression
// between stages, in the same floating-point order — so a traced sweep
// produces bit-identical delays (the workloads check this) and the
// EvalPath self time is exactly the inter-stage propagation.
type tracedEngine struct {
	core.Engine
	tr    *Tracer
	chain *core.Path // geometry of the path being replayed
	seq   *atomic.Int64
}

// installTracedEngines wraps every engine resolved from now on and
// returns the function that removes the wrapper. chain gives the
// stimulus and stage polarities the EvalPath replay uses, so every path
// sampled while the wrapper is installed must share its geometry (the
// workloads sample one chain); with a nil chain EvalPath is one opaque
// span.
func installTracedEngines(tr *Tracer, chain *core.Path) (uninstall func()) {
	seq := new(atomic.Int64)
	prev := core.SetEngineWrapper(func(e core.Engine) core.Engine {
		return &tracedEngine{Engine: e, tr: tr, chain: chain, seq: seq}
	})
	return func() { core.SetEngineWrapper(prev) }
}

func (e *tracedEngine) EvalStage(sc any, i int, rs teta.RunSpec, in circuit.Waveform, rising bool) (core.StageDelayResult, *circuit.PWL, error) {
	sp := e.tr.Begin("teta.EvalStage", 0, e.seq.Add(1))
	r, wf, err := e.Engine.EvalStage(sc, i, rs, in, rising)
	e.tr.End(sp)
	return r, wf, err
}

func (e *tracedEngine) EvalPath(sc any, rs teta.RunSpec) (*core.PathEval, error) {
	sample := e.seq.Add(1)
	sp := e.tr.Begin("core.EvalPath", 0, sample)
	defer e.tr.End(sp)
	p := e.chain
	if p == nil || len(p.Stages) == 0 {
		return e.Engine.EvalPath(sc, rs)
	}
	rising := true
	vdd := p.Tech.VDD
	var in circuit.Waveform = circuit.SatRamp{
		V0: 0, V1: vdd, Start: p.TStart - p.InputSlew/2, Slew: p.InputSlew,
	}
	out := &core.PathEval{}
	for i := range p.Stages {
		st := e.tr.Begin("teta.EvalStage", sp.ID, sample)
		r, wf, err := e.Engine.EvalStage(sc, i, rs, in, rising)
		e.tr.End(st)
		if err != nil {
			return nil, err
		}
		d := r.Cross50 - p.TStart
		out.StageDelays = append(out.StageDelays, d)
		out.Delay += d
		out.SCIters += r.SCIters
		out.LinearSolves += r.Solves
		in = shiftPWL(wf, p.TStart-r.Cross50).Compress(1e-4 * vdd)
		rising = rising != p.Stages[i].Invert
		out.FinalSlew = r.Slew
	}
	return out, nil
}

// shiftPWL translates a waveform in time by dt.
func shiftPWL(w *circuit.PWL, dt float64) *circuit.PWL {
	ts := make([]float64, len(w.T))
	for i, t := range w.T {
		ts[i] = t + dt
	}
	return &circuit.PWL{T: ts, V: w.V}
}
