package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"lcsim/internal/core"
	"lcsim/internal/poleres"
	"lcsim/internal/runner"
	"lcsim/internal/stat"
)

// runPathMC is the path_mc workload: core.BuildChain, then repeated
// streaming LHS Monte-Carlo sweeps (teta-fast, 2 workers) of the chain.
// Every rep evaluates the same rows, so every rep must return the same
// summary bit for bit.
func runPathMC(ctx context.Context, cfg Config) (*Result, error) {
	res := newResult()
	var tr *Tracer
	if cfg.Trace {
		tr = NewTracer()
		res.Spans = tr
	}
	ref, err := cfg.pathRef()
	if err != nil {
		return nil, err
	}

	// Set-up runs before the warm-up and SetupReps times before every
	// rep, so setup_s is a median over set-ups spread across the run.
	var setups []float64
	setup := func(i int) (*core.Path, core.MCConfig, error) {
		t0 := time.Now()
		sp := tr.Begin("core.BuildChain", 0, int64(i))
		p, err := core.BuildChain(chainSpec())
		tr.End(sp)
		mcfg := core.MCConfig{
			RunConfig: core.RunConfig{Seed: cfg.Seed, Workers: benchWorkers},
			N:         cfg.Size.PathN,
			Sources:   chainSources(),
			Sampler:   core.SamplerLHS,
		}
		setups = append(setups, time.Since(t0).Seconds())
		return p, mcfg, err
	}
	p, mcfg, err := setup(-1)
	if err != nil {
		return nil, err
	}

	// One untimed sweep lets the heap and the convolver memos settle.
	first, err := p.MonteCarloCtx(ctx, mcfg)
	if err != nil {
		return nil, err
	}
	checkSweep(res, first.Summary, first.Failures.Any(), cfg.Size.PathN)

	var walls, tracedWalls []float64
	var snaps []runner.Snapshot
	loop, err := timedLoop(ctx, cfg, func(i int, traced bool) error {
		var p *core.Path
		var run core.MCConfig
		for k := 0; k < cfg.Size.SetupReps; k++ {
			var err error
			if p, run, err = setup(i); err != nil {
				return err
			}
		}
		m := &runner.Metrics{}
		run.Metrics = m
		var root, call Open
		if traced {
			uninstall := installTracedEngines(tr, p)
			defer uninstall()
			root = tr.Begin("bench.Rep", noParent, int64(i))
			call = tr.Begin("core.MonteCarloCtx", root.ID, int64(i))
			defer tr.SetParent(tr.SetParent(call.ID))
		}
		t0 := time.Now()
		out, err := p.MonteCarloCtx(ctx, run)
		wall := time.Since(t0).Seconds()
		if traced {
			tr.End(call)
			tr.End(root)
		}
		if err != nil {
			return err
		}
		res.Attempted += cfg.Size.PathN
		res.Failed += out.Failures.Skipped
		checkSweep(res, out.Summary, out.Failures.Any(), cfg.Size.PathN)
		res.check(out.Summary == first.Summary, "rep %d summary differs from the first sweep (traced=%v)", i, traced)
		if traced {
			tracedWalls = append(tracedWalls, wall)
			snaps = append(snaps, m.Snapshot())
		} else {
			walls = append(walls, wall)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Accuracy, outside the timed region: the same rows again, kept this
	// time, and then through teta-exact.
	kept := mcfg
	kept.KeepSamples = true
	rows, err := p.MonteCarloCtx(ctx, kept)
	if err != nil {
		return nil, err
	}
	fast, exact, err := exactSubset(p, mcfg.Sources, rows.Samples, rows.Delays, cfg.Size.ErrRows)
	if err != nil {
		return nil, err
	}
	gaErr, err := gaErrPct(p, mcfg.Sources, ref)
	if err != nil {
		return nil, err
	}

	wall := median(walls)
	res.RepWalls = walls
	res.Loop = loop
	res.Metrics["setup_s"] = median(setups)
	res.Metrics["wall_s"] = wall
	res.Metrics["samples_per_s"] = float64(cfg.Size.PathN) / wall
	res.Metrics["job_s_p50"] = wall
	res.Metrics["delay_err_pct"] = delayErrPct(fast, exact)
	res.Notes = append(res.Notes, momentNote(fast, exact))
	res.Metrics["ssta_err_pct"] = gaErr
	res.Metrics["peak_rss_mb"] = median(loop.rssMB)

	if cfg.Trace {
		spans := tr.Spans()
		traceMetrics(res, spans, walls, tracedWalls)
		res.Metrics["core.build_chain_ms"] = 1e3 * median(Durations(spans, "core.BuildChain"))
		evalPathMetrics(res, spans)
		runnerMetrics(res, snaps, tracedWalls, benchWorkers)
		if err := poleresProbe(res, p, mcfg.Sources, rows.Samples, cfg.Size.ProbeRows); err != nil {
			return nil, err
		}
		if err := evalPathProbe(res, p, mcfg.Sources, rows.Samples, cfg.Size.ProbeRows); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// checkSweep checks that a sweep delivered n finite samples.
func checkSweep(res *Result, s stat.Summary, failures bool, n int) {
	res.check(s.N == n, "sweep delivered %d samples, want %d", s.N, n)
	res.check(s.NonFinite == 0, "sweep rejected %d non-finite delays", s.NonFinite)
	res.check(!failures, "sweep reported failed samples")
	res.check(finite(s.Mean, s.Std, s.Min, s.Max) && s.Std > 0, "sweep summary not finite: %+v", s)
}

// evalPathMetrics derives the core and teta per-sample timings from the
// EvalPath spans and their EvalStage children.
func evalPathMetrics(res *Result, spans []Span) {
	stageSum := map[int64]float64{}
	var stages, paths, prop []float64
	for _, s := range spans {
		if s.Name == "teta.EvalStage" {
			stages = append(stages, s.Dur())
			stageSum[s.Parent] += s.Dur()
		}
	}
	for _, s := range spans {
		if s.Name == "core.EvalPath" {
			paths = append(paths, s.Dur())
			prop = append(prop, s.Dur()-stageSum[s.ID])
		}
	}
	res.Metrics["core.eval_path_us_p50"] = 1e6 * median(paths)
	res.Metrics["core.eval_path_us_p99"] = 1e6 * quantile(paths, 0.99)
	res.Metrics["core.propagate_us"] = 1e6 * median(prop)
	res.Metrics["teta.stage_us_p50"] = 1e6 * median(stages)
	res.Metrics["teta.stage_us_p99"] = 1e6 * quantile(stages, 0.99)
}

// runnerMetrics reports the teta work counts per sample and the runner's
// worker utilization and channel wait over the traced reps.
func runnerMetrics(res *Result, snaps []runner.Snapshot, walls []float64, workers int) {
	total := mergeSnapshots(snaps)
	if total.Samples > 0 {
		res.Metrics["teta.sc_iters_per_sample"] = float64(total.SCIterations) / float64(total.Samples)
		res.Metrics["teta.solves_per_sample"] = float64(total.LinearSolves) / float64(total.Samples)
	}
	if w := sum(walls) * float64(workers) * 1e9; w > 0 {
		res.Metrics["runner.utilization"] = float64(total.BusyNs) / w
		res.Metrics["runner.chan_wait_frac"] = float64(total.SendWaitNs) / w
	}
}

// mergeSnapshots sums runner cost counters.
func mergeSnapshots(snaps []runner.Snapshot) runner.Snapshot {
	var m runner.Metrics
	for _, s := range snaps {
		m.Merge(s)
	}
	return m.Snapshot()
}

// traceMetrics reports the wall-clock attribution of the traced reps,
// the residual no layer span covers, and the tracing overhead.
func traceMetrics(res *Result, spans []Span, walls, tracedWalls []float64) {
	a := Attribute(spans, "bench.Rep", benchWorkers)
	res.Attribution = &a
	reps := float64(len(tracedWalls))
	for _, l := range spanLayers {
		res.Metrics[l+".self_s"] = a.Self[l] / reps
	}
	res.Metrics["trace.wall_s"] = a.Wall / reps
	res.Metrics["trace.residual_s"] = a.Self["bench"] / reps
	res.Metrics["trace.residual_frac"] = a.Self["bench"] / a.Wall
	res.Metrics["trace.unspanned_s"] = a.Unspanned / reps
	res.Metrics["trace.untraced_wall_s"] = median(walls)
	res.Metrics["trace.overhead_s"] = median(tracedWalls) - median(walls)
	res.Metrics["trace.spans"] = float64(len(spans))
}

// evalPathProbe times core's own EvalPath, one call at a time on k of
// the workload's sample rows. The EvalPath spans of the traced reps time
// the benchmark's replay of core's stage loop (engine.go), which is what
// lets them see the stages; this probe runs the program's loop itself,
// so a change to core's propagation shows here even though the replay
// does not follow it.
func evalPathProbe(res *Result, p *core.Path, sources []core.Source, rows [][]float64, k int) error {
	eng, err := p.Engine(core.EngineTetaFast)
	if err != nil {
		return err
	}
	sc := eng.NewScratch()
	var times []float64
	for j, i := range spreadIndices(len(rows), k) {
		rs := core.BuildRunSpec(sources, rows[i])
		t0 := time.Now()
		_, err := eng.EvalPath(sc, rs)
		if j > 0 { // the first call warms the scratch
			times = append(times, time.Since(t0).Seconds())
		}
		if err != nil {
			return fmt.Errorf("eval path probe: %w", err)
		}
	}
	res.Metrics["core.eval_path_direct_us_p50"] = 1e6 * median(times)
	return nil
}

// poleresProbe times the macromodel layer from outside: ExtractVar on
// every stage's variational ROM, EvalInto at the workload's sample rows,
// and one recursive-convolution time step (HistoryInto + AdvanceInto) of
// the nominal model.
func poleresProbe(res *Result, p *core.Path, sources []core.Source, rows [][]float64, k int) error {
	var extract, evalInto, step []float64
	for _, st := range p.Stages {
		t0 := time.Now()
		vm, err := poleres.ExtractVar(st.TStage.VarROM())
		extract = append(extract, time.Since(t0).Seconds())
		if err != nil {
			return fmt.Errorf("poleres probe: %w", err)
		}
		me := vm.NewEval()
		for _, i := range spreadIndices(len(rows), k) {
			w := core.BuildRunSpec(sources, rows[i]).W
			t0 := time.Now()
			_, err := vm.EvalInto(me, w)
			evalInto = append(evalInto, time.Since(t0).Seconds())
			if err != nil {
				return fmt.Errorf("poleres probe: %w", err)
			}
		}
		m, err := vm.EvalInto(vm.NewEval(), nil)
		if err != nil {
			return fmt.Errorf("poleres probe: %w", err)
		}
		m.StabilizeShiftInPlace()
		const steps = 400
		cv, err := poleres.NewConvolver(m, 4e-12)
		if err != nil {
			return fmt.Errorf("poleres probe: %w", err)
		}
		hist := make([]float64, m.Np)
		cur := make([]float64, m.Np)
		cv.InitDC(cur)
		for rep := 0; rep < 8; rep++ {
			t0 := time.Now()
			for s := 0; s < steps; s++ {
				cv.HistoryInto(hist)
				cur[0] = 1e-4 * math.Sin(float64(s)/40)
				cv.AdvanceInto(nil, cur)
			}
			step = append(step, time.Since(t0).Seconds()/steps)
		}
	}
	res.Metrics["poleres.extract_var_ms"] = 1e3 * median(extract)
	res.Metrics["poleres.eval_into_us"] = 1e6 * median(evalInto)
	res.Metrics["poleres.advance_ns"] = 1e9 * median(step)
	return nil
}
