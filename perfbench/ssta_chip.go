package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"time"

	"lcsim/internal/core"
	"lcsim/internal/device"
	"lcsim/internal/iscas"
	"lcsim/internal/modelcache"
	"lcsim/internal/runner"
	"lcsim/internal/ssta"
)

// sstaSources are the chip-wide variation sources of ssta_chip (the
// `lcsim sta -ssta` defaults: device length and threshold only).
func sstaSources() []core.Source {
	return core.DeviceSources(device.Tech180, benchStdDL, benchStdVT)
}

// loadCircuit generates and tech-maps a named benchmark circuit.
func loadCircuit(name string) (*iscas.Circuit, error) {
	b, ok := iscas.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark circuit %q", name)
	}
	return iscas.Load(b)
}

// runSSTAChip is the ssta_chip workload: block-level SSTA of a generated
// ISCAS circuit with 2 workers, each rep characterizing every distinct
// block from scratch into a new, empty model-cache directory. The seed
// does not change the inputs: the circuit is fixed so that its stored
// brute-force reference applies.
func runSSTAChip(ctx context.Context, cfg Config) (*Result, error) {
	res := newResult()
	var tr *Tracer
	if cfg.Trace {
		tr = NewTracer()
		res.Spans = tr
	}

	// Set-up runs before the first rep and SetupReps times before every
	// timed rep, so setup_s is a median over set-ups spread across the
	// run.
	var setups []float64
	setup := func(i int) (*iscas.Circuit, error) {
		t0 := time.Now()
		c, err := loadCircuit(cfg.Size.Circuit)
		if err != nil {
			return nil, err
		}
		sp := tr.Begin("ssta.Partition", 0, int64(i))
		_, err = ssta.Partition(c)
		tr.End(sp)
		setups = append(setups, time.Since(t0).Seconds())
		return c, err
	}
	c, err := setup(-1)
	if err != nil {
		return nil, err
	}
	ref, err := cfg.sstaRef(c)
	if err != nil {
		return nil, err
	}

	cacheFS := newTimingFS(nil, "modelcache", tr)
	type repOut struct {
		res  *ssta.Result
		wall float64
		snap runner.Snapshot
		hits int64
		miss int64
		ioMs float64
	}
	rep := func(i int, traced bool) (*repOut, error) {
		var c *iscas.Circuit
		for k := 0; k < cfg.Size.SetupReps; k++ {
			var err error
			if c, err = setup(i); err != nil {
				return nil, err
			}
		}
		dir, err := tempDir(cfg, "ssta-cache-")
		if err != nil {
			return nil, err
		}
		cacheFS.Reset()
		store, err := modelcache.OpenFS(dir, cacheFS)
		if err != nil {
			return nil, err
		}
		m := &runner.Metrics{}
		scfg := ssta.Config{
			RunConfig: core.RunConfig{Seed: cfg.Seed, Workers: benchWorkers, Metrics: m, MacroCache: store},
			Sources:   sstaSources(),
		}
		var root, call Open
		if traced {
			uninstall := installTracedEngines(tr, nil)
			defer uninstall()
			root = tr.Begin("bench.Rep", noParent, int64(i))
			call = tr.Begin("ssta.Run", root.ID, int64(i))
			defer tr.SetParent(tr.SetParent(call.ID))
		}
		t0 := time.Now()
		out, err := ssta.Run(ctx, c, scfg)
		wall := time.Since(t0).Seconds()
		if traced {
			tr.End(call)
			tr.End(root)
		}
		if err != nil {
			return nil, err
		}
		hits, miss, _ := store.Stats()
		return &repOut{res: out, wall: wall, snap: m.Snapshot(), hits: hits, miss: miss,
			ioMs: float64(cacheFS.Stats().IONs) / 1e6}, nil
	}

	first, err := rep(-1, false) // untimed: settles the heap
	if err != nil {
		return nil, err
	}
	checkSinks(res, first.res, ref)
	var walls, tracedWalls []float64
	var outs []*repOut
	loop, err := timedLoop(ctx, cfg, func(i int, traced bool) error {
		o, err := rep(i, traced)
		if err != nil {
			return err
		}
		res.Attempted++
		res.check(reflect.DeepEqual(o.res.Sinks, first.res.Sinks) && o.res.Chip == first.res.Chip,
			"rep %d sinks differ from the first run (traced=%v)", i, traced)
		if traced {
			tracedWalls = append(tracedWalls, o.wall)
			outs = append(outs, o)
		} else {
			walls = append(walls, o.wall)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	sinkErr, chipErr := sstaErrors(first.res, ref)
	wall := median(walls)
	res.RepWalls = walls
	res.Loop = loop
	res.Metrics["setup_s"] = median(setups)
	res.Metrics["wall_s"] = wall
	res.Metrics["samples_per_s"] = float64(first.res.Stats.Simulations) / wall
	res.Metrics["job_s_p50"] = wall
	res.Metrics["delay_err_pct"] = chipErr
	res.Metrics["ssta_err_pct"] = sinkErr
	res.Metrics["peak_rss_mb"] = median(loop.rssMB)

	if cfg.Trace {
		spans := tr.Spans()
		traceMetrics(res, spans, walls, tracedWalls)
		res.Metrics["ssta.partition_ms"] = 1e3 * median(Durations(spans, "ssta.Partition"))
		var snaps []runner.Snapshot
		var char, prop, hits, miss, io []float64
		for _, o := range outs {
			snaps = append(snaps, o.snap)
			char = append(char, o.res.Stats.Wall.Seconds())
			prop = append(prop, o.wall-o.res.Stats.Wall.Seconds())
			hits = append(hits, float64(o.hits))
			miss = append(miss, float64(o.miss))
			io = append(io, o.ioMs)
		}
		var stages []float64
		for _, s := range spans {
			if s.Name == "teta.EvalStage" {
				stages = append(stages, s.Dur())
			}
		}
		res.Metrics["teta.stage_us_p50"] = 1e6 * median(stages)
		res.Metrics["teta.stage_us_p99"] = 1e6 * quantile(stages, 0.99)
		// A GA stage simulation is this workload's sample.
		total := mergeSnapshots(snaps)
		if total.StageEvals > 0 {
			res.Metrics["teta.sc_iters_per_sample"] = float64(total.SCIterations) / float64(total.StageEvals)
			res.Metrics["teta.solves_per_sample"] = float64(total.LinearSolves) / float64(total.StageEvals)
		}
		if w := sum(tracedWalls) * benchWorkers * 1e9; w > 0 {
			res.Metrics["runner.utilization"] = float64(total.BusyNs) / w
			res.Metrics["runner.chan_wait_frac"] = float64(total.SendWaitNs) / w
		}
		res.Metrics["ssta.characterize_s"] = median(char)
		res.Metrics["ssta.propagate_ms"] = 1e3 * median(prop)
		res.Metrics["ssta.simulations"] = float64(first.res.Stats.Simulations)
		res.Metrics["ssta.cache_hits"] = float64(first.res.Stats.CacheHits)
		res.Metrics["modelcache.hits"] = median(hits)
		res.Metrics["modelcache.misses"] = median(miss)
		res.Metrics["modelcache.io_ms"] = median(io)
	}
	return res, nil
}

// checkSinks checks that every reference sink is present and finite.
func checkSinks(res *Result, r *ssta.Result, ref *sstaReference) {
	got := map[string]ssta.SinkResult{}
	for _, s := range r.Sinks {
		got[s.Net] = s
	}
	res.check(len(r.Sinks) == len(ref.Sinks), "ssta reported %d sinks, reference has %d", len(r.Sinks), len(ref.Sinks))
	for _, want := range ref.Sinks {
		s, ok := got[want.Net]
		res.check(ok, "sink %s missing", want.Net)
		res.check(!ok || (finite(s.Mean, s.Std) && s.Std > 0), "sink %s not finite: mean %g std %g", want.Net, s.Mean, s.Std)
	}
	res.check(finite(r.Chip.Mean, r.Chip.Std), "chip arrival not finite")
}

// sstaErrors returns, in percent, the largest per-sink relative error in
// mean or σ against the reference, and the same for the chip arrival.
func sstaErrors(r *ssta.Result, ref *sstaReference) (sink, chip float64) {
	byNet := map[string]refMoments{}
	for _, s := range ref.Sinks {
		byNet[s.Net] = s
	}
	for _, s := range r.Sinks {
		if w, ok := byNet[s.Net]; ok {
			sink = math.Max(sink, math.Max(relErr(s.Mean, w.Mean), relErr(s.Std, w.Std)))
		}
	}
	chip = math.Max(relErr(r.Chip.Mean, ref.Chip.Mean), relErr(r.Chip.Std, ref.Chip.Std))
	return 100 * sink, 100 * chip
}
