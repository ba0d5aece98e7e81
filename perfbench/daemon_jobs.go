package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lcsim/internal/checkpoint"
	"lcsim/internal/core"
	"lcsim/internal/job"
	"lcsim/internal/jobd"
	"lcsim/internal/modelcache"
	"lcsim/internal/runner"
)

// daemonSpecs are the queued jobs: the path_mc chain as `path` job
// specs with workers 1, one LHS seed per job derived from the workload
// seed.
func daemonSpecs(seed int64, size Size) ([]*job.Spec, error) {
	specs := make([]*job.Spec, size.Jobs)
	for j := range specs {
		sp, err := job.NewSpec("path", job.RunSpec{Seed: seed*1000 + int64(j), Workers: 1}, job.PathParams{
			ChainParams: job.ChainParams{
				Cells: benchCells, Elems: benchElems, Drive: 2,
				StdDL: benchStdDL, StdVT: benchStdVT, Wires: true,
			},
			MC:      size.JobN,
			Sampler: "lhs",
		})
		if err != nil {
			return nil, err
		}
		specs[j] = sp
	}
	return specs, nil
}

// daemonRep is what one daemon_jobs rep measured.
type daemonRep struct {
	setups     []float64
	gross      float64   // supervisor start → last result.json installed
	idle       float64   // share of gross with no job running: slots waiting for the next poll
	wall       float64   // gross - idle
	jobS       []float64 // claim → result.json installed, per job
	enqueueMs  []float64
	claimMs    []float64 // Enqueue end → supervisor's first spec read
	queueIOMs  float64
	cacheIOMs  float64
	hits, miss int64
	ckpt       fsStats
	results    []*job.Result
	buildMs    []float64 // BuildChain against the rep's warm cache
}

// runDaemonJobs is the daemon_jobs workload: an in-process jobd
// Supervisor at its default settings drains a new queue of path jobs
// sharing one new model cache. Each rep measures setup (open queue and
// cache, enqueue every spec) and the time until the last result.json is
// installed, net of the time no job was running: the supervisor fills
// its two slots only on its 1 s queue poll, so with the jobs sized well
// inside a poll most of the gross time is that wait, a whole number of
// seconds that no change to the job execution path would move. The wait
// is reported on its own (jobd.poll_idle_s). A job's time runs from the
// supervisor's claim (its first read of the spec) to its result; the
// wait before the claim is jobd.claim_wait_ms.
func runDaemonJobs(ctx context.Context, cfg Config) (*Result, error) {
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
	specs, err := daemonSpecs(cfg.Seed, cfg.Size)
	if err != nil {
		return nil, err
	}
	chain, err := core.BuildChain(chainSpec())
	if err != nil {
		return nil, err
	}

	ckFS := newTimingFS(nil, "checkpoint", tr)
	ckFS.keyOf = jobKey
	prevFS := checkpoint.SetFS(ckFS)
	defer checkpoint.SetFS(prevFS)
	var retries atomic.Int64

	rep := func(i int, traced bool) (*daemonRep, error) {
		dir, err := tempDir(cfg, "daemon-")
		if err != nil {
			return nil, err
		}
		ckFS.Reset()
		var rtr *Tracer
		if traced {
			rtr = tr
			uninstall := installTracedEngines(tr, chain)
			defer uninstall()
		}
		ckFS.tr = rtr
		// Extra set-ups into throwaway queues first, so setup_s is a
		// median over set-ups spread across the run.
		out := &daemonRep{}
		for k := 1; k < cfg.Size.SetupReps; k++ {
			su, err := daemonSetup(filepath.Join(dir, fmt.Sprintf("setup-%d", k)), specs, nil)
			if err != nil {
				return nil, err
			}
			out.setups = append(out.setups, su.wall)
		}
		su, err := daemonSetup(dir, specs, rtr)
		if err != nil {
			return nil, err
		}
		out.setups = append(out.setups, su.wall)
		out.enqueueMs = su.enqueueMs

		// The queue hooks see the supervisor claim each job (its first
		// spec read) and commit it (result.json installed).
		var mu sync.Mutex
		claimed := map[string]time.Time{}
		installed := map[string]time.Time{}
		allDone := make(chan struct{})
		su.qFS.OnRead = func(name string, at time.Time) {
			if !isQueueFile(name, "spec.json") {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if id := jobDir(name); claimed[id].IsZero() {
				claimed[id] = at
			}
		}
		su.qFS.OnRename = func(name string, at time.Time) {
			if !isQueueFile(name, "result.json") {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			id := jobDir(name)
			if !installed[id].IsZero() {
				return
			}
			installed[id] = at
			if len(installed) == len(specs) {
				close(allDone)
			}
		}

		sup, err := jobd.New(jobd.Config{
			Queue:      su.q,
			MacroCache: su.store,
			Logf: func(format string, args ...any) {
				if msg := fmt.Sprintf(format, args...); strings.Contains(msg, "transient failure") || strings.Contains(msg, "spec read failed") {
					retries.Add(1)
				}
			},
		})
		if err != nil {
			return nil, err
		}
		runCtx, cancel := context.WithCancel(ctx)
		defer cancel()
		root := rtr.Begin("bench.Rep", noParent, int64(i))
		supSpan := rtr.Begin("jobd.Run", root.ID, int64(i))
		prevParent := rtr.SetParent(supSpan.ID)
		start := time.Now()
		done := make(chan error, 1)
		go func() { done <- sup.Run(runCtx) }()
		select {
		case <-allDone:
		case err := <-done:
			return nil, fmt.Errorf("supervisor stopped early: %v", err)
		case <-time.After(2 * time.Minute):
			cancel()
			<-done
			return nil, fmt.Errorf("daemon jobs not done after 2m")
		}
		cancel()
		if err := <-done; err != nil {
			return nil, err
		}
		rtr.End(supSpan)
		rtr.SetParent(prevParent)
		mu.Lock()
		var last time.Time
		var running []interval
		for j, id := range su.ids {
			at := installed[id]
			out.jobS = append(out.jobS, at.Sub(claimed[id]).Seconds())
			if at.After(last) {
				last = at
			}
			running = append(running, interval{claimed[id], at})
			rtr.EndAsyncAt(su.jobSpans[j], at)
			out.claimMs = append(out.claimMs, float64(claimed[id].Sub(su.enqEnd[j]))/1e6)
		}
		mu.Unlock()
		out.gross = last.Sub(start).Seconds()
		out.idle = idleBetween(running)
		out.wall = out.gross - out.idle
		rtr.EndAt(root, last)

		for _, id := range su.ids {
			st, err := su.q.State(id)
			if err != nil {
				return nil, err
			}
			r, rerr := su.q.Result(id)
			if st.Status != jobd.StatusDone || rerr != nil {
				return nil, fmt.Errorf("job %s: status %s, result error %v", id, st.Status, rerr)
			}
			out.results = append(out.results, r)
		}
		out.queueIOMs = float64(su.qFS.Stats().IONs) / 1e6
		out.cacheIOMs = float64(su.cFS.Stats().IONs) / 1e6
		out.hits, out.miss, _ = su.store.Stats()
		out.ckpt = ckFS.Stats()
		if traced {
			// Each shard rebuilds the chain through the shared cache: time
			// that warm BuildChain from outside.
			spec := chainSpec()
			spec.MacroCache = su.store
			for k := 0; k < 3; k++ {
				t := time.Now()
				if _, err := core.BuildChain(spec); err != nil {
					return nil, err
				}
				out.buildMs = append(out.buildMs, float64(time.Since(t))/1e6)
			}
		}
		return out, nil
	}

	var untraced, traced []*daemonRep
	loop, err := timedLoop(ctx, cfg, func(i int, isTraced bool) error {
		r, err := rep(i, isTraced)
		if err != nil {
			return err
		}
		res.Attempted += len(specs)
		if isTraced {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Correctness, outside the timed region: every daemon result must
	// match a direct job.Run of the same spec, run two at a time. The
	// traced run repeats the direct run for jobd.overhead_frac.
	direct, directWall, err := runDirect(ctx, specs)
	if err != nil {
		return nil, err
	}
	directWalls := []float64{directWall}
	for k := 1; cfg.Trace && k < 3; k++ {
		_, w, err := runDirect(ctx, specs)
		if err != nil {
			return nil, err
		}
		directWalls = append(directWalls, w)
	}
	for _, r := range append(append([]*daemonRep(nil), untraced...), traced...) {
		for j, got := range r.results {
			res.check(canonical(got.Summary) == canonical(direct[j].Summary) && canonical(got.Failures) == canonical(direct[j].Failures),
				"job %d: daemon result differs from a direct job.Run", j)
			if got.Failures != nil {
				res.Failed++
			}
		}
	}
	// Accuracy over the rows of every job.
	var rows [][]float64
	var delays []float64
	for _, sp := range specs {
		kept, err := keptRows(ctx, chain, sp, cfg.Size.JobN)
		if err != nil {
			return nil, err
		}
		rows = append(rows, kept.Samples...)
		delays = append(delays, kept.Delays...)
	}
	fast, exact, err := exactSubset(chain, chainSources(), rows, delays, cfg.Size.ErrRows)
	if err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes, momentNote(fast, exact))
	gaErr, err := gaErrPct(chain, chainSources(), ref)
	if err != nil {
		return nil, err
	}

	var setups, walls, grossWalls, jobS []float64
	for _, r := range untraced {
		setups = append(setups, r.setups...)
		walls = append(walls, r.wall)
		grossWalls = append(grossWalls, r.gross)
		jobS = append(jobS, r.jobS...)
	}
	wall := median(walls)
	res.RepWalls = walls
	res.Loop = loop
	res.Metrics["setup_s"] = median(setups)
	res.Metrics["wall_s"] = wall
	res.Metrics["samples_per_s"] = float64(len(specs)*cfg.Size.JobN) / wall
	res.Metrics["job_s_p50"] = median(jobS)
	res.Metrics["delay_err_pct"] = delayErrPct(fast, exact)
	res.Metrics["ssta_err_pct"] = gaErr
	res.Metrics["peak_rss_mb"] = median(loop.rssMB)
	res.Notes = append(res.Notes, fmt.Sprintf("supervisor start to last result, poll waits included: %.3f s (median); direct job.Run of the same specs, two at a time: %.3f s",
		median(grossWalls), median(directWalls)))

	if cfg.Trace {
		spans := tr.Spans()
		var tracedWalls, idle, enq, claim, qio, cio, hits, miss, flushes, bytes, flushMs, build []float64
		var snaps []runner.Snapshot
		for _, r := range traced {
			tracedWalls = append(tracedWalls, r.gross)
			idle = append(idle, r.idle)
			enq = append(enq, r.enqueueMs...)
			claim = append(claim, r.claimMs...)
			qio = append(qio, r.queueIOMs)
			cio = append(cio, r.cacheIOMs)
			hits = append(hits, float64(r.hits))
			miss = append(miss, float64(r.miss))
			flushes = append(flushes, float64(r.ckpt.Flushes))
			bytes = append(bytes, float64(r.ckpt.Written))
			flushMs = append(flushMs, r.ckpt.FlushMs...)
			build = append(build, r.buildMs...)
			for _, jr := range r.results {
				snaps = append(snaps, jr.Metrics)
			}
		}
		traceMetrics(res, spans, grossWalls, tracedWalls)
		evalPathMetrics(res, spans)
		runnerMetrics(res, snaps, tracedWalls, benchWorkers)
		res.Metrics["core.build_chain_ms"] = median(build)
		res.Metrics["modelcache.hits"] = median(hits)
		res.Metrics["modelcache.misses"] = median(miss)
		res.Metrics["modelcache.io_ms"] = median(cio)
		res.Metrics["checkpoint.flushes"] = median(flushes)
		res.Metrics["checkpoint.bytes_written"] = median(bytes)
		res.Metrics["checkpoint.flush_ms_p50"] = median(flushMs)
		res.Metrics["checkpoint.flush_ms_p99"] = quantile(flushMs, 0.99)
		res.Metrics["jobd.enqueue_ms"] = median(enq)
		res.Metrics["jobd.queue_io_ms"] = median(qio)
		res.Metrics["jobd.claim_wait_ms"] = median(claim)
		res.Metrics["jobd.poll_idle_s"] = median(idle)
		res.Metrics["jobd.overhead_frac"] = median(grossWalls)/median(directWalls) - 1
		res.Metrics["jobd.retries"] = float64(retries.Load())
		if err := poleresProbe(res, chain, chainSources(), rows, cfg.Size.ProbeRows); err != nil {
			return nil, err
		}
		if err := evalPathProbe(res, chain, chainSources(), rows, cfg.Size.ProbeRows); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// daemonSetupOut is one daemon_jobs set-up.
type daemonSetupOut struct {
	q                *jobd.Queue
	store            *modelcache.Store
	qFS, cFS         *timingFS
	ids              []string
	enqStart, enqEnd []time.Time
	enqueueMs        []float64
	jobSpans         []Open
	wall             float64
}

// daemonSetup is the daemon_jobs set-up: open a new queue and a new model
// cache under dir, through timing filesystems, and enqueue every spec.
func daemonSetup(dir string, specs []*job.Spec, tr *Tracer) (*daemonSetupOut, error) {
	su := &daemonSetupOut{qFS: newTimingFS(nil, "jobd", tr), cFS: newTimingFS(nil, "modelcache", tr)}
	su.qFS.keyOf = jobKey
	t0 := time.Now()
	var err error
	if su.q, err = jobd.OpenQueue(filepath.Join(dir, "queue"), su.qFS); err != nil {
		return nil, err
	}
	if su.store, err = modelcache.OpenFS(filepath.Join(dir, "cache"), su.cFS); err != nil {
		return nil, err
	}
	for j, sp := range specs {
		start := time.Now()
		su.jobSpans = append(su.jobSpans, tr.Begin("jobd.Job", noParent, int64(j)))
		span := tr.Begin("jobd.Enqueue", noParent, int64(j))
		id, err := su.q.Enqueue(sp)
		tr.End(span)
		if err != nil {
			return nil, err
		}
		end := time.Now()
		su.ids = append(su.ids, id)
		su.enqStart = append(su.enqStart, start)
		su.enqEnd = append(su.enqEnd, end)
		su.enqueueMs = append(su.enqueueMs, float64(end.Sub(start))/1e6)
	}
	su.wall = time.Since(t0).Seconds()
	return su, nil
}

// interval is the time a job ran, from its claim to its result.
type interval struct{ from, to time.Time }

// idleBetween is the time, between the first claim and the last result,
// during which no job was running.
func idleBetween(jobs []interval) float64 {
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].from.Before(jobs[j].from) })
	idle := 0.0
	var reach time.Time
	for k, iv := range jobs {
		if k > 0 && iv.from.After(reach) {
			idle += iv.from.Sub(reach).Seconds()
		}
		if iv.to.After(reach) {
			reach = iv.to
		}
	}
	return idle
}

// jobKey maps a path under <queue>/jobs/<id>/ to a numeric span key: the
// queue id is 12 hex digits of the spec hash. Other paths get key 0.
func jobKey(path string) int64 {
	k, err := strconv.ParseInt(jobDir(path), 16, 64)
	if err != nil {
		return 0
	}
	return k
}

// runDirect runs every spec through job.Run, two at a time, and returns
// the results in spec order and the wall time.
func runDirect(ctx context.Context, specs []*job.Spec) ([]*job.Result, float64, error) {
	out := make([]*job.Result, len(specs))
	errs := make([]error, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < benchWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= len(specs) {
					return
				}
				out[j], errs[j] = job.Run(ctx, specs[j], nil)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0).Seconds()
	for j, err := range errs {
		if err != nil {
			return nil, 0, fmt.Errorf("direct job %d: %w", j, err)
		}
	}
	return out, wall, nil
}

// keptRows re-runs one job's sweep in process, keeping its sample rows.
func keptRows(ctx context.Context, p *core.Path, spec *job.Spec, n int) (*core.MCResult, error) {
	return p.MonteCarloCtx(ctx, core.MCConfig{
		RunConfig:   core.RunConfig{Seed: spec.Run.Seed, Workers: benchWorkers},
		N:           n,
		Sources:     chainSources(),
		Sampler:     core.SamplerLHS,
		KeepSamples: true,
	})
}

// canonical renders a value as JSON through plain maps, so a result read
// back from disk compares equal to one built in memory.
func canonical(v any) string {
	buf, err := json.Marshal(v)
	if err != nil {
		return "error: " + err.Error()
	}
	var x any
	if err := json.Unmarshal(buf, &x); err != nil {
		return "error: " + err.Error()
	}
	out, _ := json.Marshal(x)
	return string(out)
}
