package teta

import (
	"fmt"
	"math"

	"lcsim/internal/poleres"
)

// Scratch holds every reusable buffer one worker needs to evaluate
// samples on the fast path: the macromodel evaluation buffer, the
// convolver (whose recurrence coefficients are memoized across samples
// with identical poles), and the driver-side vectors of the SC loop.
// A Scratch must not be shared between concurrent Run calls; create one
// per worker with NewScratch and thread it through RunWith.
type Scratch struct {
	me *poleres.MacroEval
	cv *poleres.Convolver

	vp, iN, hist []float64

	vin0, vinNow, unk [][]float64
	states            []*driverState

	// Per-driver solve buffers: rhs, Norton solve scratch, internals rhs.
	bBuf, xBuf, biBuf [][]float64

	// res backs the Result returned by RunWith: the waveform arrays are
	// reused across samples, so a fast-path Result is valid only until
	// the next run with the same scratch (Run detaches a copy before
	// returning a pooled scratch).
	res Result
}

// NewScratch allocates an evaluation scratch sized for the stage. The
// returned scratch is only used by the fast path; stages without a
// variational macromodel accept it and fall back to per-sample extraction.
func (st *Stage) NewScratch() *Scratch {
	np := st.sys.Np
	sc := &Scratch{
		cv:   new(poleres.Convolver),
		vp:   make([]float64, np),
		iN:   make([]float64, np),
		hist: make([]float64, np),
	}
	if st.varmac != nil {
		sc.me = st.varmac.NewEval()
	}
	for _, d := range st.drivers {
		sc.vin0 = append(sc.vin0, make([]float64, d.nIn))
		sc.vinNow = append(sc.vinNow, make([]float64, d.nIn))
		sc.unk = append(sc.unk, make([]float64, d.nUnk))
		sc.states = append(sc.states, d.newState(0, 0))
		sc.bBuf = append(sc.bBuf, make([]float64, d.nUnk))
		sc.xBuf = append(sc.xBuf, make([]float64, d.outIdx))
		sc.biBuf = append(sc.biBuf, make([]float64, d.outIdx))
	}
	return sc
}

// runFast evaluates one sample through the characterize-once variational
// macromodel: an O(q·np²) affine pole/residue update, per-sample
// stabilization in place, a memoized convolver reconfiguration, and an
// allocation-free SC timestep loop. The mathematics is identical to
// runROM up to the macromodel's first-order truncation (covered by the
// consistency tests); the per-timestep work allocates nothing.
func (st *Stage) runFast(sc *Scratch, rs RunSpec) (*Result, error) {
	pr, err := st.varmac.EvalInto(sc.me, rs.W)
	if err != nil {
		return nil, err
	}
	stats := RunStats{BetaMin: 1, BetaMax: 1}
	if !st.cfg.NoStab {
		var rep poleres.StabReport
		if st.cfg.UseBetaStab {
			rep = pr.StabilizeInPlace()
		} else {
			rep = pr.StabilizeShiftInPlace()
		}
		stats.UnstablePoles = len(rep.Removed)
		stats.BetaMin, stats.BetaMax = rep.BetaMin, rep.BetaMax
		if len(pr.Poles) == 0 && stats.UnstablePoles > 0 {
			return nil, fmt.Errorf("%w (%d poles removed at this sample)", poleres.ErrAllPolesUnstable, stats.UnstablePoles)
		}
	}
	if err := sc.cv.Reconfigure(pr, st.cfg.DT); err != nil {
		return nil, err
	}
	np := st.sys.Np
	for di, d := range st.drivers {
		d.resetState(sc.states[di], rs.DL, rs.DVT)
		for k, w := range rs.Inputs[di] {
			sc.vin0[di][k] = w.At(0)
		}
	}
	if err := st.dcInit(pr.DCZ(), sc.vp, sc.iN, sc.vin0, sc.unk, sc.states); err != nil {
		return nil, err
	}
	sc.cv.InitDC(sc.iN)
	for di, d := range st.drivers {
		d.commit(sc.unk[di], sc.vp[d.Port], sc.vin0[di], sc.states[di])
	}

	h := st.cfg.DT
	nSteps := int(st.cfg.TStop/h + 0.5)
	res := &sc.res
	res.Stats = RunStats{}
	if cap(res.T) < nSteps+1 {
		res.T = make([]float64, 0, nSteps+1)
	}
	res.T = res.T[:0]
	if len(res.PortV) != np {
		res.PortV = make([][]float64, np)
	}
	for p := range res.PortV {
		if cap(res.PortV[p]) < nSteps+1 {
			res.PortV[p] = make([]float64, 0, nSteps+1)
		}
		res.PortV[p] = res.PortV[p][:0]
	}
	record := func(t float64, v []float64) {
		res.T = append(res.T, t)
		for p := 0; p < np; p++ {
			res.PortV[p] = append(res.PortV[p], v[p])
		}
	}
	record(0, sc.vp)

	zeff := sc.cv.EffZView()
	solvesPerIter := 1
	for _, d := range st.drivers {
		if d.nUnk > 1 {
			solvesPerIter += 2
		}
	}
	vp, iN, hist := sc.vp, sc.iN, sc.hist
	stop := newHorizon(rs.Stop)
	for step := 1; step <= nSteps; step++ {
		t := float64(step) * h
		for di, d := range st.drivers {
			for k, w := range rs.Inputs[di] {
				sc.vinNow[di][k] = w.At(t)
			}
			// Start iteration from the committed state.
			copy(sc.unk[di][:d.outIdx], sc.states[di].vInt)
			sc.unk[di][d.outIdx] = sc.states[di].vOut
		}
		sc.cv.HistoryInto(hist)
		converged := false
		for it := 0; it < st.cfg.MaxSC; it++ {
			stats.SCIterations++
			stats.LinearSolves += solvesPerIter
			for di, d := range st.drivers {
				d.rhsInto(sc.bBuf[di], sc.unk[di], sc.vinNow[di], false, sc.states[di])
				iN[d.Port] = d.nortonS(sc.bBuf[di], sc.xBuf[di], false)
			}
			delta := 0.0
			for p := 0; p < np; p++ {
				vNew := hist[p]
				zr := zeff.Row(p)
				for q, iq := range iN {
					vNew += zr[q] * iq
				}
				if dv := math.Abs(vNew - vp[p]); dv > delta {
					delta = dv
				}
				vp[p] = vNew
			}
			for di, d := range st.drivers {
				// bBuf still holds this iteration's right-hand side: nothing
				// it depends on (unk, inputs, committed state) has changed
				// since the Norton extraction above, so the second device
				// sweep runROM performs here is skipped.
				d.internalsInto(sc.unk[di][:d.outIdx], sc.biBuf[di], sc.bBuf[di], vp[d.Port], false)
				sc.unk[di][d.outIdx] = vp[d.Port]
			}
			if delta < st.cfg.SCTol && it > 0 {
				converged = true
				break
			}
			if scDiverged(delta) {
				return nil, fmt.Errorf("%w at t=%.4g", ErrSCDiverged, t)
			}
		}
		if !converged {
			return nil, fmt.Errorf("%w: t=%.4g", ErrNoConvergence, t)
		}
		sc.cv.AdvanceInto(nil, iN)
		for di, d := range st.drivers {
			d.commit(sc.unk[di], vp[d.Port], sc.vinNow[di], sc.states[di])
		}
		record(t, vp)
		stats.Steps = step
		if pv := res.PortV[stop.Port]; stop.reached(pv[step-1], pv[step]) {
			break
		}
	}
	res.Stats = stats
	return res, nil
}
