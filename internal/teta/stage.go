package teta

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"lcsim/internal/circuit"
	"lcsim/internal/device"
	"lcsim/internal/mat"
	"lcsim/internal/mor"
	"lcsim/internal/poleres"
)

// ErrNoConvergence reports Successive-Chords iteration failure.
var ErrNoConvergence = errors.New("teta: successive chords did not converge")

// Typed per-sample failure causes. Both wrap ErrNoConvergence, so legacy
// errors.Is(err, ErrNoConvergence) checks keep working; new code should
// match the specific cause (the core layer classifies them into its
// failure taxonomy for skip/degrade policies).
var (
	// ErrSCDiverged reports that the Successive-Chords iteration diverged
	// (the port-voltage update went NaN or past scDivergeLimit), as
	// opposed to merely failing to converge within the iteration budget.
	ErrSCDiverged = fmt.Errorf("%w: iteration diverged", ErrNoConvergence)
	// ErrDCNewtonFailed reports that the t=0 quasi-static DC Newton could
	// not find an operating point from any starting sequence.
	ErrDCNewtonFailed = fmt.Errorf("%w: DC Newton initialization failed", ErrNoConvergence)
)

// scDivergeLimit is the port-voltage update magnitude (volts) past which
// the SC iteration is declared divergent rather than merely slow. It is
// the single divergence threshold shared by the exact (runROM) and fast
// (runFast) paths, so the two guards cannot drift apart.
const scDivergeLimit = 1e6

// scDiverged reports whether an SC port-voltage update indicates
// divergence: a NaN (the iteration left the representable range) or a
// step beyond scDivergeLimit.
func scDiverged(delta float64) bool {
	return math.IsNaN(delta) || delta > scDivergeLimit
}

// Config controls stage construction and simulation.
type Config struct {
	Tech  *device.ModelSet
	DT    float64
	TStop float64

	Chord  ChordPolicy
	Order  int     // ROM internal order (default 4)
	SCTol  float64 // SC convergence tolerance, V (default 1e-6)
	MaxSC  int     // SC iteration limit per step (default 500)
	Delta  float64 // variational characterization step (default 1e-3)
	NoStab bool    // disable the stability filter (ablation only)
	// UseBetaStab selects the paper's eq. (22)–(23) β residue scaling for
	// the stability correction instead of the default DC-shift variant
	// (poleres.StabilizeShift). Exposed for the ablation benchmark.
	UseBetaStab bool
	// ExactExtract forces a full pole/residue extraction (dense LU +
	// eigendecomposition) on every sample instead of evaluating the
	// characterize-once variational macromodel. It is the accuracy
	// reference for the fast path and the baseline of the
	// characterization-speedup benchmark.
	ExactExtract bool
	// MacroCache, when non-nil, is the cross-run macromodel store:
	// BuildStage characterizes through it, so a stage whose variational
	// library was already characterized by any earlier process loads the
	// macromodel instead of re-running the extraction. Stages built
	// through the cache evaluate bit-identically to uncached ones.
	MacroCache MacroStore
}

func (c *Config) setDefaults() error {
	if c.Tech == nil {
		return fmt.Errorf("teta: Config.Tech is required")
	}
	if c.DT <= 0 || c.TStop <= 0 {
		return fmt.Errorf("teta: DT and TStop must be positive")
	}
	if c.Order <= 0 {
		c.Order = 4
	}
	if c.SCTol <= 0 {
		c.SCTol = 1e-6
	}
	if c.MaxSC <= 0 {
		c.MaxSC = 500
	}
	return nil
}

// Stage is one logic stage: nonlinear drivers coupled through a (possibly
// variational) multiport linear load. The expensive pieces — driver chord
// systems, the variational ROM library — are built once; each statistical
// sample then costs only a library evaluation, a pole/residue transform
// and a cheap SC transient.
type Stage struct {
	cfg     Config
	drivers []*Driver
	sys     *circuit.VarSystem
	varrom  *mor.VarROM
	varmac  *poleres.VarMacromodel // nil → per-sample extraction fallback
	gout    []float64

	// pool recycles evaluation scratch for the plain Run API; callers that
	// manage workers explicitly thread a NewScratch through RunWith instead.
	pool sync.Pool

	// warm is the primed DC operating point (see PrimeDC). It is written
	// once before sampling starts and only read afterwards, keeping sample
	// evaluation a pure function of (stage, sample) at any worker count.
	warm *dcWarm

	// Setup diagnostics.
	BuildStats BuildStats
}

// dcWarm is a primed DC solution: the Newton warm start used for samples
// whose t=0 input voltages match the primed key exactly.
type dcWarm struct {
	vin0 [][]float64
	vp   []float64
	unk  [][]float64
}

// BuildStats reports one-time characterization work.
type BuildStats struct {
	Ports, LoadNodes, LoadElements int
	ROMOrder                       int
	// VarMacro reports whether the characterize-once variational
	// macromodel was built; when false, VarMacroNote says why samples fall
	// back to per-sample extraction.
	VarMacro     bool
	VarMacroNote string
}

// RunStats reports per-sample simulation work.
type RunStats struct {
	// Steps counts the timesteps executed: TStop/DT for a full-window
	// run, fewer when a RunSpec.Stop horizon ended the transient early.
	Steps        int
	SCIterations int
	// LinearSolves counts the prefactored triangular solves spent in the
	// timestepping SC loop (Norton extraction + internal recovery per
	// driver per iteration) — the cost proxy the parallel runtime's
	// metrics layer aggregates across samples.
	LinearSolves  int
	UnstablePoles int     // poles removed by the stability filter
	BetaMin       float64 // DC correction factors applied
	BetaMax       float64
}

// Result is one stage transient outcome.
type Result struct {
	T     []float64
	PortV [][]float64 // per port
	Stats RunStats
}

// PortWaveform returns the waveform of port p as a PWL.
func (r *Result) PortWaveform(p int) (*circuit.PWL, error) {
	if p < 0 || p >= len(r.PortV) {
		return nil, fmt.Errorf("teta: port %d out of range", p)
	}
	return circuit.NewPWL(r.T, r.PortV[p])
}

// BuildStage characterizes a stage: load is the linear network with its
// ports marked (in port order); drivers attach to ports by index. Ports
// without a driver are observation probes (the paper's "probe line").
func BuildStage(load *circuit.Netlist, drivers []DriverSpec, cfg Config) (*Stage, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	st := &Stage{cfg: cfg}
	sys, err := circuit.AssembleVariational(load)
	if err != nil {
		return nil, fmt.Errorf("teta: load assembly: %w", err)
	}
	if sys.Np == 0 {
		return nil, fmt.Errorf("teta: load has no ports marked")
	}
	st.sys = sys
	st.gout = make([]float64, sys.Np)
	seen := make([]bool, sys.Np)
	for _, spec := range drivers {
		if spec.Port < 0 || spec.Port >= sys.Np {
			return nil, fmt.Errorf("teta: driver %s port %d out of range (%d ports)", spec.Name, spec.Port, sys.Np)
		}
		if seen[spec.Port] {
			return nil, fmt.Errorf("teta: port %d has two drivers", spec.Port)
		}
		seen[spec.Port] = true
		d, err := newDriver(spec, cfg.Tech, cfg.Chord, cfg.DT)
		if err != nil {
			return nil, err
		}
		st.drivers = append(st.drivers, d)
		st.gout[spec.Port] = d.GOut()
	}
	if err := sys.SetPortConductance(st.gout); err != nil {
		return nil, err
	}
	st.varrom, err = mor.BuildVariational(sys, mor.BuildOptions{Order: cfg.Order, Delta: cfg.Delta})
	if err != nil {
		return nil, fmt.Errorf("teta: variational ROM: %w", err)
	}
	stt := load.Stats()
	st.BuildStats = BuildStats{
		Ports: sys.Np, LoadNodes: sys.N, LoadElements: stt.LinearElements,
		ROMOrder: st.varrom.Q,
	}
	// Characterize the variational pole/residue macromodel once — through
	// the cross-run store when one is configured; a near-degenerate
	// nominal spectrum falls back to per-sample extraction.
	if vm, err := extractVarCached(st.varrom, cfg.MacroCache); err == nil {
		st.varmac = vm
		st.BuildStats.VarMacro = true
	} else {
		st.BuildStats.VarMacroNote = err.Error()
	}
	return st, nil
}

// VarROM exposes the characterized library (for the experiment harnesses).
func (st *Stage) VarROM() *mor.VarROM { return st.varrom }

// PortConductances returns the chord output conductances folded into the
// load.
func (st *Stage) PortConductances() []float64 {
	out := make([]float64, len(st.gout))
	copy(out, st.gout)
	return out
}

// RunSpec is one statistical sample plus input stimuli.
type RunSpec struct {
	W       map[string]float64   // wire-parameter sample (variational ROM evaluation)
	DL, DVT float64              // device-parameter deviations for this sample
	Inputs  [][]circuit.Waveform // Inputs[d][k]: waveform at input k of driver d
	// Stop, when set, is the run's measurement horizon: the transient
	// ends once the waveform past it can no longer change what is
	// measured. The zero Stop runs the full TStop window.
	Stop Stop
}

// Stop is a measurement horizon: the step loop ends after the step by
// which every level has had its first crossing of port Port in direction
// Dir (+1 rising, -1 falling; 0 disables the horizon). The crossing test
// is exactly circuit.PWL.CrossTime's, so the recorded waveform is the
// bit-identical prefix of the full-window run and every first crossing
// of the levels — hence MeasureSatRamp at those levels — is unchanged.
// An output that never crosses a level runs the full window.
type Stop struct {
	Port   int
	Dir    int
	Levels [3]float64
}

// horizon tracks a Stop through one run: pending holds one bit per level
// still waiting for its first crossing.
type horizon struct {
	Stop
	pending uint8
}

func newHorizon(s Stop) horizon {
	h := horizon{Stop: s}
	if s.Dir != 0 {
		h.pending = 1<<len(s.Levels) - 1
	}
	return h
}

// reached records the step from v0 to v1 at the stop port and reports
// whether every level has now had its first crossing.
func (h *horizon) reached(v0, v1 float64) bool {
	if h.Dir == 0 {
		return false
	}
	for k, l := range h.Levels {
		if h.Dir > 0 && v0 < l && v1 >= l || h.Dir < 0 && v0 > l && v1 <= l {
			h.pending &^= 1 << k
		}
	}
	return h.pending == 0
}

// Run simulates the stage for one sample (the paper's Table 1
// "Evaluation" steps 1–4). When the variational macromodel is available
// (and Config.ExactExtract is off) the sample is evaluated on the
// characterize-once fast path with pooled scratch; otherwise the library
// is evaluated and the pole/residue form extracted per sample.
func (st *Stage) Run(rs RunSpec) (*Result, error) {
	if err := st.checkInputs(rs); err != nil {
		return nil, err
	}
	if st.varmac == nil || st.cfg.ExactExtract {
		// Evaluate the variational library and stabilize.
		rom := st.varrom.At(rs.W)
		return st.runROM(rom, rs)
	}
	sc := st.getScratch()
	res, err := st.runFast(sc, rs)
	if res != nil {
		// The fast path's Result is backed by the scratch; detach a copy
		// before the scratch returns to the pool and another goroutine
		// may overwrite it.
		res = res.detach()
	}
	st.pool.Put(sc)
	return res, err
}

// detach deep-copies a scratch-backed result so it outlives the scratch
// that produced it.
func (r *Result) detach() *Result {
	out := &Result{
		T:     append([]float64(nil), r.T...),
		PortV: make([][]float64, len(r.PortV)),
		Stats: r.Stats,
	}
	for i, v := range r.PortV {
		out.PortV[i] = append([]float64(nil), v...)
	}
	return out
}

// RunWith is Run with a caller-owned evaluation scratch (NewScratch),
// letting a worker loop evaluate many samples with zero steady-state
// allocation. On the fast path the returned Result's waveform arrays are
// backed by the scratch and remain valid only until the next RunWith
// with the same scratch — consume (or copy) the result before reusing
// the scratch. A nil scratch behaves like Run, whose results are always
// caller-owned.
func (st *Stage) RunWith(sc *Scratch, rs RunSpec) (*Result, error) {
	if sc == nil {
		return st.Run(rs)
	}
	if err := st.checkInputs(rs); err != nil {
		return nil, err
	}
	if st.varmac == nil || st.cfg.ExactExtract {
		rom := st.varrom.At(rs.W)
		return st.runROM(rom, rs)
	}
	return st.runFast(sc, rs)
}

func (st *Stage) checkInputs(rs RunSpec) error {
	if rs.Stop.Dir != 0 && (rs.Stop.Port < 0 || rs.Stop.Port >= st.sys.Np) {
		return fmt.Errorf("teta: stop port %d out of range (%d ports)", rs.Stop.Port, st.sys.Np)
	}
	if len(rs.Inputs) != len(st.drivers) {
		return fmt.Errorf("teta: got %d input bundles for %d drivers", len(rs.Inputs), len(st.drivers))
	}
	for di, d := range st.drivers {
		if len(rs.Inputs[di]) != d.nIn {
			return fmt.Errorf("teta: driver %s needs %d inputs, got %d", d.Name, d.nIn, len(rs.Inputs[di]))
		}
	}
	return nil
}

func (st *Stage) getScratch() *Scratch {
	if v := st.pool.Get(); v != nil {
		return v.(*Scratch)
	}
	return st.NewScratch()
}

// RunExact evaluates one sample through the per-sample extraction path —
// variational library evaluation followed by a full pole/residue
// extraction (dense LU + eigendecomposition), exactly what
// Config.ExactExtract forces for every sample — regardless of whether the
// characterize-once macromodel is available. It is the degradation rung
// for samples whose fast-path evaluation fails (e.g. a singular Gr(w) in
// the macromodel's DC correction): the exact extraction does not share
// the macromodel's first-order truncation, so it can succeed where the
// fast path cannot.
func (st *Stage) RunExact(rs RunSpec) (*Result, error) {
	if err := st.checkInputs(rs); err != nil {
		return nil, err
	}
	return st.runROM(st.varrom.At(rs.W), rs)
}

// RunDirect recharacterizes the ROM exactly at the sample (full
// re-reduction with exact element values) and simulates — the accuracy
// reference used by the Example-2 histogram comparison.
func (st *Stage) RunDirect(rs RunSpec) (*Result, error) {
	if err := st.checkInputs(rs); err != nil {
		return nil, err
	}
	g, err := st.sys.ExactG(rs.W)
	if err != nil {
		return nil, err
	}
	c := st.sys.ExactC(rs.W)
	rom, err := mor.Reduce(g, c, st.sys.Np, st.cfg.Order)
	if err != nil {
		return nil, err
	}
	return st.runROM(rom, rs)
}

func (st *Stage) runROM(rom *mor.ROM, rs RunSpec) (*Result, error) {
	pr, err := poleres.Extract(rom)
	if err != nil {
		return nil, err
	}
	stats := RunStats{BetaMin: 1, BetaMax: 1}
	if !st.cfg.NoStab {
		var rep poleres.StabReport
		if st.cfg.UseBetaStab {
			pr, rep = pr.Stabilize()
		} else {
			pr, rep = pr.StabilizeShift()
		}
		stats.UnstablePoles = len(rep.Removed)
		stats.BetaMin, stats.BetaMax = rep.BetaMin, rep.BetaMax
		if len(pr.Poles) == 0 && stats.UnstablePoles > 0 {
			return nil, fmt.Errorf("%w (%d poles removed at this sample)", poleres.ErrAllPolesUnstable, stats.UnstablePoles)
		}
	}
	cv, err := poleres.NewConvolver(pr, st.cfg.DT)
	if err != nil {
		return nil, err
	}
	np := rom.Np
	res := &Result{PortV: make([][]float64, np)}

	// DC initialization: quasi-static SC fixed point at t=0.
	zdc := pr.DCZ()
	vp := make([]float64, np)
	iN := make([]float64, np)
	vin0 := make([][]float64, len(st.drivers))
	for di, d := range st.drivers {
		vin0[di] = make([]float64, d.nIn)
		for k, w := range rs.Inputs[di] {
			vin0[di][k] = w.At(0)
		}
	}
	unk := make([][]float64, len(st.drivers))
	states := make([]*driverState, len(st.drivers))
	for di, d := range st.drivers {
		unk[di] = make([]float64, d.nUnk)
		states[di] = d.newState(rs.DL, rs.DVT)
	}
	if err := st.dcInit(zdc, vp, iN, vin0, unk, states); err != nil {
		return nil, err
	}
	cv.InitDC(iN)
	for di, d := range st.drivers {
		d.commit(unk[di], vp[d.Port], vin0[di], states[di])
	}
	record := func(t float64, v []float64) {
		res.T = append(res.T, t)
		for p := 0; p < np; p++ {
			res.PortV[p] = append(res.PortV[p], v[p])
		}
	}
	record(0, vp)

	h := st.cfg.DT
	nSteps := int(st.cfg.TStop/h + 0.5)
	zeff := cv.EffZ()
	// Each SC iteration resolves the prefactored interconnect macromodel
	// once (the Zeff apply below) plus two prefactored triangular solves
	// per driver with internal unknowns (Norton extraction + internal
	// recovery); drivers reduced to a single output unknown add nothing.
	solvesPerIter := 1
	for _, d := range st.drivers {
		if d.nUnk > 1 {
			solvesPerIter += 2
		}
	}
	vinNow := make([][]float64, len(st.drivers))
	for di := range st.drivers {
		vinNow[di] = make([]float64, len(vin0[di]))
	}
	hist := make([]float64, np)
	stop := newHorizon(rs.Stop)
	for step := 1; step <= nSteps; step++ {
		t := float64(step) * h
		for di, d := range st.drivers {
			for k, w := range rs.Inputs[di] {
				vinNow[di][k] = w.At(t)
			}
			// Start iteration from the committed state.
			copy(unk[di][:d.outIdx], states[di].vInt)
			unk[di][d.outIdx] = states[di].vOut
		}
		cv.HistoryInto(hist)
		converged := false
		for it := 0; it < st.cfg.MaxSC; it++ {
			stats.SCIterations++
			stats.LinearSolves += solvesPerIter
			for di, d := range st.drivers {
				b := d.rhs(unk[di], vinNow[di], false, states[di])
				iN[d.Port] = d.norton(b, false)
			}
			delta := 0.0
			for p := 0; p < np; p++ {
				vNew := hist[p]
				for q := 0; q < np; q++ {
					vNew += zeff.At(p, q) * iN[q]
				}
				delta = math.Max(delta, math.Abs(vNew-vp[p]))
				vp[p] = vNew
			}
			for di, d := range st.drivers {
				b := d.rhs(unk[di], vinNow[di], false, states[di])
				vi := d.internals(b, vp[d.Port], false)
				copy(unk[di][:d.outIdx], vi)
				unk[di][d.outIdx] = vp[d.Port]
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
		cv.Advance(iN)
		for di, d := range st.drivers {
			d.commit(unk[di], vp[d.Port], vinNow[di], states[di])
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

// dcInit solves the t=0 quasi-static operating point, filling vp (port
// voltages), iN (Norton currents) and the drivers' unknown vectors. The
// DC load can be capacitively open (Z(0) large), where plain SC iteration
// stalls; a small Newton on the port residual r(vp) = vp − Zdc·I_N(vp) is
// robust and only runs once per sample. The load carries the *transient*
// chord conductance G_out (it includes the C/h companions, as the paper
// notes G_out depends on the timestep resolution); at DC the driver
// supplies no capacitive current, so the current into the effective load
// is the DC Norton source plus the conductance difference times the port
// voltage.
func (st *Stage) dcInit(zdc *mat.Dense, vp, iN []float64, vin0, unk [][]float64, states []*driverState) error {
	np := len(vp)
	evalNorton := func(vpTry []float64) []float64 {
		out := make([]float64, np)
		for di, d := range st.drivers {
			u := unk[di]
			u[d.outIdx] = vpTry[d.Port]
			// Settle the internal chord system to a fixed point so the
			// Norton current is a well-defined function of the port
			// voltage (one pass is not idempotent for stacked drivers).
			var b []float64
			for inner := 0; inner < 100; inner++ {
				b = d.rhs(u, vin0[di], true, states[di])
				vi := d.internals(b, vpTry[d.Port], true)
				delta := 0.0
				for k, v := range vi {
					delta = math.Max(delta, math.Abs(v-u[k]))
					u[k] = v
				}
				if delta < 0.1*st.cfg.SCTol {
					break
				}
			}
			b = d.rhs(u, vin0[di], true, states[di])
			out[d.Port] = d.norton(b, true) + (d.gOut-d.dcGOut)*vpTry[d.Port]
		}
		return out
	}
	// Damped Newton from the current vp/unk contents.
	newton := func() bool {
		for it := 0; it < 100; it++ {
			iNorton := evalNorton(vp)
			r := make([]float64, np)
			resid := 0.0
			zin := mat.MulVec(zdc, iNorton)
			for p := 0; p < np; p++ {
				r[p] = vp[p] - zin[p]
				resid = math.Max(resid, math.Abs(r[p]))
			}
			copy(iN, iNorton)
			if resid < st.cfg.SCTol {
				return true
			}
			// Jacobian J = I − Zdc·diag(dI_N/dv) by finite difference.
			const fd = 1e-4
			dIdv := make([]float64, np)
			for p := 0; p < np; p++ {
				vpP := make([]float64, np)
				copy(vpP, vp)
				vpP[p] += fd
				iP := evalNorton(vpP)
				dIdv[p] = (iP[p] - iNorton[p]) / fd
			}
			j := mat.Identity(np)
			for p := 0; p < np; p++ {
				for q := 0; q < np; q++ {
					j.Add(p, q, -zdc.At(p, q)*dIdv[q])
				}
			}
			dv, err := mat.Solve(j, r)
			if err != nil {
				return false
			}
			// Damp the update: near cutoff the port residual can have a
			// near-zero slope and a full Newton step overshoots far
			// outside the supply range.
			clamp := 0.4 * st.cfg.Tech.VDD
			for p := 0; p < np; p++ {
				step := dv[p]
				if step > clamp {
					step = clamp
				} else if step < -clamp {
					step = -clamp
				}
				vp[p] -= step
			}
		}
		return false
	}
	dcOK := false
	// A primed DC solution whose t=0 inputs match this sample exactly is
	// the best possible start: the sample's operating point differs only
	// through its parameter deviations, so Newton typically converges in a
	// couple of iterations. The warm start is a pure function of
	// (stage, sample), keeping results independent of worker scheduling;
	// on failure the standard start sequence runs unchanged.
	if w := st.warm; w != nil && vinEqual(w.vin0, vin0) {
		copy(vp, w.vp)
		for di := range unk {
			copy(unk[di], w.unk[di])
		}
		dcOK = newton()
	}
	if !dcOK {
		// Multiple starting points: digital driver outputs sit near a
		// rail, so if the iteration limit-cycles from one start it almost
		// always converges from another.
		for _, start := range []float64{0, st.cfg.Tech.VDD, 0.5 * st.cfg.Tech.VDD, 0.25 * st.cfg.Tech.VDD, 0.75 * st.cfg.Tech.VDD} {
			for p := range vp {
				vp[p] = start
			}
			for di := range st.drivers {
				for k := range unk[di] {
					unk[di][k] = start
				}
			}
			if newton() {
				dcOK = true
				break
			}
		}
	}
	if !dcOK {
		return ErrDCNewtonFailed
	}
	// Settle internals at the final port voltages.
	for di, d := range st.drivers {
		u := unk[di]
		u[d.outIdx] = vp[d.Port]
		b := d.rhs(u, vin0[di], true, states[di])
		vi := d.internals(b, vp[d.Port], true)
		copy(u[:d.outIdx], vi)
	}
	return nil
}

// vinEqual reports exact equality of two per-driver input-voltage sets.
func vinEqual(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for k := range a[i] {
			if a[i][k] != b[i][k] {
				return false
			}
		}
	}
	return true
}

// PrimeDC solves the stage's DC operating point once, at nominal
// parameters, for the given input stimuli, and stores it as the Newton
// warm start for every subsequent sample whose t=0 input voltages match
// exactly. Call it after BuildStage and before sampling starts (it must
// not race with Run). Chains prime their first stage automatically; later
// stages see sample-dependent input waveforms and keep the standard
// multi-start Newton.
func (st *Stage) PrimeDC(inputs [][]circuit.Waveform) error {
	if len(inputs) != len(st.drivers) {
		return fmt.Errorf("teta: got %d input bundles for %d drivers", len(inputs), len(st.drivers))
	}
	for di, d := range st.drivers {
		if len(inputs[di]) != d.nIn {
			return fmt.Errorf("teta: driver %s needs %d inputs, got %d", d.Name, d.nIn, len(inputs[di]))
		}
	}
	var pr *poleres.Macromodel
	if st.varmac != nil {
		var err error
		pr, err = st.varmac.At(nil)
		if err != nil {
			// The nominal Gr was factored during characterization, so this
			// cannot happen in practice; report it rather than crash.
			return fmt.Errorf("teta: PrimeDC nominal evaluation: %w", err)
		}
	} else {
		var err error
		pr, err = poleres.Extract(st.varrom.Nominal())
		if err != nil {
			return err
		}
	}
	if !st.cfg.NoStab {
		if st.cfg.UseBetaStab {
			pr, _ = pr.Stabilize()
		} else {
			pr, _ = pr.StabilizeShift()
		}
	}
	np := st.sys.Np
	w := &dcWarm{
		vin0: make([][]float64, len(st.drivers)),
		vp:   make([]float64, np),
		unk:  make([][]float64, len(st.drivers)),
	}
	iN := make([]float64, np)
	states := make([]*driverState, len(st.drivers))
	for di, d := range st.drivers {
		w.vin0[di] = make([]float64, d.nIn)
		for k, wf := range inputs[di] {
			w.vin0[di][k] = wf.At(0)
		}
		w.unk[di] = make([]float64, d.nUnk)
		states[di] = d.newState(0, 0)
	}
	st.warm = nil // prime from the standard start sequence
	if err := st.dcInit(pr.DCZ(), w.vp, iN, w.vin0, w.unk, states); err != nil {
		return fmt.Errorf("teta: PrimeDC: %w", err)
	}
	st.warm = w
	return nil
}
