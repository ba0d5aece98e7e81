package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"lcsim/internal/runner"
	"lcsim/internal/stat"
	"lcsim/internal/teta"
)

// ISConfig configures importance-sampled timing-yield estimation: a
// mean-shifted Monte-Carlo sweep whose proposal density is aimed at the
// failure boundary of a delay budget, following the ISLE recipe
// (Bayrakci, Demir & Tasiran) on top of this framework's cheap
// per-sample evaluation. The embedded RunConfig carries the execution
// policy shared with every other statistical driver (Seed, Workers,
// OnFailure, Engine/Ladder, Checkpoint, SampleTimeout, ...).
//
// The proposal is built from one GradientAnalysis: with per-source
// sensitivities g_l and sigmas σ_l, the minimum-norm mean shift that
// centers the first-order delay model on the budget B is
//
//	μ_l = σ_l² g_l (B − mean) / Σ_k σ_k² g_k²
//
// scaled by ShiftScale, and the shifted component samples each source
// from N(μ_l, SigmaInflate·σ_l). The full proposal is the defensive
// mixture q = DefensiveMix·f + (1−DefensiveMix)·q_shifted (Hesterberg's
// defensive importance sampling), which bounds every likelihood ratio
// by 1/DefensiveMix. Every evaluated delay is weighted by f(x)/q(x), so
// the self-normalized estimate is consistent for the true failure
// probability while the samples land where the failures are.
type ISConfig struct {
	RunConfig

	// N is the base sample count: the first round evaluates indices
	// [0, N). With TargetCI set, subsequent rounds double the total
	// (deterministic boundaries N, 2N, 4N, ... capped at MaxN) until the
	// CI half-width reaches the target.
	N int
	// Sources are the variation sources. Importance sampling needs the
	// target density in closed form, so every source must use its
	// default zero-mean normal (Source.Dist == nil).
	Sources []Source
	// Budget is the absolute delay budget (seconds). When zero,
	// BudgetSigma positions the budget at GA.Mean + BudgetSigma·GA.Std.
	Budget      float64
	BudgetSigma float64
	// Sampler selects the unit-cube plan for the shifted draw. The zero
	// value resolves to SamplerPseudo (not LHS: an LHS plan couples all
	// N rows, which is incompatible with open-ended round growth, so
	// SamplerLHS is rejected). SamplerHalton is also accepted; both are
	// pure per-index functions.
	Sampler Sampler
	// ShiftScale scales the minimum-norm boundary shift (default 1 —
	// the proposal mean sits exactly on the first-order failure
	// boundary). Values < 1 shift conservatively short of it.
	ShiftScale float64
	// SigmaInflate widens the shifted component's sigmas by this factor
	// (default 1.2) as a hedge against GA misestimating the failure
	// boundary. Values < 1 are rejected (a component narrower than the
	// target makes its likelihood ratio unbounded in the tails). Keep
	// the inflation mild: the DefensiveMix component already bounds the
	// weights, and heavy inflation spreads the failure-region weights
	// over orders of magnitude, collapsing the effective failure count
	// — empirically the measured evaluation reduction peaks near 1.0–1.2
	// and halves by 2.0.
	SigmaInflate float64
	// DefensiveMix is the defensive-mixture fraction λ: the proposal
	// becomes q = λ·f + (1−λ)·q_shifted, drawing that fraction of the
	// samples from the unshifted target density itself. A defensive
	// component bounds every likelihood ratio by 1/λ — without it, rare
	// draws near the nominal point carry weights that grow exponentially
	// with the source count and collapse the effective sample size. The
	// zero value means the default 0.1; negative disables the mixture
	// (pure shifted proposal); values ≥ 1 are rejected.
	DefensiveMix float64
	// TargetCI, when positive, grows the run by round-doubling until the
	// 95% CI half-width of the failure probability is ≤ TargetCI (or
	// MaxN is reached). Rounds end at deterministic boundaries, so a
	// killed and resumed adaptive run reproduces the uninterrupted
	// result bit for bit.
	TargetCI float64
	// MaxN caps adaptive growth (default 64·N when TargetCI is set).
	MaxN int
	// GA, when non-nil, reuses a previously computed gradient analysis
	// (it must come from the same path, sources and engine); when nil
	// the driver runs GradientAnalysis itself and charges its cost to
	// the result's evaluation accounting.
	GA *GAResult

	// injectFault mirrors MCConfig.injectFault (test hook).
	injectFault func(i int) error
}

// ISResult holds the importance-sampled yield outcome.
type ISResult struct {
	// Budget is the absolute delay budget; BudgetSigma its position in
	// GA sigmas, (Budget − GA.Mean)/GA.Std.
	Budget      float64
	BudgetSigma float64
	// GA is the gradient analysis behind the proposal; GAYield the
	// analytic first-order yield Φ(BudgetSigma) for comparison.
	GA      *GAResult
	GAYield float64
	// Shift is the proposal mean shift per source (natural units,
	// aligned with Sources); SigmaInflate the applied σ-inflation and
	// DefensiveMix the applied mixture fraction λ.
	Shift        []float64
	SigmaInflate float64
	DefensiveMix float64

	// FailProb is the self-normalized estimate of P(delay > Budget);
	// Yield = 1 − FailProb. StdErr is its standard error and CIHalf the
	// 95% half-width (1.96·StdErr).
	FailProb float64
	Yield    float64
	StdErr   float64
	CIHalf   float64
	// ESS is the effective sample size (Σw)²/Σw² of the weighted
	// stream; FailESS the effective number of failures (Σwh)²/Σw²h —
	// the number that must be ≳30 before the Gaussian CI is
	// trustworthy. Fails counts raw failing samples.
	ESS     float64
	FailESS float64
	Fails   int

	// N is the number of delivered (aggregated) samples; Evals the
	// number of attempted IS sample evaluations (N plus skips);
	// NonFinite counts delivered samples rejected for a non-finite
	// delay or weight.
	N         int
	Evals     int
	NonFinite int
	// Weighted summarizes the importance-weighted delay distribution —
	// an estimate of the true delay distribution with tail samples at
	// far higher resolution than plain MC at the same cost.
	Weighted stat.Summary

	// EvalsTotal is the total path-evaluation-equivalent cost: IS
	// evaluations plus the GA stage simulations divided by the path's
	// stage count. MCEvalsForCI is the plain-MC sample count that would
	// reach the same CI half-width, p(1−p)(1.96/CIHalf)²; EvalReduction
	// is their ratio (the headline evaluation-count reduction) and
	// VarReduction the per-sample variance-reduction factor
	// [p(1−p)/N] / StdErr².
	EvalsTotal    float64
	MCEvalsForCI  float64
	EvalReduction float64
	VarReduction  float64

	// TotalSC and Failures mirror MCResult: successive-chord cost and
	// the per-sample failures handled by the Skip/Degrade policies.
	TotalSC  int
	Failures FailureReport
}

// ErrNoSensitivity reports a gradient analysis whose sensitivities are
// all zero: the proposal cannot be aimed at a failure boundary the
// first-order model cannot see.
var ErrNoSensitivity = errors.New("core: all GA sensitivities are zero; cannot aim the IS proposal")

// isSolveShift computes the minimum-norm mean shift that puts the
// first-order delay model on the budget: in the whitened space x_l/σ_l
// the boundary {Σ g_l x_l = B − mean} is a hyperplane, and the closest
// point to the origin is reached by shifting each source by
// σ_l²g_l(B−mean)/Σσ_k²g_k². Distance-to-origin in sigmas is |β| with
// β = (B − mean)/σ_GA — the budget's GA z-score — so the proposal
// centers the draw β sigmas out along the most failure-efficient
// direction.
func isSolveShift(sources []Source, ga *GAResult, budget, scale float64) ([]float64, error) {
	sg2 := 0.0
	for _, s := range sources {
		g := ga.Sensitivity[s.Name]
		sg2 += s.Sigma * s.Sigma * g * g
	}
	if sg2 <= 0 {
		return nil, ErrNoSensitivity
	}
	shift := make([]float64, len(sources))
	for l, s := range sources {
		g := ga.Sensitivity[s.Name]
		shift[l] = scale * s.Sigma * s.Sigma * g * (budget - ga.Mean) / sg2
	}
	return shift, nil
}

// isRowGen returns the deterministic per-index generator of proposal
// sample rows: unit draw 0 selects the mixture component (< mix → the
// unshifted target component), draws 1..d map through that component's
// per-source quantiles. Unlike rowGen, every plan here is a pure
// function of the sample index alone — never of the total sample count
// — because an adaptive run grows N between rounds and a resumed run
// must regenerate identical rows for any prefix.
func isRowGen(seed int64, sampler Sampler, mix float64, target, proposal []stat.Dist) func(i int) []float64 {
	d := len(proposal)
	return func(i int) []float64 {
		u := make([]float64, d+1)
		switch sampler {
		case SamplerHalton:
			for j := range u {
				u[j] = stat.HaltonAt(i, j)
			}
		default: // SamplerPseudo
			rng := stat.NewRNG(runner.IndexSeed(seed, i))
			for j := range u {
				v := rng.Float64()
				if v == 0 {
					v = 0x1p-53 // smallest representable draw; N-independent
				}
				u[j] = v
			}
		}
		dists := proposal
		if u[0] < mix {
			dists = target
		}
		row := make([]float64, d)
		for j := range row {
			row[j] = dists[j].Quantile(u[j+1])
		}
		return row
	}
}

// sampler resolves the Sampler field: the zero value means pseudo (the
// IS default differs from plain MC's LHS — see ISConfig.Sampler).
func (cfg ISConfig) sampler() (Sampler, error) {
	switch cfg.Sampler {
	case SamplerDefault, SamplerPseudo:
		return SamplerPseudo, nil
	case SamplerHalton:
		return SamplerHalton, nil
	default:
		return SamplerDefault, fmt.Errorf("core: importance sampling cannot use the LHS sampler (an LHS plan couples all N rows; adaptive growth and resume need per-index plans) — use pseudo or halton")
	}
}

// ImportanceYieldCtx estimates the timing yield at a delay budget by
// importance sampling: one GradientAnalysis aims a mean-shifted Gaussian
// proposal at the failure boundary, the shifted samples are evaluated
// through the sampling Kernel (engine ladder, OnFailure policy,
// watchdog and checkpointing all apply exactly as in MonteCarloCtx), and
// each delay is weighted by the Gaussian likelihood ratio. For tail
// budgets (≥3σ) this reaches a given CI half-width at orders of
// magnitude fewer engine evaluations than plain MC, because nearly half
// the shifted samples land in the failure region instead of a
// ppm-fraction of them.
//
// The run is reproducible: for a fixed Seed the result is bit-identical
// at any Workers/BatchSize setting, and a checkpointed run that is
// killed and resumed — even mid-round of an adaptive TargetCI run —
// reproduces the uninterrupted result bit for bit.
func (p *Path) ImportanceYieldCtx(ctx context.Context, cfg ISConfig) (*ISResult, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("core: importance sampling needs N > 0")
	}
	if len(cfg.Sources) == 0 {
		return nil, fmt.Errorf("core: importance sampling needs at least one source")
	}
	for _, s := range cfg.Sources {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		if s.Dist != nil {
			return nil, fmt.Errorf("core: importance sampling needs the closed-form normal target density, but source %q has a custom distribution", s.Name)
		}
	}
	sampler, err := cfg.sampler()
	if err != nil {
		return nil, err
	}
	inflate := cfg.SigmaInflate
	if inflate == 0 {
		inflate = 1.2
	}
	if inflate < 1 {
		return nil, fmt.Errorf("core: SigmaInflate must be >= 1 (got %g): a proposal narrower than the target makes the likelihood ratio unbounded in the tails", inflate)
	}
	scale := cfg.ShiftScale
	if scale == 0 {
		scale = 1
	}
	if scale < 0 {
		return nil, fmt.Errorf("core: ShiftScale must be > 0, got %g", scale)
	}
	mix := cfg.DefensiveMix
	switch {
	case mix == 0:
		mix = 0.1
	case mix < 0:
		mix = 0 // pure shifted proposal, explicitly requested
	case mix >= 1:
		return nil, fmt.Errorf("core: DefensiveMix must be < 1, got %g (1 would sample only the target — plain MC)", mix)
	}

	// One gradient analysis aims the proposal (and doubles as the
	// analytic GA yield for cross-checking).
	ga := cfg.GA
	if ga == nil {
		ga, err = p.GradientAnalysis(GAConfig{Sources: cfg.Sources, Engine: cfg.Engine, Metrics: cfg.Metrics})
		if err != nil {
			return nil, err
		}
	}
	budget := cfg.Budget
	if budget == 0 {
		if cfg.BudgetSigma == 0 {
			return nil, fmt.Errorf("core: set ISConfig.Budget (seconds) or ISConfig.BudgetSigma (sigmas above the GA mean)")
		}
		if ga.Std <= 0 {
			return nil, fmt.Errorf("core: BudgetSigma needs GA.Std > 0 (got %g); give an absolute Budget instead", ga.Std)
		}
		budget = ga.Mean + cfg.BudgetSigma*ga.Std
	}
	shift, err := isSolveShift(cfg.Sources, ga, budget, scale)
	if err != nil {
		return nil, err
	}

	maxN := cfg.MaxN
	if maxN <= 0 {
		maxN = cfg.N
		if cfg.TargetCI > 0 {
			maxN = 64 * cfg.N
		}
	}
	if maxN < cfg.N {
		maxN = cfg.N
	}

	// The proposal is the defensive mixture q = λ·f + (1−λ)·q_s with the
	// shifted component q_s,l = N(μ_l, inflate·σ_l) per source. The
	// likelihood ratio is computed through the shifted component's
	// log-ratio against the target, log(q_s/f) = Σ_l [ −log s −
	// (x−μ)²/(2s²σ²) + x²/(2σ²) ], so
	//
	//	w = f/q = 1 / (λ + (1−λ)·exp(log(q_s/f)))
	//
	// which degrades gracefully at both extremes: exp overflow (a draw
	// where q_s dominates f astronomically) gives w = 0, exp underflow
	// gives the defensive bound w = 1/λ.
	target := make([]stat.Dist, len(cfg.Sources))
	props := make([]stat.Dist, len(cfg.Sources))
	for l, s := range cfg.Sources {
		target[l] = stat.Normal{Sigma: s.Sigma}
		props[l] = stat.Normal{Mean: shift[l], Sigma: inflate * s.Sigma}
	}
	logS := math.Log(inflate)
	weight := func(sv []float64) float64 {
		lr := 0.0 // log(q_s(x)/f(x))
		for l, s := range cfg.Sources {
			x := sv[l]
			d := x - shift[l]
			s2 := s.Sigma * s.Sigma
			lr += x*x/(2*s2) - d*d/(2*inflate*inflate*s2) - logS
		}
		if mix <= 0 {
			return math.Exp(-lr)
		}
		return 1 / (mix + (1-mix)*math.Exp(lr))
	}
	row := isRowGen(cfg.Seed, sampler, mix, target, props)

	res := &ISResult{
		Budget:       budget,
		GA:           ga,
		Shift:        shift,
		SigmaInflate: inflate,
		DefensiveMix: mix,
		Failures:     FailureReport{Policy: cfg.OnFailure},
	}
	if ga.Std > 0 {
		res.BudgetSigma = (budget - ga.Mean) / ga.Std
		res.GAYield = 0.5 * math.Erfc(-res.BudgetSigma/math.Sqrt2)
	}

	est := &stat.ISEstimator{}
	weighted := stat.NewWeightedSummary()

	// Durable journal: the fingerprint additionally pins the proposal
	// (budget, shift hash, inflation, adaptive plan) — resuming under a
	// changed proposal would mix likelihood ratios from two densities.
	fp := isFingerprint(cfg, sampler, sourcesHash(cfg.Sources),
		isProposal(budget, inflate, scale, mix, cfg.TargetCI, maxN, shift))
	kern, err := NewKernel(cfg.RunConfig, []*Path{p}, Driver[mcEval]{
		Sample: pathSample(row, func(sv []float64) (teta.RunSpec, error) {
			return BuildRunSpec(cfg.Sources, sv), nil
		}),
		Add: func(_ int, v mcEval) {
			w := weight(v.sample)
			if math.IsNaN(v.delay) || math.IsInf(v.delay, 0) {
				// A non-finite delay is rejected and counted, like the
				// plain-MC stream does: poison the weight so both
				// accumulators route it to their rejection counters.
				w = math.NaN()
			}
			est.Add(w, v.delay > budget)
			weighted.Add(v.delay, w)
			res.TotalSC += v.sc
		},
		Failures:    &res.Failures,
		Fingerprint: fp,
		Save: func(_ int, m runner.Snapshot) any {
			return isPayload{
				Est:      est.State(),
				Weighted: weighted.State(),
				TotalSC:  res.TotalSC,
				Failures: res.Failures,
				Metrics:  m,
			}
		},
		Restore: func(_ int, decode func(any) error) (runner.Snapshot, error) {
			var st isPayload
			if err := decode(&st); err != nil {
				return runner.Snapshot{}, err
			}
			est.Restore(st.Est)
			weighted.Restore(st.Weighted)
			res.TotalSC = st.TotalSC
			res.Failures = st.Failures
			return st.Metrics, nil
		},
		injectFault: cfg.injectFault,
	})
	if err != nil {
		return nil, err
	}

	// The sweep: one kernel run per round, rounds ending at the
	// deterministic boundaries min(N·2^k, MaxN). A resumed run replays
	// the boundary schedule past its restored prefix, so the round in
	// progress at the kill finishes before the stop rule is evaluated
	// again — the stop decision is a pure function of the prefix
	// statistics at a boundary, which makes kill/resume (and a chain of
	// Checkpoint.Limit shards) bit-identical even for adaptive runs.
	total := cfg.N
	for total < kern.next {
		total = nextRound(total, maxN)
	}
	for {
		if err := kern.Run(ctx, total); err != nil {
			return nil, err
		}
		if total >= maxN || cfg.TargetCI <= 0 {
			break
		}
		if est.Fails() > 0 && 1.96*est.StdErr() <= cfg.TargetCI {
			break
		}
		total = nextRound(total, maxN)
	}

	p0 := est.Prob()
	se := est.StdErr()
	res.FailProb = p0
	res.Yield = 1 - p0
	res.StdErr = se
	res.CIHalf = 1.96 * se
	res.ESS = est.ESS()
	res.FailESS = est.FailESS()
	res.Fails = est.Fails()
	res.N = est.N()
	res.Evals = total
	res.NonFinite = est.Rejected()
	res.Weighted = weighted.Summary()

	// Cost accounting in path-evaluation equivalents: the GA overhead is
	// its stage simulations divided by the stage count.
	stages := len(p.Stages)
	if stages < 1 {
		stages = 1
	}
	res.EvalsTotal = float64(total) + float64(ga.Simulations)/float64(stages)
	if p0 > 0 && p0 < 1 && se > 0 {
		z := 1.96 / res.CIHalf
		res.MCEvalsForCI = p0 * (1 - p0) * z * z
		res.EvalReduction = res.MCEvalsForCI / res.EvalsTotal
		res.VarReduction = (p0 * (1 - p0) / float64(est.N())) / (se * se)
	}
	return res, nil
}

// nextRound advances an adaptive run to the next deterministic round
// boundary: double, capped at maxN.
func nextRound(total, maxN int) int {
	total *= 2
	if total > maxN {
		total = maxN
	}
	return total
}
