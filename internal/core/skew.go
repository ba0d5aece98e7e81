package core

import (
	"context"
	"fmt"
	"math"
	"strings"

	"lcsim/internal/checkpoint"
	"lcsim/internal/runner"
	"lcsim/internal/stat"
	"lcsim/internal/teta"
)

// PathPair analyzes the arrival-time difference (skew) between two paths
// launched from the same point — the clock-distribution application of
// the variational interconnect models (the paper's refs. [2], [3]).
// Shared sources (e.g. global wire geometry) move both branches
// coherently and largely cancel in the skew; independent sources (local
// device variations) are drawn separately per branch and add in
// quadrature.
type PathPair struct {
	A, B *Path
	// Shared sources apply the same sampled value to both branches.
	Shared []Source
	// IndependentA/B are drawn separately for each branch.
	IndependentA []Source
	IndependentB []Source
}

// SkewConfig configures Monte-Carlo skew analysis. The embedded
// RunConfig carries the execution policy shared with MCConfig (Seed,
// Workers, BatchSize, Metrics, Progress, OnFailure, Engine, Ladder,
// Checkpoint, SampleTimeout); a skipped sample drops BOTH branch
// arrivals, keeping the skew pairing aligned, and the Degrade ladder
// walks engines both branches can build, paired by name.
type SkewConfig struct {
	RunConfig

	N int
}

// SkewResult holds the Monte-Carlo skew outcome.
type SkewResult struct {
	Skews    []float64 // arrival(A) − arrival(B), per sample
	ArrivalA stat.Summary
	ArrivalB stat.Summary
	Skew     stat.Summary
	// RSS is the root-sum-square of the branch σs, the spread an analysis
	// that ignores shared-source correlation would predict.
	RSS float64
	// Failures reports per-sample failures handled by the Skip/Degrade
	// policies; skipped samples appear in neither branch's statistics.
	Failures FailureReport
}

// pairDelay carries both branch arrivals for one sample.
type pairDelay struct{ a, b float64 }

// MonteCarloSkewCtx samples the pair jointly on the sampling Kernel:
// shared values are reused across branches, independent values drawn per
// branch. Results are bit-identical at any worker count for a fixed Seed.
func (pp *PathPair) MonteCarloSkewCtx(ctx context.Context, cfg SkewConfig) (*SkewResult, error) {
	if pp.A == nil || pp.B == nil {
		return nil, fmt.Errorf("core: PathPair needs both paths")
	}
	if cfg.N <= 0 {
		return nil, fmt.Errorf("core: skew MC needs n > 0")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	for _, group := range [][]Source{pp.Shared, pp.IndependentA, pp.IndependentB} {
		for _, s := range group {
			if err := s.Validate(); err != nil {
				return nil, err
			}
		}
	}
	dim := len(pp.Shared) + len(pp.IndependentA) + len(pp.IndependentB)
	if dim == 0 {
		return nil, fmt.Errorf("core: skew MC needs at least one source")
	}
	cube := stat.LatinHypercube(stat.NewRNG(cfg.Seed), cfg.N, dim)
	dists := make([]stat.Dist, 0, dim)
	for _, group := range [][]Source{pp.Shared, pp.IndependentA, pp.IndependentB} {
		for _, s := range group {
			dists = append(dists, s.dist())
		}
	}
	samples := stat.SamplePlan(cube, dists)

	res := &SkewResult{Skews: make([]float64, 0, cfg.N), Failures: FailureReport{Policy: cfg.OnFailure}}
	as := make([]float64, 0, cfg.N)
	bs := make([]float64, 0, cfg.N)

	// The journal payload is the delivered prefix of both branch arrival
	// lists plus the failure/cost counters (see MCConfig.Checkpoint for
	// the resume semantics).
	fp := checkpoint.Fingerprint{
		Kind:    "skew",
		Seed:    cfg.Seed,
		N:       cfg.N,
		Sampler: SamplerLHS.String(), // skew always samples jointly via LHS
		Engine:  cfg.engineName(),
		Ladder:  strings.Join(cfg.Ladder, ","),
		Policy:  cfg.OnFailure.String(),
		Sources: sourcesHash(pp.Shared, pp.IndependentA, pp.IndependentB),
	}
	// Kernel paths 0 and 1 are branches A and B; a skipped sample drops
	// both arrivals, keeping the skew pairing aligned.
	kern, err := NewKernel(cfg.RunConfig, []*Path{pp.A, pp.B}, Driver[pairDelay]{
		Sample: func(i int, eval EvalFunc) (pairDelay, error) {
			// Shared sources apply the same value to both branches,
			// independent sources their own.
			var rsA, rsB teta.RunSpec
			row := samples[i]
			ns := len(pp.Shared)
			na := len(pp.IndependentA)
			for k, s := range pp.Shared {
				s.Apply(&rsA, row[k])
				s.Apply(&rsB, row[k])
			}
			for k, s := range pp.IndependentA {
				s.Apply(&rsA, row[ns+k])
			}
			for k, s := range pp.IndependentB {
				s.Apply(&rsB, row[ns+na+k])
			}
			da, err := eval(0, rsA)
			if err != nil {
				return pairDelay{}, fmt.Errorf("branch A: %w", err)
			}
			db, err := eval(1, rsB)
			if err != nil {
				return pairDelay{}, fmt.Errorf("branch B: %w", err)
			}
			return pairDelay{a: da.Delay, b: db.Delay}, nil
		},
		Add: func(_ int, d pairDelay) {
			as = append(as, d.a)
			bs = append(bs, d.b)
			res.Skews = append(res.Skews, d.a-d.b)
		},
		Failures:    &res.Failures,
		Fingerprint: fp,
		Save: func(_ int, m runner.Snapshot) any {
			return skewPayload{A: as, B: bs, Skews: res.Skews, Failures: res.Failures, Metrics: m}
		},
		Restore: func(_ int, decode func(any) error) (runner.Snapshot, error) {
			var st skewPayload
			if err := decode(&st); err != nil {
				return runner.Snapshot{}, err
			}
			as = append(as, st.A...)
			bs = append(bs, st.B...)
			res.Skews = append(res.Skews, st.Skews...)
			res.Failures = st.Failures
			return st.Metrics, nil
		},
	})
	if err != nil {
		return nil, err
	}
	if err := kern.Run(ctx, cfg.N); err != nil {
		return nil, err
	}
	res.ArrivalA = stat.Summarize(as)
	res.ArrivalB = stat.Summarize(bs)
	res.Skew = stat.Summarize(res.Skews)
	res.RSS = rss(res.ArrivalA.Std, res.ArrivalB.Std)
	return res, nil
}

func rss(a, b float64) float64 {
	return math.Sqrt(a*a + b*b)
}
