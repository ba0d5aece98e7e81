package core

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"lcsim/internal/checkpoint"
)

// TestMCShardedLimitBitIdentical is the lcsimd shard primitive: execute
// one MC sweep as a chain of Limit-bounded legs over a shared journal
// (uneven final shard, varying worker counts across legs) and require the
// completing leg's result to be bit-identical to an uninterrupted run —
// summary, failure report and SC totals alike. Also pins the ErrPartial
// contract: every non-final leg fails with an error wrapping ErrPartial,
// and re-running an already-durable leg is a cheap ErrPartial no-op.
func TestMCShardedLimitBitIdentical(t *testing.T) {
	p := quickChain(t, []string{"INV", "INV"}, 6, false)
	ref, err := p.MonteCarloCtx(context.Background(), mcCheckpointCfg(p, 4, false))
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "mc.ckpt")
	const shard = 7 // N=40: legs end at 7,14,21,28,35,42→done
	leg := func(limit, workers int) (*MCResult, error) {
		cfg := mcCheckpointCfg(p, workers, false)
		cfg.Checkpoint = &checkpoint.Config{Path: path, Every: 3, Resume: true, Limit: limit}
		return p.MonteCarloCtx(context.Background(), cfg)
	}

	var got *MCResult
	legs := 0
	for limit := shard; got == nil; limit += shard {
		legs++
		res, err := leg(limit, 1+legs%3)
		if err == nil {
			got = res
			continue
		}
		if !errors.Is(err, ErrPartial) {
			t.Fatalf("leg ending at %d: %v", limit, err)
		}
		if res != nil {
			t.Fatalf("partial leg ending at %d returned a result", limit)
		}
	}
	if legs != 6 {
		t.Fatalf("run took %d legs, want 6", legs)
	}
	if !sameSummaryBits(got.Summary, ref.Summary) {
		t.Fatalf("sharded summary differs from uninterrupted run:\n got %+v\nwant %+v", got.Summary, ref.Summary)
	}
	if got.TotalSC != ref.TotalSC {
		t.Fatalf("sharded TotalSC %d, want %d", got.TotalSC, ref.TotalSC)
	}
	if len(got.Failures.SkippedIndices) != len(ref.Failures.SkippedIndices) {
		t.Fatalf("sharded skip-set %v, want %v", got.Failures.SkippedIndices, ref.Failures.SkippedIndices)
	}

	// A stale/duplicate leg whose cut is already durable: ErrPartial
	// without evaluating anything (the journal holds Next=40 ≥ 7).
	if _, err := leg(shard, 2); !errors.Is(err, ErrPartial) {
		t.Fatalf("replayed durable leg: got %v, want ErrPartial", err)
	}
}

// TestSkewShardedLimitBitIdentical mirrors the shard chain for the skew
// driver, whose payload carries raw arrival prefixes rather than
// streaming accumulators.
func TestSkewShardedLimitBitIdentical(t *testing.T) {
	a := quickChain(t, []string{"BUF"}, 10, true)
	b := quickChain(t, []string{"BUF"}, 10, true)
	pp := &PathPair{
		A: a, B: b,
		Shared: UniformWireSources(),
	}
	cfg := func() SkewConfig {
		return SkewConfig{N: 10, RunConfig: RunConfig{Seed: 5, Workers: 2}}
	}
	ref, err := pp.MonteCarloSkewCtx(context.Background(), cfg())
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "skew.ckpt")
	var got *SkewResult
	for limit := 4; got == nil; limit += 4 { // legs end at 4, 8, 12→done
		c := cfg()
		c.Checkpoint = &checkpoint.Config{Path: path, Every: 2, Resume: true, Limit: limit}
		res, err := pp.MonteCarloSkewCtx(context.Background(), c)
		if err == nil {
			got = res
			continue
		}
		if !errors.Is(err, ErrPartial) {
			t.Fatalf("leg ending at %d: %v", limit, err)
		}
	}
	if !sameSummaryBits(got.Skew, ref.Skew) || !sameSummaryBits(got.ArrivalA, ref.ArrivalA) {
		t.Fatal("sharded skew summaries differ from uninterrupted run")
	}
}

// TestISShardedLimitBitIdentical runs a non-adaptive importance-sampling
// sweep as a chain of Limit-bounded legs over one journal: every
// non-final leg returns ErrPartial and no result, and the completing
// leg's estimate is bit-identical to an uninterrupted run.
func TestISShardedLimitBitIdentical(t *testing.T) {
	p := quickChain(t, []string{"INV", "INV"}, 6, false)
	ref, err := p.ImportanceYieldCtx(context.Background(), isTestCfg(t, p, 2))
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "is.ckpt")
	var got *ISResult
	legs := 0
	for limit := 15; got == nil; limit += 15 { // N=40: legs end at 15, 30, 45→done
		legs++
		cfg := isTestCfg(t, p, 1+legs%3)
		cfg.Checkpoint = &checkpoint.Config{Path: path, Every: 4, Resume: true, Limit: limit}
		res, err := p.ImportanceYieldCtx(context.Background(), cfg)
		if err == nil {
			got = res
			continue
		}
		if !errors.Is(err, ErrPartial) {
			t.Fatalf("leg ending at %d: %v", limit, err)
		}
		if res != nil {
			t.Fatalf("partial leg ending at %d returned a result", limit)
		}
	}
	if legs != 3 {
		t.Fatalf("run took %d legs, want 3", legs)
	}
	sameISBits(t, got, ref)
}
