package core_test

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"lcsim/internal/checkpoint"
	"lcsim/internal/core"
	"lcsim/internal/device"
	"lcsim/internal/iscas"
	"lcsim/internal/ssta"
)

// TestSSTAShardedLimitBitIdentical runs the chip-level brute-force
// reference (ssta.RunMC, the sampling kernel over every distinct block
// of s27) as a chain of Limit-bounded legs over one journal: every
// non-final leg returns ErrPartial and no result, and the completing
// leg is bit-identical to an uninterrupted run. It lives in an external
// test package because ssta imports core.
func TestSSTAShardedLimitBitIdentical(t *testing.T) {
	c, err := iscas.S27().TechMap()
	if err != nil {
		t.Fatal(err)
	}
	cfg := func(workers int) ssta.Config {
		return ssta.Config{
			RunConfig: core.RunConfig{Seed: 7, Workers: workers},
			Sources:   core.DeviceSources(device.Tech180, 0.33, 0.33),
			Elems:     4,
		}
	}
	const n = 20
	ref, err := ssta.RunMC(context.Background(), c, cfg(2), n)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "ssta.ckpt")
	var got *ssta.MCResult
	legs := 0
	for limit := 8; got == nil; limit += 8 { // legs end at 8, 16, 24→done
		legs++
		leg := cfg(1 + legs%3)
		leg.Checkpoint = &checkpoint.Config{Path: path, Every: 3, Resume: true, Limit: limit}
		res, err := ssta.RunMC(context.Background(), c, leg, n)
		if err == nil {
			got = res
			continue
		}
		if !errors.Is(err, core.ErrPartial) {
			t.Fatalf("leg ending at %d: %v", limit, err)
		}
		if res != nil {
			t.Fatalf("partial leg ending at %d returned a result", limit)
		}
	}
	if legs != 3 {
		t.Fatalf("run took %d legs, want 3", legs)
	}
	got.Stats.Wall, ref.Stats.Wall = 0, 0 // characterization wall time
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("sharded ssta MC differs from uninterrupted run:\n got %+v\nwant %+v", got, ref)
	}
}
