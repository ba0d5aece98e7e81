package core_test

import (
	"context"
	"reflect"
	"testing"

	"lcsim/internal/core"
	"lcsim/internal/device"
	"lcsim/internal/iscas"
	"lcsim/internal/runner"
	"lcsim/internal/ssta"
)

// TestSSTAHorizonBitIdentical checks that block-level SSTA of s27, whose
// characterization is all GA stage simulations stopped at their
// measurement horizons, equals a full-window characterization bit for
// bit at fewer SC iterations. It lives in an external test package
// because ssta imports core.
func TestSSTAHorizonBitIdentical(t *testing.T) {
	c, err := iscas.S27().TechMap()
	if err != nil {
		t.Fatal(err)
	}
	core.RegisterHorizonFreeEngine("test-nohorizon-fast", false)
	run := func(engine string) (*ssta.Result, runner.Snapshot) {
		m := new(runner.Metrics)
		res, err := ssta.Run(context.Background(), c, ssta.Config{
			RunConfig: core.RunConfig{Workers: 2, Engine: engine, Metrics: m},
			Sources:   core.DeviceSources(device.Tech180, 0.33, 0.33),
			Elems:     4,
		})
		if err != nil {
			t.Fatal(err)
		}
		res.Stats.Wall = 0
		return res, m.Snapshot()
	}
	got, gotM := run(core.EngineTetaFast)
	want, wantM := run("test-nohorizon-fast")
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"sinks", got.Sinks, want.Sinks},
		{"chip", got.Chip, want.Chip},
		{"critical sink", got.CriticalSink, want.CriticalSink},
		{"stats", got.Stats, want.Stats},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Fatalf("%s differ from the full-window characterization:\n got %+v\nwant %+v", f.name, f.got, f.want)
		}
	}
	if gotM.StageEvals != wantM.StageEvals || gotM.SCIterations >= wantM.SCIterations {
		t.Fatalf("%d stage sims at %d SC iterations, full-window %d at %d", gotM.StageEvals, gotM.SCIterations, wantM.StageEvals, wantM.SCIterations)
	}
	t.Logf("characterization SC iterations: %d with horizons, %d full-window", gotM.SCIterations, wantM.SCIterations)
}
