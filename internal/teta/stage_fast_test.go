package teta

import (
	"testing"

	"lcsim/internal/circuit"
	"lcsim/internal/device"
	"lcsim/internal/interconnect"
)

// TestFastPathPerStepAllocationFree enforces the fast path's allocation
// contract: the per-timestep SC loop allocates nothing. Each sample pays
// a constant allocation overhead (the Result buffers, the effective-Z
// clone, the DC Newton), so two stages that differ ONLY in step count
// must report the SAME allocations per sample — any difference is a
// per-step allocation leak, scaled up 2× here to make it unmissable. The
// contract holds with a measurement horizon too: a Stop that is never
// reached runs (and checks) every step, and a Stop that ends the run
// early pays the same per-sample overhead as the full window.
func TestFastPathPerStepAllocationFree(t *testing.T) {
	const dt = 4e-12
	build := func(steps int) *Stage {
		cfg := Config{Tech: device.Tech180, DT: dt, TStop: float64(steps) * dt, Order: 4}
		st := variationalLineStage(t, cfg)
		if !st.BuildStats.VarMacro {
			t.Fatalf("variational macromodel unavailable: %s", st.BuildStats.VarMacroNote)
		}
		return st
	}
	stShort := build(200)
	stLong := build(400)
	l10, mid, l90 := circuit.SatRampLevels(0, 1.8)
	base := RunSpec{
		W:      map[string]float64{interconnect.ParamW: 0.4},
		Inputs: [][]circuit.Waveform{{circuit.SatRamp{V0: 0, V1: 1.8, Start: 0.3e-9, Slew: 0.1e-9}}},
	}
	unreached, reached := base, base
	unreached.Stop = Stop{Port: 1, Dir: -1, Levels: [3]float64{l90, mid, -1.8}}
	reached.Stop = Stop{Port: 1, Dir: -1, Levels: [3]float64{l90, mid, l10}}
	scShort := stShort.NewScratch()
	scLong := stLong.NewScratch()
	// Warm both scratches once: the first evaluation pays the convolver's
	// recurrence-coefficient characterization, memoized for repeat poles.
	for _, pair := range []struct {
		st *Stage
		sc *Scratch
	}{{stShort, scShort}, {stLong, scLong}} {
		if _, err := pair.st.RunWith(pair.sc, base); err != nil {
			t.Fatal(err)
		}
	}
	measure := func(st *Stage, sc *Scratch, rs RunSpec) (float64, int) {
		var runErr error
		steps := 0
		a := testing.AllocsPerRun(10, func() {
			res, err := st.RunWith(sc, rs)
			if err != nil {
				runErr = err
				return
			}
			steps = res.Stats.Steps
		})
		if runErr != nil {
			t.Fatal(runErr)
		}
		return a, steps
	}
	for _, tc := range []struct {
		name string
		rs   RunSpec
	}{{"no stop", base}, {"unreached stop", unreached}} {
		aShort, nShort := measure(stShort, scShort, tc.rs)
		aLong, nLong := measure(stLong, scLong, tc.rs)
		if nShort != 200 || nLong != 400 {
			t.Fatalf("%s: ran %d and %d steps, want 200 and 400", tc.name, nShort, nLong)
		}
		if aShort != aLong {
			t.Fatalf("%s: per-step allocations leak: %v allocs at 200 steps vs %v at 400 steps (+%v per extra 200 steps)",
				tc.name, aShort, aLong, aLong-aShort)
		}
	}
	aFull, _ := measure(stLong, scLong, base)
	aStop, nStop := measure(stLong, scLong, reached)
	if nStop >= 400 {
		t.Fatalf("reached stop ran all %d steps", nStop)
	}
	if aStop != aFull {
		t.Fatalf("stopped run at %d steps allocates %v per sample, full run %v", nStop, aStop, aFull)
	}
}
