package teta

import (
	"math"
	"testing"

	"lcsim/internal/circuit"
	"lcsim/internal/device"
	"lcsim/internal/interconnect"
)

// lastFirstCrossing returns the index of the sample at which the last of
// the levels makes its first crossing of v in direction dir (the test of
// circuit.PWL.CrossTime), or -1 when some level never crosses.
func lastFirstCrossing(v []float64, dir int, levels [3]float64) int {
	last := 0
	for _, l := range levels {
		first := -1
		for i := 1; i < len(v); i++ {
			if dir >= 0 && v[i-1] < l && v[i] >= l || dir < 0 && v[i-1] > l && v[i] <= l {
				first = i
				break
			}
		}
		if first < 0 {
			return -1
		}
		last = max(last, first)
	}
	return last
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestStopIsFullRunPrefix checks the measurement horizon on both step
// loops (the fast path behind RunWith and the per-sample extraction path
// behind RunExact): a run with a Stop records the bit-identical prefix of
// the full-window run and ends at the step of the last first crossing; a
// Stop whose levels are never crossed, and the zero Stop, run every step.
func TestStopIsFullRunPrefix(t *testing.T) {
	st := variationalLineStage(t, Config{Tech: device.Tech180, DT: 4e-12, TStop: 1.6e-9, Order: 4})
	if !st.BuildStats.VarMacro {
		t.Fatalf("variational macromodel unavailable: %s", st.BuildStats.VarMacroNote)
	}
	vdd := device.Tech180.VDD
	l10, mid, l90 := circuit.SatRampLevels(0, vdd)
	base := RunSpec{
		W:      map[string]float64{interconnect.ParamW: 0.4},
		DL:     0.01e-6,
		Inputs: [][]circuit.Waveform{{circuit.SatRamp{V0: 0, V1: vdd, Start: 0.3e-9, Slew: 0.1e-9}}},
	}
	runs := []struct {
		name string
		run  func(RunSpec) (*Result, error)
	}{
		{"fast", func(rs RunSpec) (*Result, error) {
			res, err := st.RunWith(st.NewScratch(), rs)
			if err != nil {
				return nil, err
			}
			return res.detach(), nil
		}},
		{"exact", st.RunExact},
	}
	stops := []struct {
		name    string
		stop    Stop
		crosses bool
	}{
		// The inverter's far-end output falls as its input rises.
		{"far end falling", Stop{Port: 1, Dir: -1, Levels: [3]float64{l90, mid, l10}}, true},
		{"near end falling", Stop{Port: 0, Dir: -1, Levels: [3]float64{l10, mid, l90}}, true},
		{"wrong direction", Stop{Port: 1, Dir: +1, Levels: [3]float64{l10, mid, l90}}, false},
		{"level out of swing", Stop{Port: 1, Dir: -1, Levels: [3]float64{l90, mid, -vdd}}, false},
		{"zero stop", Stop{}, false},
	}
	for _, r := range runs {
		full, err := r.run(base)
		if err != nil {
			t.Fatal(err)
		}
		nSteps := len(full.T) - 1
		if full.Stats.Steps != nSteps || nSteps != 400 {
			t.Fatalf("%s: full run executed %d steps over %d samples, want 400", r.name, full.Stats.Steps, len(full.T))
		}
		for _, tc := range stops {
			t.Run(r.name+"/"+tc.name, func(t *testing.T) {
				rs := base
				rs.Stop = tc.stop
				got, err := r.run(rs)
				if err != nil {
					t.Fatal(err)
				}
				want := nSteps
				if tc.crosses {
					want = lastFirstCrossing(full.PortV[tc.stop.Port], tc.stop.Dir, tc.stop.Levels)
					if want <= 0 || want >= nSteps {
						t.Fatalf("levels cross at step %d of %d; the case needs an interior crossing", want, nSteps)
					}
				}
				if got.Stats.Steps != want || len(got.T) != want+1 {
					t.Fatalf("stopped after %d steps (%d samples), want %d", got.Stats.Steps, len(got.T), want)
				}
				if !sameBits(got.T, full.T[:want+1]) {
					t.Fatal("time axis is not the full run's prefix")
				}
				for p := range full.PortV {
					if !sameBits(got.PortV[p], full.PortV[p][:want+1]) {
						t.Fatalf("port %d waveform is not the full run's prefix", p)
					}
				}
				if tc.crosses && got.Stats.SCIterations >= full.Stats.SCIterations {
					t.Fatalf("stopped run spent %d SC iterations, full run %d", got.Stats.SCIterations, full.Stats.SCIterations)
				}
				if !tc.crosses && got.Stats != full.Stats {
					t.Fatalf("stats %+v, want the full run's %+v", got.Stats, full.Stats)
				}
			})
		}
	}
}
