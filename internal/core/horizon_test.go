package core

import (
	"math"
	"reflect"
	"testing"

	"lcsim/internal/device"
	"lcsim/internal/runner"
	"lcsim/internal/teta"
)

// RegisterHorizonFreeEngine registers name as a TETA backend that runs
// every stage transient over its full window: the wave function calls
// teta.Stage.RunWith (RunExact when exact is set) with the measurement
// horizon cleared, so it is the reference a horizon must reproduce bit
// for bit. Exported for the external tests of this package.
func RegisterHorizonFreeEngine(name string, exact bool) {
	RegisterEngine(name, 50, false, func(p *Path) (Engine, error) {
		return newTetaEngine(p, name, 50, func(st *teta.Stage, sc *teta.Scratch, rs teta.RunSpec) (*teta.Result, error) {
			rs.Stop = teta.Stop{}
			if exact {
				return st.RunExact(rs)
			}
			return st.RunWith(sc, rs)
		}), nil
	})
}

// sameFloat reports whether a and b are the same float64 bit pattern.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestEvalPathHorizonBitIdentical checks that stopping the final stage
// at its measurement horizon changes no measured bit of a path sample on
// either TETA engine, and that it saves SC iterations and solves on
// every sample.
func TestEvalPathHorizonBitIdentical(t *testing.T) {
	p := quickChain(t, []string{"INV", "NAND2", "NOR2", "INV"}, 10, true)
	sources := append(DeviceSources(device.Tech180, 0.33, 0.33), WireSources(0.2)...)
	samples := [][]float64{make([]float64, len(sources))}
	for _, sign := range []float64{+1, -1} {
		v := make([]float64, len(sources))
		for i, s := range sources {
			v[i] = sign * s.Sigma * float64(i%3+1) / 2
		}
		samples = append(samples, v)
	}
	RegisterHorizonFreeEngine("test-nohorizon-fast", false)
	RegisterHorizonFreeEngine("test-nohorizon-exact", true)
	for _, pair := range [][2]string{
		{EngineTetaFast, "test-nohorizon-fast"},
		{EngineTetaExact, "test-nohorizon-exact"},
	} {
		eng, err := p.Engine(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		ref, err := p.Engine(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		sc := eng.NewScratch()
		for k, v := range samples {
			rs := BuildRunSpec(sources, v)
			got, err := eng.EvalPath(sc, rs)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.EvalPath(nil, rs)
			if err != nil {
				t.Fatal(err)
			}
			if !sameFloat(got.Delay, want.Delay) || !sameFloat(got.FinalSlew, want.FinalSlew) {
				t.Fatalf("%s sample %d: delay %v slew %v, full-window %v %v", pair[0], k, got.Delay, got.FinalSlew, want.Delay, want.FinalSlew)
			}
			for i := range want.StageDelays {
				if !sameFloat(got.StageDelays[i], want.StageDelays[i]) {
					t.Fatalf("%s sample %d stage %d: delay %v, full-window %v", pair[0], k, i, got.StageDelays[i], want.StageDelays[i])
				}
			}
			if got.SCIters >= want.SCIters || got.LinearSolves >= want.LinearSolves {
				t.Fatalf("%s sample %d: %d SC iterations and %d solves, full-window %d and %d: the final stage did not stop early",
					pair[0], k, got.SCIters, got.LinearSolves, want.SCIters, want.LinearSolves)
			}
		}
	}
}

// TestGradientAnalysisHorizonBitIdentical checks that GA, every stage
// simulation of which stops at its measurement horizon, returns the
// full-window analysis bit for bit at fewer SC iterations.
func TestGradientAnalysisHorizonBitIdentical(t *testing.T) {
	p := quickChain(t, []string{"INV", "NAND2", "INV"}, 8, true)
	sources := append(DeviceSources(device.Tech180, 0.33, 0.33), WireSources(0.2)[:2]...)
	RegisterHorizonFreeEngine("test-nohorizon-fast", false)
	run := func(engine string) (*GAResult, runner.Snapshot) {
		m := new(runner.Metrics)
		ga, err := p.GradientAnalysis(GAConfig{Sources: sources, Engine: engine, Metrics: m})
		if err != nil {
			t.Fatal(err)
		}
		return ga, m.Snapshot()
	}
	got, gotM := run(EngineTetaFast)
	want, wantM := run("test-nohorizon-fast")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("GA with horizons differs from the full-window analysis:\n got %+v\nwant %+v", got, want)
	}
	if gotM.StageEvals != wantM.StageEvals || gotM.SCIterations >= wantM.SCIterations {
		t.Fatalf("%d stage sims at %d SC iterations, full-window %d at %d", gotM.StageEvals, gotM.SCIterations, wantM.StageEvals, wantM.SCIterations)
	}
}
