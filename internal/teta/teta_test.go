package teta

import (
	"errors"
	"math"
	"testing"

	"lcsim/internal/circuit"
	"lcsim/internal/device"
	"lcsim/internal/interconnect"
	"lcsim/internal/spice"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestChordPolicies(t *testing.T) {
	dev := circuit.MOSFET{Type: circuit.NMOS, W: 1e-6, L: 0.18e-6}
	m := device.Tech180.NMOS
	gMax := chordConductance(m, dev, 1.8, ChordMax)
	gHalf := chordConductance(m, dev, 1.8, ChordHalf)
	gSec := chordConductance(m, dev, 1.8, ChordSecant)
	if gMax <= 0 || gHalf <= 0 || gSec <= 0 {
		t.Fatal("chords must be positive")
	}
	if !almostEq(gHalf, gMax/2, 1e-12*gMax) {
		t.Fatal("half chord must be half of max")
	}
	if gSec >= gMax {
		t.Fatal("secant chord must be below max conductance")
	}
}

func TestDriverGOut(t *testing.T) {
	d1, err := newDriver(DriverSpec{Name: "u1", Cell: device.INV, Drive: 2}, device.Tech180, ChordMax, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if d1.GOut() <= 0 {
		t.Fatalf("G_out = %g, want > 0", d1.GOut())
	}
	// G_out depends on the timestep (paper §3.3): smaller h adds larger
	// C/h companions.
	d2, err := newDriver(DriverSpec{Name: "u1", Cell: device.INV, Drive: 2}, device.Tech180, ChordMax, 1e-13)
	if err != nil {
		t.Fatal(err)
	}
	if d2.GOut() <= d1.GOut() {
		t.Fatalf("G_out must grow as h shrinks: %g vs %g", d2.GOut(), d1.GOut())
	}
}

func TestDriverStackedCellHasInternals(t *testing.T) {
	d, err := newDriver(DriverSpec{Name: "u1", Cell: device.NAND2, Drive: 1}, device.Tech180, ChordMax, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if d.nUnk < 2 {
		t.Fatalf("NAND2 must have internal nodes, nUnk = %d", d.nUnk)
	}
	if d.outIdx != d.nUnk-1 {
		t.Fatal("output must be the last unknown")
	}
	if d.GOut() <= 0 {
		t.Fatal("Schur G_out must be positive")
	}
}

// lineStage builds an inverter driving an RC line with the far end probed.
func lineStage(t *testing.T, cfg Config, lengthUm float64, drive float64) *Stage {
	t.Helper()
	load := circuit.New()
	out := interconnect.AddLine(load, interconnect.Wire180, "near", "w", lengthUm, 1, false)
	load.MarkPort("near")
	load.MarkPort(out)
	// Receiver gate load at the far end.
	load.AddC("Crcv", out, "0", circuit.V(2e-15))
	st, err := BuildStage(load, []DriverSpec{{Name: "drv", Cell: device.INV, Drive: drive, Port: 0}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func defaultCfg() Config {
	return Config{Tech: device.Tech180, DT: 2e-12, TStop: 1.5e-9, Order: 4}
}

func TestStageDCInitialization(t *testing.T) {
	st := lineStage(t, defaultCfg(), 50, 4)
	// Input low at t=0: inverter output (and hence both ports) near vdd.
	res, err := st.Run(RunSpec{Inputs: [][]circuit.Waveform{{circuit.SatRamp{V0: 0, V1: 1.8, Start: 0.3e-9, Slew: 0.1e-9}}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.PortV[0][0]; !almostEq(got, 1.8, 0.02) {
		t.Fatalf("near end starts at %g, want ~1.8", got)
	}
	if got := res.PortV[1][0]; !almostEq(got, 1.8, 0.02) {
		t.Fatalf("far end starts at %g, want ~1.8", got)
	}
}

func TestStageInverterVsSpice(t *testing.T) {
	cfg := defaultCfg()
	st := lineStage(t, cfg, 50, 4)
	in := circuit.SatRamp{V0: 0, V1: 1.8, Start: 0.3e-9, Slew: 0.1e-9}
	res, err := st.Run(RunSpec{Inputs: [][]circuit.Waveform{{in}}})
	if err != nil {
		t.Fatal(err)
	}
	// Reference: same circuit in the Newton simulator.
	nl := circuit.New()
	nl.AddV("VDD", "vdd", "0", circuit.DC(1.8))
	nl.AddV("VIN", "in", "0", in)
	if err := device.INV.Instantiate(nl, "drv", []string{"in"}, "near", device.BuildOpts{Tech: device.Tech180, Drive: 4}); err != nil {
		t.Fatal(err)
	}
	out := interconnect.AddLine(nl, interconnect.Wire180, "near", "w", 50, 1, false)
	nl.AddC("Crcv", out, "0", circuit.V(2e-15))
	sim, err := spice.NewSimulator(nl, spice.Options{DT: cfg.DT, TStop: cfg.TStop, Models: device.Tech180})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sim.Run([]string{out})
	if err != nil {
		t.Fatal(err)
	}
	tw, err := res.PortWaveform(1)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := ref.Waveform(out)
	if err != nil {
		t.Fatal(err)
	}
	// Compare 50% falling crossings and pointwise error.
	tc := tw.CrossTime(0.9, -1)
	rc := rw.CrossTime(0.9, -1)
	if math.IsNaN(tc) || math.IsNaN(rc) {
		t.Fatalf("missing transition: teta %g spice %g", tc, rc)
	}
	if math.Abs(tc-rc) > 10e-12 {
		t.Fatalf("50%% crossing differs: teta %g vs spice %g", tc, rc)
	}
	worst := 0.0
	for i, tt := range rw.T {
		worst = math.Max(worst, math.Abs(tw.At(tt)-rw.V[i]))
	}
	if worst > 0.09 { // 5% of VDD
		t.Fatalf("worst-case waveform error %g V vs SPICE reference", worst)
	}
}

func TestStageNoRefactorizationCost(t *testing.T) {
	st := lineStage(t, defaultCfg(), 30, 2)
	res, err := st.Run(RunSpec{Inputs: [][]circuit.Waveform{{circuit.SatRamp{V0: 0, V1: 1.8, Start: 0.2e-9, Slew: 0.1e-9}}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Steps == 0 || res.Stats.SCIterations < res.Stats.Steps {
		t.Fatalf("stats implausible: %+v", res.Stats)
	}
	// SC should converge in a handful of iterations per step on average.
	avg := float64(res.Stats.SCIterations) / float64(res.Stats.Steps)
	if avg > 60 {
		t.Fatalf("SC averaging %.1f iterations/step — chord too weak", avg)
	}
}

func TestStageVariationalVsDirectSmallW(t *testing.T) {
	load := circuit.New()
	out := interconnect.AddLine(load, interconnect.Wire180, "near", "w", 40, 1, true)
	load.MarkPort("near")
	load.MarkPort(out)
	st, err := BuildStage(load, []DriverSpec{{Name: "drv", Cell: device.INV, Drive: 4, Port: 0}}, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	in := circuit.SatRamp{V0: 0, V1: 1.8, Start: 0.3e-9, Slew: 0.1e-9}
	w := map[string]float64{interconnect.ParamW: 0.1, interconnect.ParamRho: -0.1}
	rv, err := st.Run(RunSpec{W: w, Inputs: [][]circuit.Waveform{{in}}})
	if err != nil {
		t.Fatal(err)
	}
	rd, err := st.RunDirect(RunSpec{W: w, Inputs: [][]circuit.Waveform{{in}}})
	if err != nil {
		t.Fatal(err)
	}
	wv, _ := rv.PortWaveform(1)
	wd, _ := rd.PortWaveform(1)
	cv := wv.CrossTime(0.9, -1)
	cd := wd.CrossTime(0.9, -1)
	if math.Abs(cv-cd) > 5e-12 {
		t.Fatalf("variational vs direct crossing: %g vs %g", cv, cd)
	}
}

func TestStageDeviceVariationsShiftDelay(t *testing.T) {
	st := lineStage(t, defaultCfg(), 40, 2)
	in := circuit.SatRamp{V0: 0, V1: 1.8, Start: 0.3e-9, Slew: 0.1e-9}
	base, err := st.Run(RunSpec{Inputs: [][]circuit.Waveform{{in}}})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := st.Run(RunSpec{DVT: 0.1, Inputs: [][]circuit.Waveform{{in}}})
	if err != nil {
		t.Fatal(err)
	}
	wb, _ := base.PortWaveform(1)
	ws, _ := slow.PortWaveform(1)
	cb := wb.CrossTime(0.9, -1)
	cs := ws.CrossTime(0.9, -1)
	if !(cs > cb) {
		t.Fatalf("raising VT must slow the stage: %g vs %g", cs, cb)
	}
}

func TestStageCrosstalk(t *testing.T) {
	// Two coupled lines: aggressor switches, victim held; victim's far end
	// must show a coupling glitch.
	bus := interconnect.BuildBus(interconnect.Wire180, 2, 60, 1, false)
	nlb := bus.Netlist
	nlb.MarkPort(bus.In[0])  // victim near (driven, holding low)
	nlb.MarkPort(bus.In[1])  // aggressor near (switching)
	nlb.MarkPort(bus.Out[0]) // victim far (probe)
	cfg := defaultCfg()
	st, err := BuildStage(nlb, []DriverSpec{
		{Name: "vict", Cell: device.INV, Drive: 1, Port: 0},
		{Name: "aggr", Cell: device.INV, Drive: 8, Port: 1},
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Victim input high -> victim output low and stays. Aggressor input
	// falls -> aggressor output rises.
	res, err := st.Run(RunSpec{Inputs: [][]circuit.Waveform{
		{circuit.DC(1.8)},
		{circuit.SatRamp{V0: 1.8, V1: 0, Start: 0.3e-9, Slew: 0.1e-9}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	peak := 0.0
	for _, v := range res.PortV[2] {
		peak = math.Max(peak, v)
	}
	if peak < 0.01 {
		t.Fatalf("expected a crosstalk bump on the victim, peak = %g", peak)
	}
	if peak > 0.9 {
		t.Fatalf("crosstalk bump implausibly large: %g", peak)
	}
}

func TestBuildStageErrors(t *testing.T) {
	load := circuit.New()
	load.AddR("R1", "a", "0", circuit.V(10))
	if _, err := BuildStage(load, nil, defaultCfg()); err == nil {
		t.Fatal("no ports must error")
	}
	load.MarkPort("a")
	if _, err := BuildStage(load, []DriverSpec{{Cell: device.INV, Port: 5}}, defaultCfg()); err == nil {
		t.Fatal("port out of range must error")
	}
	if _, err := BuildStage(load, []DriverSpec{
		{Cell: device.INV, Port: 0}, {Cell: device.INV, Port: 0},
	}, defaultCfg()); err == nil {
		t.Fatal("double-driven port must error")
	}
	cfg := defaultCfg()
	cfg.Tech = nil
	if _, err := BuildStage(load, nil, cfg); err == nil {
		t.Fatal("nil tech must error")
	}
}

func TestRunSpecValidation(t *testing.T) {
	st := lineStage(t, defaultCfg(), 20, 1)
	if _, err := st.Run(RunSpec{}); err == nil {
		t.Fatal("missing inputs must error")
	}
	if _, err := st.Run(RunSpec{Inputs: [][]circuit.Waveform{{circuit.DC(0), circuit.DC(0)}}}); err == nil {
		t.Fatal("wrong input arity must error")
	}
	in := [][]circuit.Waveform{{circuit.DC(0)}}
	if _, err := st.Run(RunSpec{Inputs: in, Stop: Stop{Port: 2, Dir: -1}}); err == nil {
		t.Fatal("stop on port 2 of a 2-port stage must error")
	}
	if _, err := st.RunExact(RunSpec{Inputs: in, Stop: Stop{Port: -1, Dir: +1}}); err == nil {
		t.Fatal("stop on port -1 must error")
	}
}

func TestErrNoConvergenceWrapped(t *testing.T) {
	// Force failure with an absurd SC budget.
	cfg := defaultCfg()
	cfg.MaxSC = 1
	st := lineStage(t, cfg, 30, 2)
	_, err := st.Run(RunSpec{Inputs: [][]circuit.Waveform{{circuit.SatRamp{V0: 0, V1: 1.8, Start: 0.2e-9, Slew: 0.1e-9}}}})
	if err == nil {
		return // converged in one iteration is fine too, nothing to assert
	}
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("expected ErrNoConvergence, got %v", err)
	}
}

func TestCoupledBusVsSpice(t *testing.T) {
	// Two simultaneously switching drivers on a coupled bus: the full
	// multiport recursive-convolution machinery against the Newton
	// baseline on the identical transistor-level circuit.
	bus := interconnect.BuildBus(interconnect.Wire180, 2, 40, 1, false)
	nlb := bus.Netlist
	nlb.MarkPort(bus.In[0])
	nlb.MarkPort(bus.In[1])
	nlb.MarkPort(bus.Out[0])
	nlb.MarkPort(bus.Out[1])
	cfg := Config{Tech: device.Tech180, DT: 2e-12, TStop: 1.5e-9, Order: 6}
	st, err := BuildStage(nlb, []DriverSpec{
		{Name: "d0", Cell: device.INV, Drive: 3, Port: 0},
		{Name: "d1", Cell: device.INV, Drive: 3, Port: 1},
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	inA := circuit.SatRamp{V0: 0, V1: 1.8, Start: 0.3e-9, Slew: 0.1e-9}
	inB := circuit.SatRamp{V0: 1.8, V1: 0, Start: 0.32e-9, Slew: 0.12e-9}
	res, err := st.Run(RunSpec{Inputs: [][]circuit.Waveform{{inA}, {inB}}})
	if err != nil {
		t.Fatal(err)
	}
	// Reference.
	bus2 := interconnect.BuildBus(interconnect.Wire180, 2, 40, 1, false)
	nl := bus2.Netlist
	nl.AddV("VDD", "vdd", "0", circuit.DC(1.8))
	nl.AddV("VA", "ia", "0", inA)
	nl.AddV("VB", "ib", "0", inB)
	if err := device.INV.Instantiate(nl, "d0", []string{"ia"}, bus2.In[0], device.BuildOpts{Tech: device.Tech180, Drive: 3}); err != nil {
		t.Fatal(err)
	}
	if err := device.INV.Instantiate(nl, "d1", []string{"ib"}, bus2.In[1], device.BuildOpts{Tech: device.Tech180, Drive: 3}); err != nil {
		t.Fatal(err)
	}
	sim, err := spice.NewSimulator(nl, spice.Options{DT: cfg.DT, TStop: cfg.TStop, Models: device.Tech180})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sim.Run([]string{bus2.Out[0], bus2.Out[1]})
	if err != nil {
		t.Fatal(err)
	}
	for port, node := range map[int]string{2: bus2.Out[0], 3: bus2.Out[1]} {
		tw, err := res.PortWaveform(port)
		if err != nil {
			t.Fatal(err)
		}
		rw, err := ref.Waveform(node)
		if err != nil {
			t.Fatal(err)
		}
		worst := 0.0
		for i, tt := range rw.T {
			worst = math.Max(worst, math.Abs(tw.At(tt)-rw.V[i]))
		}
		if worst > 0.1 { // ~5% of VDD including coupling glitches
			t.Fatalf("port %d worst error %g V vs spice", port, worst)
		}
	}
}
