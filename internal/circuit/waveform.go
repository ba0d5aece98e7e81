package circuit

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Waveform is a time-dependent source value v(t) (volts or amperes).
type Waveform interface {
	At(t float64) float64
}

// DC is a constant waveform.
type DC float64

// At returns the constant value.
func (d DC) At(float64) float64 { return float64(d) }

// SatRamp is the saturated-ramp waveform function the paper's timing
// abstraction uses (§4.2): value V0 before Start, linear rise to V1 over
// Slew seconds, then constant. Slew is defined 0-to-100%; the 50% crossing
// occurs at Start + Slew/2.
type SatRamp struct {
	V0, V1      float64
	Start, Slew float64
}

// At evaluates the ramp.
func (r SatRamp) At(t float64) float64 {
	if r.Slew <= 0 {
		if t < r.Start {
			return r.V0
		}
		return r.V1
	}
	switch {
	case t <= r.Start:
		return r.V0
	case t >= r.Start+r.Slew:
		return r.V1
	default:
		return r.V0 + (r.V1-r.V0)*(t-r.Start)/r.Slew
	}
}

// Cross50 returns the 50% crossing time of the ramp.
func (r SatRamp) Cross50() float64 { return r.Start + r.Slew/2 }

// Pulse mirrors the SPICE PULSE source: initial value, pulsed value,
// delay, rise, fall, width, period. Period <= 0 means a single pulse.
type Pulse struct {
	V1, V2                           float64
	Delay, Rise, Fall, Width, Period float64
}

// At evaluates the pulse train.
func (p Pulse) At(t float64) float64 {
	tt := t - p.Delay
	if tt < 0 {
		return p.V1
	}
	if p.Period > 0 {
		tt = math.Mod(tt, p.Period)
	}
	rise := p.Rise
	if rise <= 0 {
		rise = 1e-15
	}
	fall := p.Fall
	if fall <= 0 {
		fall = 1e-15
	}
	switch {
	case tt < rise:
		return p.V1 + (p.V2-p.V1)*tt/rise
	case tt < rise+p.Width:
		return p.V2
	case tt < rise+p.Width+fall:
		return p.V2 + (p.V1-p.V2)*(tt-rise-p.Width)/fall
	default:
		return p.V1
	}
}

// PWL is a piece-wise-linear waveform through (T[i], V[i]) breakpoints.
// Before the first point it holds V[0]; after the last, V[n-1]. This is
// also the fine-resolution waveform representation TETA propagates between
// stages (§4.3.1).
type PWL struct {
	T, V []float64
}

// NewPWL validates and constructs a PWL waveform. Times must be strictly
// increasing.
func NewPWL(t, v []float64) (*PWL, error) {
	if len(t) != len(v) {
		return nil, fmt.Errorf("circuit: PWL lengths differ: %d vs %d", len(t), len(v))
	}
	if len(t) == 0 {
		return nil, fmt.Errorf("circuit: PWL needs at least one point")
	}
	for i := 1; i < len(t); i++ {
		if t[i] <= t[i-1] {
			return nil, fmt.Errorf("circuit: PWL times not increasing at %d: %g <= %g", i, t[i], t[i-1])
		}
	}
	return &PWL{T: t, V: v}, nil
}

// At evaluates the waveform by linear interpolation.
func (p *PWL) At(t float64) float64 {
	n := len(p.T)
	if t <= p.T[0] {
		return p.V[0]
	}
	if t >= p.T[n-1] {
		return p.V[n-1]
	}
	i := sort.SearchFloat64s(p.T, t)
	// p.T[i-1] < t <= p.T[i]
	t0, t1 := p.T[i-1], p.T[i]
	v0, v1 := p.V[i-1], p.V[i]
	return v0 + (v1-v0)*(t-t0)/(t1-t0)
}

// CrossTime returns the first time the waveform crosses level in the given
// direction (+1 rising, -1 falling), or NaN if it never does.
func (p *PWL) CrossTime(level float64, dir int) float64 {
	for i := 1; i < len(p.T); i++ {
		v0, v1 := p.V[i-1], p.V[i]
		if dir >= 0 && v0 < level && v1 >= level || dir < 0 && v0 > level && v1 <= level {
			if v1 == v0 {
				return p.T[i]
			}
			return p.T[i-1] + (level-v0)*(p.T[i]-p.T[i-1])/(v1-v0)
		}
	}
	return math.NaN()
}

// MeasureSatRamp fits a saturated-ramp abstraction to the waveform:
// the 50% crossing time and the 10–90% slew extrapolated to 0–100%.
// vLow and vHigh give the swing endpoints; dir is +1 rising, -1 falling.
func (p *PWL) MeasureSatRamp(vLow, vHigh float64, dir int) (cross50, slew float64) {
	l10, mid, l90 := SatRampLevels(vLow, vHigh)
	if dir < 0 {
		l10, l90 = l90, l10
	}
	cross50 = p.CrossTime(mid, dir)
	t10 := p.CrossTime(l10, dir)
	t90 := p.CrossTime(l90, dir)
	slew = math.Abs(t90-t10) / 0.8
	return cross50, slew
}

// SatRampLevels returns the 10%, 50% and 90% levels of the swing from
// vLow to vHigh: the crossings MeasureSatRamp reads.
func SatRampLevels(vLow, vHigh float64) (l10, mid, l90 float64) {
	return vLow + 0.1*(vHigh-vLow), 0.5 * (vLow + vHigh), vLow + 0.9*(vHigh-vLow)
}

// Compress returns a PWL with redundant breakpoints removed: the result
// deviates from the original by at most tol anywhere. This is the
// adaptive-breakpoint representation the paper propagates between stages
// (§4.3.1) — fine resolution through transitions, coarse elsewhere.
// Implemented as recursive max-deviation splitting (Douglas–Peucker).
func (p *PWL) Compress(tol float64) *PWL {
	n := len(p.T)
	if n <= 2 || tol <= 0 {
		return p
	}
	keep := make([]bool, n)
	keep[0], keep[n-1] = true, true
	var split func(lo, hi int)
	split = func(lo, hi int) {
		if hi-lo < 2 {
			return
		}
		t0, v0 := p.T[lo], p.V[lo]
		t1, v1 := p.T[hi], p.V[hi]
		worst, wi := 0.0, -1
		for i := lo + 1; i < hi; i++ {
			lin := v0 + (v1-v0)*(p.T[i]-t0)/(t1-t0)
			if d := math.Abs(p.V[i] - lin); d > worst {
				worst = d
				wi = i
			}
		}
		if worst > tol {
			keep[wi] = true
			split(lo, wi)
			split(wi, hi)
		}
	}
	split(0, n-1)
	var ts, vs []float64
	for i := range keep {
		if keep[i] {
			ts = append(ts, p.T[i])
			vs = append(vs, p.V[i])
		}
	}
	return &PWL{T: ts, V: vs}
}

// Sine is a sinusoidal source: offset + amp*sin(2π f (t-delay)).
type Sine struct {
	Offset, Amp, Freq, Delay float64
}

// At evaluates the sinusoid.
func (s Sine) At(t float64) float64 {
	if t < s.Delay {
		return s.Offset
	}
	return s.Offset + s.Amp*math.Sin(2*math.Pi*s.Freq*(t-s.Delay))
}

// WriteCSV writes "t,v" rows for a set of waveforms sampled at the given
// times — the plot-data export used by the experiment reports. Column
// names come from labels; waveforms are sampled via At.
func WriteCSV(w io.Writer, times []float64, labels []string, waves []Waveform) error {
	if len(labels) != len(waves) {
		return fmt.Errorf("circuit: WriteCSV got %d labels for %d waveforms", len(labels), len(waves))
	}
	if _, err := fmt.Fprintf(w, "t,%s\n", strings.Join(labels, ",")); err != nil {
		return err
	}
	for _, t := range times {
		if _, err := fmt.Fprintf(w, "%.9e", t); err != nil {
			return err
		}
		for _, wf := range waves {
			if _, err := fmt.Fprintf(w, ",%.6e", wf.At(t)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
