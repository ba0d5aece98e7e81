package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// a public function of that layer. Name is "<module>.<Func>"; the module
// prefix is the layer the span's self time is charged to. Key is the
// per-sample or per-job id the span belongs to. Async spans measure a
// latency (a job waiting in the queue, say) rather than work, and are
// left out of the self-time attribution.
type Span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Key    int64  `json:"key"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Async  bool   `json:"async,omitempty"`
}

// Layer is the module prefix of the span name.
func (s Span) Layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// Dur is the span's duration in seconds.
func (s Span) Dur() float64 { return float64(s.End-s.Start) / 1e9 }

// Tracer keeps spans in memory until the run ends. A nil *Tracer is the
// untraced mode: every method is a no-op, so call sites need no checks.
type Tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	// parent is the span new spans hang under when the caller cannot
	// name one (engine and filesystem hooks run deep inside a layer).
	parent atomic.Int64

	mu    sync.Mutex
	spans []Span
}

// NewTracer starts an empty trace.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Open is a span that has started but not ended.
type Open struct {
	Name   string
	ID     int64
	Parent int64
	Key    int64
	Start  int64
}

// Now is the trace clock: nanoseconds since the tracer started.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// noParent makes Begin open a root span.
const noParent = -1

// Begin opens a span under parent (0 = the current default parent,
// noParent = a root span).
func (t *Tracer) Begin(name string, parent, key int64) Open {
	if t == nil {
		return Open{}
	}
	if parent == 0 {
		parent = t.parent.Load()
	}
	return Open{Name: name, ID: t.nextID.Add(1), Parent: parent, Key: key, Start: t.Now()}
}

// End closes a span and records it.
func (t *Tracer) End(o Open) { t.record(o, t.Now(), false) }

// EndAt closes a span at a given time.
func (t *Tracer) EndAt(o Open, at time.Time) {
	if t != nil {
		t.record(o, int64(at.Sub(t.epoch)), false)
	}
}

// EndAsyncAt closes a latency span at a given time; latency spans are
// left out of the self-time attribution.
func (t *Tracer) EndAsyncAt(o Open, at time.Time) {
	if t != nil {
		t.record(o, int64(at.Sub(t.epoch)), true)
	}
}

func (t *Tracer) record(o Open, end int64, async bool) {
	if t == nil {
		return
	}
	s := Span{Name: o.Name, ID: o.ID, Parent: o.Parent, Key: o.Key, Start: o.Start, End: end, Async: async}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// SetParent makes id the default parent of spans begun without one and
// returns the previous default.
func (t *Tracer) SetParent(id int64) int64 {
	if t == nil {
		return 0
	}
	return t.parent.Swap(id)
}

// Spans returns a copy of every recorded span, ordered by start time.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// WriteFile writes the spans as JSON lines.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Durations returns the durations (seconds) of the named spans.
func Durations(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.Dur())
		}
	}
	return out
}

// Attribution is a wall-clock breakdown of a set of root spans.
type Attribution struct {
	Wall float64            // summed root durations, s
	Self map[string]float64 // layer → self time, s (the root layer's own time included)
	// Unspanned is the part of Self charged to a lane owner for lanes no
	// work span occupied: the owner's unspanned code, scheduling, and
	// worker slots left idle (the daemon's poll waits).
	Unspanned float64
}

// Attribute splits the wall time of every root span among the layers,
// treating each instant as lanes parallel lanes of work (the workloads'
// two worker threads). The root's direct children — the workload's call
// into the program (core.MonteCarloCtx, ssta.Run, jobd.Run) — own the
// lanes. Spans below them are work: at each instant the innermost
// running work spans (those with no running child) take one lane each,
// or share the instant equally when more run than there are lanes, and
// the lanes no work span occupies are charged to the lane owner: its
// own time, such as scheduling, unspanned set-up inside the call, or a
// worker slot left idle, and is also summed in Unspanned. Summed over
// layers the self times therefore equal the roots' wall time exactly.
// Instants when no lane owner runs are charged to the root's layer; that
// is the residual. Because the owner's call starts right after the root
// and ends right before it, the residual is close to zero by
// construction: it bounds the benchmark's own time inside a rep, not how
// much of the layers' time the spans explain. Unspanned is that second
// figure. Descendants that outlive their root are charged only while a
// root is open.
func Attribute(spans []Span, rootName string, lanes int) Attribution {
	byID := make(map[int64]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	// depth is 0 for a root and grows by one per generation below it;
	// -1 marks spans not under any root.
	depth := make(map[int64]int)
	var depthOf func(id int64, hops int) int
	depthOf = func(id int64, hops int) int {
		if d, ok := depth[id]; ok {
			return d
		}
		i, ok := byID[id]
		if !ok || hops > 64 {
			return -1
		}
		d := -1
		if s := spans[i]; s.Name == rootName {
			d = 0
		} else if pd := depthOf(s.Parent, hops+1); pd >= 0 {
			d = pd + 1
		}
		depth[id] = d
		return d
	}
	type event struct {
		t     int64
		start bool
		idx   int
	}
	var events []event
	a := Attribution{Self: map[string]float64{}}
	for i, s := range spans {
		if s.Async || depthOf(s.ID, 0) < 0 {
			continue
		}
		if s.Name == rootName {
			a.Wall += s.Dur()
		}
		events = append(events, event{s.Start, true, i}, event{s.End, false, i})
	}
	// At one instant: ends before starts, so a zero-length gap never
	// leaves a stale span active; parents start before their children
	// and end after them (ids grow in Begin order).
	sort.Slice(events, func(i, j int) bool {
		ei, ej := events[i], events[j]
		if ei.t != ej.t {
			return ei.t < ej.t
		}
		if ei.start != ej.start {
			return !ei.start
		}
		if ei.start {
			return spans[ei.idx].ID < spans[ej.idx].ID
		}
		return spans[ei.idx].ID > spans[ej.idx].ID
	})
	active := map[int]int{} // span index → number of active children
	var prev int64
	for _, ev := range events {
		if dt := float64(ev.t-prev) / 1e9; dt > 0 {
			a.charge(spans, active, depth, dt, lanes)
		}
		prev = ev.t
		s := spans[ev.idx]
		pi, ok := byID[s.Parent]
		if ok {
			_, ok = active[pi]
		}
		if ev.start {
			active[ev.idx] = 0
			if ok {
				active[pi]++
			}
		} else {
			delete(active, ev.idx)
			if ok && active[pi] > 0 {
				active[pi]--
			}
		}
	}
	return a
}

// charge splits one interval of dt seconds among the running spans.
func (a *Attribution) charge(spans []Span, active map[int]int, depth map[int64]int, dt float64, lanes int) {
	var roots, owners, work []int
	for i, kids := range active {
		switch d := depth[spans[i].ID]; {
		case d == 0:
			roots = append(roots, i)
		case d == 1:
			owners = append(owners, i)
		case kids == 0:
			work = append(work, i)
		}
	}
	if len(roots) == 0 {
		return
	}
	if len(work) >= lanes {
		for _, i := range work {
			a.Self[spans[i].Layer()] += dt / float64(len(work))
		}
		return
	}
	for _, i := range work {
		a.Self[spans[i].Layer()] += dt / float64(lanes)
	}
	idle := dt * float64(lanes-len(work)) / float64(lanes)
	if len(owners) == 0 {
		owners = roots
	} else {
		a.Unspanned += idle
	}
	for _, i := range owners {
		a.Self[spans[i].Layer()] += idle / float64(len(owners))
	}
}

// String renders the attribution as one line per layer.
func (a Attribution) String() string {
	layers := make([]string, 0, len(a.Self))
	for l := range a.Self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	var b strings.Builder
	for _, l := range layers {
		fmt.Fprintf(&b, "  %-12s %9.4f s  %5.1f%%\n", l, a.Self[l], 100*a.Self[l]/a.Wall)
	}
	return b.String()
}
