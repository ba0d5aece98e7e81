package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lcsim/internal/checkpoint"
	"lcsim/internal/core"
	"lcsim/internal/faultinj"
	"lcsim/internal/job"
	"lcsim/internal/jobd"
	"lcsim/internal/modelcache"
)

// tinySize runs every workload in about a second.
var tinySize = Size{PathN: 24, ErrRows: 4, ProbeRows: 4, Jobs: 2, JobN: 80, Circuit: "s27", SetupReps: 2, MinReps: 4}

// tinyRefs are small references made with the same code as the stored
// ones, so the tiny workloads run their accuracy checks end to end.
func tinyRefs(t *testing.T) (*pathReference, *sstaReference) {
	t.Helper()
	ctx := context.Background()
	p, err := makePathReference(ctx, pathRefSeed, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := makeSSTAReference(ctx, "s27", sstaRefSeed, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	return p, s
}

func TestSameSeedSameInputs(t *testing.T) {
	a, err := daemonSpecs(7, fullSize)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := daemonSpecs(7, fullSize)
	c, _ := daemonSpecs(8, fullSize)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different daemon specs")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave identical daemon specs")
	}

	p, err := core.BuildChain(chainSpec())
	if err != nil {
		t.Fatal(err)
	}
	rows := func(seed int64) [][]float64 {
		r, err := keptRows(context.Background(), p, &job.Spec{Run: job.RunSpec{Seed: seed}}, 16)
		if err != nil {
			t.Fatal(err)
		}
		return r.Samples
	}
	if !reflect.DeepEqual(rows(3), rows(3)) {
		t.Error("same seed gave different MC sample rows")
	}
	if reflect.DeepEqual(rows(3), rows(4)) {
		t.Error("different seeds gave identical MC sample rows")
	}

	c1, err := loadCircuit("s1423")
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := loadCircuit("s1423")
	h1, _ := netlistHash(c1)
	h2, _ := netlistHash(c2)
	if h1 != h2 {
		t.Error("ssta_chip circuit is not deterministic")
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !validName(d.Name) {
			t.Errorf("metric name %q does not match [A-Za-z0-9_.-]+", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric %q listed twice", d.Name)
		}
		seen[d.Name] = true
		if d.Unit == "" || len(d.Unit) > 16 {
			t.Errorf("metric %q has unit %q", d.Name, d.Unit)
		}
	}
	for _, w := range []string{"path_mc", "ssta_chip", "daemon_jobs"} {
		if !validName(w) {
			t.Errorf("workload name %q invalid", w)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's metric lists in step with the
// program's.
func TestBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json not beside perfbench/")
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &bj); err != nil {
		t.Fatal(err)
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q unknown to the program", w.Name)
		}
	}
	same := func(list string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", list, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program %s (%s)", list, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}

func TestStoredReferences(t *testing.T) {
	if _, err := loadPathReference(pathRefJSON); err != nil {
		t.Errorf("stored path reference: %v", err)
	}
	c, err := loadCircuit(fullSize.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := loadSSTAReference(sstaRefJSON, c)
	if err != nil {
		t.Fatalf("stored ssta reference: %v", err)
	}

	// A reference for another circuit, sample plan or source list is
	// refused.
	mutate := func(f func(*sstaReference)) []byte {
		r := *ref
		r.Identity.Sources = append([]sourceID(nil), ref.Identity.Sources...)
		f(&r)
		buf, _ := json.Marshal(&r)
		return buf
	}
	for name, f := range map[string]func(*sstaReference){
		"seed":    func(r *sstaReference) { r.Identity.Seed++ },
		"samples": func(r *sstaReference) { r.Identity.Samples /= 2 },
		"netlist": func(r *sstaReference) { r.Identity.Netlist = "0" },
		"sources": func(r *sstaReference) { r.Identity.Sources[0].Sigma *= 2 },
		"engine":  func(r *sstaReference) { r.Identity.Engine = core.EngineTetaExact },
	} {
		if _, err := loadSSTAReference(mutate(f), c); err == nil {
			t.Errorf("ssta reference with a different %s was accepted", name)
		}
	}
	s27, err := loadCircuit("s27")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loadSSTAReference(sstaRefJSON, s27); err == nil {
		t.Error("s1423 reference accepted for s27")
	}
}

func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	pathRef, sstaRef := tinyRefs(t)
	for _, name := range []string{"path_mc", "ssta_chip", "daemon_jobs"} {
		for _, trace := range []bool{false, true} {
			name, trace := name, trace
			t.Run(name+map[bool]string{false: "", true: "/trace"}[trace], func(t *testing.T) {
				cfg := Config{
					Workload: name, Seed: 5, Seconds: 0, Trace: trace,
					WorkDir: t.TempDir(), Size: tinySize, PathRef: pathRef, SSTARef: sstaRef,
				}
				res, err := workloads[name](context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				line, _ := finish(cfg, res)
				if !line.Correct {
					t.Fatalf("failed checks: %v", res.Checks)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(line.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(line.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := line.Metrics[d.Name]
					if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) {
						t.Errorf("metric %s missing or malformed: %+v", d.Name, m)
					}
				}
				if !trace {
					return
				}
				// The layer self times and the residual add up to the
				// traced wall time, and the residual stays small.
				a := res.Attribution
				total := 0.0
				for _, v := range a.Self {
					total += v
				}
				if math.Abs(total-a.Wall) > 1e-6*a.Wall {
					t.Errorf("self times sum to %g s, traced wall %g s", total, a.Wall)
				}
				if f := res.Metrics["trace.residual_frac"]; f > maxResidualFrac {
					t.Errorf("residual %.1f%% of the traced wall time, stated bound %.0f%%", 100*f, 100*maxResidualFrac)
				}
			})
		}
	}
}

func TestAttribute(t *testing.T) {
	// A 10 s root; the lane owner runs 1-9 s; under it three work spans,
	// at most two of them (the lane count) at once except 5-6 s.
	spans := []Span{
		{Name: "bench.Rep", ID: 1, Parent: noParent, Start: 0, End: 10e9},
		{Name: "core.Call", ID: 2, Parent: 1, Start: 1e9, End: 9e9},
		{Name: "teta.A", ID: 3, Parent: 2, Start: 2e9, End: 6e9},
		{Name: "teta.B", ID: 4, Parent: 2, Start: 4e9, End: 8e9},
		{Name: "checkpoint.F", ID: 5, Parent: 2, Start: 5e9, End: 7e9},
		{Name: "jobd.Job", ID: 6, Parent: 1, Start: 0, End: 10e9, Async: true},
		{Name: "core.Outside", ID: 7, Parent: noParent, Start: 11e9, End: 12e9},
	}
	a := Attribute(spans, "bench.Rep", 2)
	// bench: 0-1, 9-10. core: 1-2, half of 2-4, half of 7-8, 8-9.
	// teta: half of 2-4, 4-5, 2/3 of 5-6, half of 6-7, half of 7-8.
	// checkpoint: 1/3 of 5-6, half of 6-7.
	want := map[string]float64{"bench": 2, "core": 3.5, "teta": 1 + 1 + 2.0/3 + 0.5 + 0.5, "checkpoint": 1.0/3 + 0.5}
	if a.Wall != 10 {
		t.Errorf("wall %g, want 10", a.Wall)
	}
	total := 0.0
	for l, v := range a.Self {
		total += v
		if math.Abs(v-want[l]) > 1e-9 {
			t.Errorf("%s self %g s, want %g s", l, v, want[l])
		}
	}
	if len(a.Self) != len(want) || math.Abs(total-10) > 1e-9 {
		t.Errorf("self times %v sum to %g, want %v summing to 10", a.Self, total, want)
	}
	// Every lane the owner was charged for was unspanned.
	if math.Abs(a.Unspanned-want["core"]) > 1e-9 {
		t.Errorf("unspanned %g s, want %g s", a.Unspanned, want["core"])
	}
}

// replayedCoreLoop is the SHA-256 of core's path loop as tracedEngine
// replays it: (*pathEngine).EvalPath in internal/core/engine.go followed
// by shiftPWL in internal/core/path.go, each from its func line to its
// closing brace.
const replayedCoreLoop = "611d67ed29fca92626df6e4d1c1d6f2dcb467a4f73869814a6dce5405b40a89b"

// TestReplayFollowsCore fails when core's path loop changes. The traced
// reps time the replay in engine.go, not core's loop, so core.propagate_us
// and the core.eval_path_us_* spans would not follow a change there
// (core.eval_path_direct_us_p50 does). Re-sync the replay with core and
// update replayedCoreLoop.
func TestReplayFollowsCore(t *testing.T) {
	var src []byte
	for _, f := range []struct{ file, head string }{
		{"../internal/core/engine.go", "func (e *pathEngine) EvalPath("},
		{"../internal/core/path.go", "func shiftPWL("},
	} {
		buf, err := os.ReadFile(f.file)
		if err != nil {
			t.Fatal(err)
		}
		i := bytes.Index(buf, []byte(f.head))
		if i < 0 {
			t.Fatalf("%s: %q not found; re-sync engine.go's replay with core", f.file, f.head)
		}
		j := bytes.Index(buf[i:], []byte("\n}\n"))
		if j < 0 {
			t.Fatalf("%s: end of %q not found", f.file, f.head)
		}
		src = append(src, buf[i:i+j+3]...)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(src)); got != replayedCoreLoop {
		t.Errorf("core's path loop changed (sha256 %s): re-sync tracedEngine.EvalPath in engine.go with it, then set replayedCoreLoop", got)
	}
}

// TestTimingFSByteIdentical drives the queue, the checkpoint journal and
// the model cache once through faultinj.OS and once through the timing
// passthrough: every file they write must come out byte-identical, except
// the state records, whose bodies carry a wall-clock stamp and are
// compared field by field instead.
func TestTimingFSByteIdentical(t *testing.T) {
	spec, err := daemonSpecs(3, Size{Jobs: 1, JobN: 40})
	if err != nil {
		t.Fatal(err)
	}
	res := &job.Result{Driver: "path", SpecHash: "sha256:00", Summary: map[string]any{"mean": 1.5}}
	write := func(dir string, f faultinj.FS) string {
		q, err := jobd.OpenQueue(filepath.Join(dir, "queue"), f)
		if err != nil {
			t.Fatal(err)
		}
		id, err := q.Enqueue(spec[0])
		if err != nil {
			t.Fatal(err)
		}
		prev := checkpoint.SetFS(f)
		err = checkpoint.Save(q.JournalPath(id), &checkpoint.Snapshot{Next: 16, State: json.RawMessage(`{"x":1}`)}, nil)
		if err == nil {
			err = checkpoint.Save(q.JournalPath(id), &checkpoint.Snapshot{Next: 32, State: json.RawMessage(`{"x":2}`)}, nil)
		}
		checkpoint.SetFS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if err := q.PutResult(id, res, []byte("report\n")); err != nil {
			t.Fatal(err)
		}
		store, err := modelcache.OpenFS(filepath.Join(dir, "cache"), f)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := store.GetOrCompute("ab12", func() ([]byte, error) { return []byte("model bytes"), nil }); err != nil {
			t.Fatal(err)
		}
		return id
	}
	plain, timed := t.TempDir(), t.TempDir()
	id := write(plain, faultinj.OS{})
	tfs := newTimingFS(nil, "jobd", NewTracer())
	if write(timed, tfs) != id {
		t.Fatal("job ids differ")
	}
	if st := tfs.Stats(); st.Ops == 0 || st.Flushes == 0 || st.Written == 0 {
		t.Errorf("timing FS counted nothing: %+v", st)
	}
	rel := filepath.Join("queue", "jobs", id)
	files := []string{filepath.Join("cache", "ab", "ab12.mm")}
	for _, f := range []string{"spec.json", "journal.ck", "journal.ck.bak", "result.json", "stdout.txt"} {
		files = append(files, filepath.Join(rel, f))
	}
	for _, f := range files {
		a, err := os.ReadFile(filepath.Join(plain, f))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(timed, f))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between faultinj.OS and the timing FS", f)
		}
	}
	qa, _ := jobd.OpenQueue(filepath.Join(plain, "queue"), nil)
	qb, _ := jobd.OpenQueue(filepath.Join(timed, "queue"), nil)
	sa, err := qa.State(id)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := qb.State(id)
	if err != nil {
		t.Fatal(err)
	}
	if sa.Status != sb.Status || sa.Attempts != sb.Attempts || sa.Error != sb.Error {
		t.Errorf("state records differ: %+v vs %+v", sa, sb)
	}
}

// validName is the metric-name grammar: letters, digits, '_', '.', '-'.
func validName(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	return strings.IndexFunc(s, func(r rune) bool {
		return !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '_' || r == '.' || r == '-')
	}) < 0
}
