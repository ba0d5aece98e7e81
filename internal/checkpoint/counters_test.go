package checkpoint

import (
	"os"
	"path/filepath"
	"testing"

	"lcsim/internal/faultinj"
	"lcsim/internal/runner"
)

// TestBakFallbackCounted: a resume served from the .bak rotation
// increments the typed counter instead of passing silently.
func TestBakFallbackCounted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.ckpt")
	if err := Save(path, testSnap(10), nil); err != nil {
		t.Fatal(err)
	}
	if err := Save(path, testSnap(20), nil); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf[:len(buf)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	m := &runner.Metrics{}
	snap, fromBak, err := Load(path, m)
	if err != nil || !fromBak || snap.Next != 10 {
		t.Fatalf("Load = (%v, %v, %v), want .bak generation Next=10", snap, fromBak, err)
	}
	if got := m.Snapshot().CheckpointBakLoads; got != 1 {
		t.Fatalf("CheckpointBakLoads = %d, want 1", got)
	}
	// A clean load counts nothing.
	m2 := &runner.Metrics{}
	if _, _, err := Load(BakPath(path), m2); err != nil {
		t.Fatal(err)
	}
	if got := m2.Snapshot().CheckpointBakLoads; got != 0 {
		t.Fatalf("clean load counted %d bak fallbacks", got)
	}
}

// TestRenameRetryCounted: a transiently failing atomic-install rename is
// retried (Save still succeeds) and each retry increments the counter.
func TestRenameRetryCounted(t *testing.T) {
	prev := SetFS(faultinj.Inject(faultinj.OS{},
		faultinj.NewSchedule(1).RuleAt(faultinj.OpRename, faultinj.KindErr, 0)))
	defer SetFS(prev)

	path := filepath.Join(t.TempDir(), "c.ckpt")
	m := &runner.Metrics{}
	if err := Save(path, testSnap(7), m); err != nil {
		t.Fatalf("Save with one injected rename failure must retry and succeed: %v", err)
	}
	if got := m.Snapshot().CheckpointRenameRetries; got != 1 {
		t.Fatalf("CheckpointRenameRetries = %d, want 1", got)
	}
	snap, fromBak, err := Load(path, nil)
	if err != nil || fromBak || snap.Next != 7 {
		t.Fatalf("Load after retried install = (%v, %v, %v)", snap, fromBak, err)
	}
}

// TestRenameRetryExhausted: a permanently failing rename gives up after
// the bounded attempts with the underlying error, not an infinite loop.
func TestRenameRetryExhausted(t *testing.T) {
	prev := SetFS(faultinj.Inject(faultinj.OS{},
		faultinj.NewSchedule(1).Rule(faultinj.OpRename, faultinj.KindErr, 1.0)))
	defer SetFS(prev)

	m := &runner.Metrics{}
	err := Save(filepath.Join(t.TempDir(), "c.ckpt"), testSnap(7), m)
	if err == nil {
		t.Fatal("Save succeeded with every rename failing")
	}
	if got := m.Snapshot().CheckpointRenameRetries; got != renameAttempts-1 {
		t.Fatalf("CheckpointRenameRetries = %d, want %d", got, renameAttempts-1)
	}
}

// TestTornRewriteKeepsGoodGeneration: a torn write persists a corrupt
// snapshot and reports success, and a job that resumes from .bak and
// flushes the same snapshot again tears it the same way. Save must not
// rotate the torn primary over the good .bak, or both generations end up
// holding the same torn bytes and the journal is lost.
func TestTornRewriteKeepsGoodGeneration(t *testing.T) {
	prev := SetFS(faultinj.Inject(faultinj.OS{}, faultinj.NewSchedule(1).
		RuleAt(faultinj.OpWrite, faultinj.KindTorn, 1).
		RuleAt(faultinj.OpWrite, faultinj.KindTorn, 2)))
	defer SetFS(prev)

	path := filepath.Join(t.TempDir(), "c.ckpt")
	for _, next := range []int{10, 20, 20} { // writes 1 and 2 tear
		if err := Save(path, testSnap(next), nil); err != nil {
			t.Fatal(err)
		}
	}
	snap, fromBak, err := Load(path, nil)
	if err != nil || !fromBak || snap.Next != 10 {
		t.Fatalf("Load = (%v, %v, %v), want the good .bak generation Next=10", snap, fromBak, err)
	}
}
