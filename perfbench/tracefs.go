package main

import (
	"os"
	"path/filepath"
	"sync"
	"time"

	"lcsim/internal/faultinj"
)

// timingFS is a passthrough faultinj.FS that times and counts every
// operation of one durable layer (checkpoint, jobd queue or model
// cache). It never changes what reaches the base filesystem. When a
// tracer is set each operation is also recorded as a "<layer>.<Op>"
// span. Hooks let a workload observe the queue from outside: OnRename
// sees every installed file, OnRead every file read.
type timingFS struct {
	base   faultinj.FS
	layer  string
	tr     *Tracer
	keyOf  func(path string) int64
	OnRead func(name string, at time.Time)
	// OnRename runs after a successful rename into newpath.
	OnRename func(newpath string, at time.Time)

	mu      sync.Mutex
	ops     int64
	ioNs    int64
	written int64
	flushes int64
	temps   map[string]time.Time // temp file → CreateTemp start
	flushMs []float64
}

func newTimingFS(base faultinj.FS, layer string, tr *Tracer) *timingFS {
	if base == nil {
		base = faultinj.OS{}
	}
	return &timingFS{base: base, layer: layer, tr: tr, temps: map[string]time.Time{}}
}

// fsStats is a snapshot of a timingFS's counters.
type fsStats struct {
	Ops, IONs, Written, Flushes int64
	FlushMs                     []float64
}

// Stats returns the counters accumulated since the last Reset.
func (f *timingFS) Stats() fsStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return fsStats{Ops: f.ops, IONs: f.ioNs, Written: f.written, Flushes: f.flushes,
		FlushMs: append([]float64(nil), f.flushMs...)}
}

// Reset zeroes the counters.
func (f *timingFS) Reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops, f.ioNs, f.written, f.flushes = 0, 0, 0, 0
	f.flushMs = nil
	f.temps = map[string]time.Time{}
}

// op times one call and charges it to the layer.
func (f *timingFS) op(name, path string, fn func() error) error {
	var key int64
	if f.keyOf != nil {
		key = f.keyOf(path)
	}
	sp := f.tr.Begin(f.layer+"."+name, 0, key)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	f.tr.End(sp)
	f.mu.Lock()
	f.ops++
	f.ioNs += int64(d)
	f.mu.Unlock()
	return err
}

func (f *timingFS) ReadFile(name string) ([]byte, error) {
	var buf []byte
	err := f.op("ReadFile", name, func() (err error) {
		buf, err = f.base.ReadFile(name)
		return err
	})
	if f.OnRead != nil {
		f.OnRead(name, time.Now())
	}
	return buf, err
}

func (f *timingFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	err := f.op("WriteFile", name, func() error { return f.base.WriteFile(name, data, perm) })
	if err == nil {
		f.mu.Lock()
		f.written += int64(len(data))
		f.mu.Unlock()
	}
	return err
}

func (f *timingFS) CreateTemp(dir, pattern string) (faultinj.File, error) {
	start := time.Now()
	var file faultinj.File
	err := f.op("CreateTemp", dir, func() (err error) {
		file, err = f.base.CreateTemp(dir, pattern)
		return err
	})
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.temps[file.Name()] = start
	f.mu.Unlock()
	return &timingFile{File: file, fs: f}, nil
}

// Rename installs a file. Renaming a temp file made by CreateTemp ends
// one flush: the temp+write+sync+close+rename recipe every durable layer
// uses, timed from CreateTemp to the end of this rename.
func (f *timingFS) Rename(oldpath, newpath string) error {
	err := f.op("Rename", newpath, func() error { return f.base.Rename(oldpath, newpath) })
	if err != nil {
		return err
	}
	now := time.Now()
	f.mu.Lock()
	if start, ok := f.temps[oldpath]; ok {
		delete(f.temps, oldpath)
		f.flushes++
		f.flushMs = append(f.flushMs, float64(now.Sub(start))/1e6)
	}
	f.mu.Unlock()
	if f.OnRename != nil {
		f.OnRename(newpath, now)
	}
	return nil
}

func (f *timingFS) Remove(name string) error {
	f.mu.Lock()
	delete(f.temps, name)
	f.mu.Unlock()
	return f.op("Remove", name, func() error { return f.base.Remove(name) })
}

func (f *timingFS) MkdirAll(path string, perm os.FileMode) error {
	return f.op("MkdirAll", path, func() error { return f.base.MkdirAll(path, perm) })
}

func (f *timingFS) Stat(name string) (os.FileInfo, error) {
	var fi os.FileInfo
	err := f.op("Stat", name, func() (err error) {
		fi, err = f.base.Stat(name)
		return err
	})
	return fi, err
}

// timingFile times the writes, fsync and close of one temp file.
type timingFile struct {
	faultinj.File
	fs *timingFS
}

func (t *timingFile) Write(p []byte) (int, error) {
	var n int
	err := t.fs.op("Write", t.Name(), func() (err error) {
		n, err = t.File.Write(p)
		return err
	})
	t.fs.mu.Lock()
	t.fs.written += int64(n)
	t.fs.mu.Unlock()
	return n, err
}

func (t *timingFile) Sync() error {
	return t.fs.op("Sync", t.Name(), t.File.Sync)
}

func (t *timingFile) Close() error {
	return t.fs.op("Close", t.Name(), t.File.Close)
}

// jobDir returns the queue job id in a path under <queue>/jobs/<id>/,
// or "".
func jobDir(path string) string {
	dir := filepath.Base(filepath.Dir(path))
	if filepath.Base(filepath.Dir(filepath.Dir(path))) != "jobs" {
		return ""
	}
	return dir
}

// isQueueFile reports whether path is the named per-job queue file.
func isQueueFile(path, file string) bool {
	return filepath.Base(path) == file && jobDir(path) != ""
}
