package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// loopStats is what timedLoop measures around the reps. cpu and disk are
// the benchmark host's speed, sampled before every rep by two fixed
// probes that are part of the benchmark, not of the program, so no change
// to the program moves them: cpu is the wall time of a fixed
// floating-point kernel on benchWorkers goroutines, disk the wall time of
// a fixed sequence of small durable writes (temp file, write, fsync,
// rename), both in seconds. rssMB is the process's peak resident memory
// during each untraced rep.
type loopStats struct {
	cpu, disk []float64
	rssMB     []float64
}

// probeRefS is the CPU probe's usual time on the benchmark host (a
// 2-vCPU Xeon virtual machine, Go 1.24).
const probeRefS = 0.030

// scale converts a time measured during the run into seconds on a host
// where the CPU probe takes probeRefS: probeRefS over the run's median
// CPU probe.
func (h *loopStats) scale() float64 { return probeRefS / median(h.cpu) }

// take runs both probes once; the disk probe writes under dir.
func (h *loopStats) take(dir string) error {
	h.cpu = append(h.cpu, cpuProbe())
	d, err := diskProbe(dir)
	if err != nil {
		return err
	}
	h.disk = append(h.disk, d)
	return nil
}

// cpuProbe runs a small dense LU factor and solve, over and over, on
// each of benchWorkers goroutines, and returns the wall time.
func cpuProbe() float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	sink := make([]float64, benchWorkers)
	for g := range sink {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			const n = 24
			a := make([]float64, n*n)
			b := make([]float64, n)
			s := 0.0
			for rep := 0; rep < 2800; rep++ {
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						a[i*n+j] = 1 / float64(i+j+1+rep%3)
					}
					a[i*n+i] += n
					b[i] = math.Exp(-float64(i) / n)
				}
				for k := 0; k < n; k++ {
					for i := k + 1; i < n; i++ {
						f := a[i*n+k] / a[k*n+k]
						for j := k; j < n; j++ {
							a[i*n+j] -= f * a[k*n+j]
						}
						b[i] -= f * b[k]
					}
				}
				for i := n - 1; i >= 0; i-- {
					for j := i + 1; j < n; j++ {
						b[i] -= a[i*n+j] * b[j]
					}
					b[i] /= a[i*n+i]
				}
				s += b[0]
			}
			sink[g] = s
		}(g)
	}
	wg.Wait()
	for _, s := range sink {
		if !finite(s) {
			panic("cpu probe: kernel diverged")
		}
	}
	return time.Since(t0).Seconds()
}

// diskProbe makes 8 durable 4 KiB writes under dir, each a temp file
// written, fsynced, closed and renamed into place, and returns the wall
// time.
func diskProbe(dir string) (float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	buf := make([]byte, 4096)
	t0 := time.Now()
	for k := 0; k < 8; k++ {
		tmp := filepath.Join(dir, fmt.Sprintf("probe-%d.tmp", k))
		f, err := os.Create(tmp)
		if err != nil {
			return 0, err
		}
		_, err = f.Write(buf)
		if err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(tmp, filepath.Join(dir, fmt.Sprintf("probe-%d", k)))
		}
		if err != nil {
			return 0, err
		}
	}
	return time.Since(t0).Seconds(), nil
}
