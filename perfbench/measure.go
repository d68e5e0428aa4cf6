package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// iteration is one run of a workload's operation: a whole sweep, or one
// long cell.
type iteration struct {
	wall, cpu float64 // host seconds: wall clock, and user+sys CPU
	rt        runtimeDelta
	cellMS    []float64 // per-cell host latency
	simCycles int64     // simulated CPU cycles delivered (Σ Result.CPUCycles)
	ops       int       // checked operations (cells)
	failed    int       // of which failed or mismatched
	// counts are the layer counters read after the iteration.
	counts map[string]float64
}

func wallOf(it iteration) float64 { return it.wall }

// field maps f over the iterations.
func field(its []iteration, f func(iteration) float64) []float64 {
	out := make([]float64, len(its))
	for i, it := range its {
		out[i] = f(it)
	}
	return out
}

// runtimeDelta is the Go runtime's work during one iteration.
type runtimeDelta struct {
	allocMB, mallocsM, gcCycles, gcCPUFrac float64
}

// usage is a snapshot of the process's clocks and runtime counters.
type usage struct {
	at         time.Time
	cpu        float64
	alloc      uint64
	mallocs    uint64
	gcs        uint32
	gcCPU, all float64
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func sample() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuMetrics)
	u := usage{alloc: ms.TotalAlloc, mallocs: ms.Mallocs, gcs: ms.NumGC, cpu: processCPU()}
	if cpuMetrics[0].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = cpuMetrics[0].Value.Float64()
		u.all = cpuMetrics[1].Value.Float64()
	}
	u.at = time.Now()
	return u
}

// measure runs f and returns its wall, CPU and runtime cost. The runtime
// counters are read outside the wall-clock window.
func measure(f func()) iteration {
	a := sample()
	f()
	end := time.Now()
	b := sample()
	it := iteration{wall: end.Sub(a.at).Seconds(), cpu: b.cpu - a.cpu}
	it.rt = runtimeDelta{
		allocMB:  float64(b.alloc-a.alloc) / 1e6,
		mallocsM: float64(b.mallocs-a.mallocs) / 1e6,
		gcCycles: float64(b.gcs - a.gcs),
	}
	if d := b.all - a.all; d > 0 {
		it.rt.gcCPUFrac = (b.gcCPU - a.gcCPU) / d
	}
	return it
}

// processCPU returns the process's user+sys CPU seconds so far.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB returns the process's peak resident set in MB, from
// /proc/self/status (VmHWM) with getrusage as the fallback.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// median returns the middle of xs (the mean of the middle two when even).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// binnedQuantile returns the q-quantile of whole-number readings that each
// stand for an interval [v, v+1), as the Runner's truncated milliseconds
// do: readings are spread evenly across their interval (the grouped-data
// quantile), so the estimate moves smoothly instead of snapping to whole
// units.
func binnedQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s))
	i := min(int(pos), len(s)-1)
	lo, hi := i, i+1
	for lo > 0 && s[lo-1] == s[i] {
		lo--
	}
	for hi < len(s) && s[hi] == s[i] {
		hi++
	}
	return s[i] + (pos-float64(lo))/float64(hi-lo)
}

// spread returns max - min of xs.
func spread(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return hi - lo
}

// sourceDigest hashes the simulator's Go sources and goldens, so a result
// names the code it measured even where no git metadata exists.
func sourceDigest() string {
	h := sha256.New()
	var paths []string
	for _, dir := range []string{"cmd", "internal"} {
		_ = filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				paths = append(paths, p)
			}
			return nil
		})
	}
	paths = append(paths, "go.mod")
	sort.Strings(paths)
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
