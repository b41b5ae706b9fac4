package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// quartiles returns the three cut points of statistics.quantiles(values,
// n=4) with Python's default "exclusive" method, so spreads printed here
// match the ones computed from a run's JSON with the standard library.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	const n = 4
	ld := len(d)
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// median returns the middle value (mean of the two middle values for an
// even count).
func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}

// percentile returns the p-th percentile (0..1) by linear interpolation
// between closest ranks.
func percentile(values []float64, p float64) float64 {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	if len(d) == 0 {
		return 0
	}
	pos := p * float64(len(d)-1)
	lo := int(pos)
	if lo >= len(d)-1 {
		return d[len(d)-1]
	}
	frac := pos - float64(lo)
	return d[lo]*(1-frac) + d[lo+1]*frac
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MB. On
// systems without /proc it falls back to the memory the Go runtime has
// obtained from the OS.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
			if !ok {
				continue
			}
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// liveHeap forces a full collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// runtimeStats is a snapshot of the Go runtime counters a traced batch
// reports as the runtime layer.
type runtimeStats struct {
	gcCycles uint32
	pauseNS  uint64
	gcCPU    float64
	cpu      float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() runtimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := append([]metrics.Sample(nil), cpuSamples...)
	metrics.Read(s)
	return runtimeStats{
		gcCycles: ms.NumGC, pauseNS: ms.PauseTotalNs,
		gcCPU: s[0].Value.Float64(), cpu: s[1].Value.Float64(),
	}
}

// addRuntime charges the runtime counters' movement between a and b to t.
func addRuntime(t *tally, a, b runtimeStats, wallS float64) {
	t.count["runtime.gc_cycles"] += float64(b.gcCycles - a.gcCycles)
	t.count["runtime.gc_pause_s"] += float64(b.pauseNS-a.pauseNS) / 1e9
	t.count["runtime.gc_cpu_s"] += b.gcCPU - a.gcCPU
	t.count["runtime.cpu_s"] += b.cpu - a.cpu
	t.count["runtime.wall_s"] += wallS
}
