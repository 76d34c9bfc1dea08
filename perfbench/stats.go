package main

import (
	"math"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// minBeyond is how many samples must lie above a reported percentile:
// a percentile resting on fewer is dominated by a handful of outliers.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of sorted and whether at least minBeyond samples lie beyond it. An
// empty input reports (0, false).
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// median is the nearest-rank 50th percentile; it needs no support.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	v, _ := percentile(s, 50)
	return v
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// durations converts to float64 in the given unit.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// maxRSSMB returns the process's peak resident set size in MiB
// (getrusage reports KiB on Linux).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// The kernel's CPU-time clocks (CLOCK_PROCESS_CPUTIME_ID and
// CLOCK_THREAD_CPUTIME_ID from <time.h>).
const (
	clockProcessCPU = 2
	clockThreadCPU  = 3
)

// cpuTime reads one of the kernel's CPU-time clocks, to the
// nanosecond. They count only the time the process or thread ran: not
// time it waited for a processor, a lock or the disk, nor time the
// hypervisor gave its processor to another guest (steal). On a shared
// host the wall time of the same work moves with the neighbours' load;
// its CPU time barely does.
func cpuTime(clock uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic("perfbench: clock_gettime: " + e.Error())
	}
	return time.Duration(ts.Nano())
}

// processCPU is the CPU time of every thread of the process so far.
func processCPU() time.Duration { return cpuTime(clockProcessCPU) }

// threadCPU is the calling thread's CPU time so far; the caller must
// be locked to its thread (runtime.LockOSThread) for it to mean the
// goroutine's own.
func threadCPU() time.Duration { return cpuTime(clockThreadCPU) }

// windowRate is the median, over the whole seconds of a run of length
// d, of the acknowledgements that arrived in each second: a rate that
// a burst of outside load on the host moves less than a plain mean.
func windowRate(at []time.Duration, d time.Duration) float64 {
	n := int(d / time.Second)
	if n < 1 {
		return float64(len(at)) / d.Seconds()
	}
	counts := make([]float64, n)
	for _, t := range at {
		if w := int(t / time.Second); w < n {
			counts[w]++
		}
	}
	return median(counts)
}

// minWindows is the fewest windows a windowed statistic takes a median
// over.
const minWindows = 3

// windowed returns the p-th percentile of the samples xs, in unit, as
// the median over equal windows of the run of each window's own p-th
// percentile; at[i] is when sample i completed, since the start of
// the run, and d is the run's length. The windows are the shortest
// whole seconds for which every one of at least minWindows windows
// holds enough samples for its percentile to have minBeyond beyond it.
// A burst of outside load on the host then spoils a few windows, not
// the statistic. Without such a split it falls back to all samples
// pooled; ok reports whether the result is supported.
func windowed(xs, at []time.Duration, d time.Duration, p float64, unit time.Duration) (float64, bool) {
	secs := int(d / time.Second)
	if len(at) != len(xs) {
		secs = 0 // no completion times: pool
	}
	for w := 1; secs/w >= minWindows; w++ {
		n := secs / w
		per := make([][]float64, n)
		for i, x := range xs {
			if k := int(at[i] / (time.Duration(w) * time.Second)); k < n {
				per[k] = append(per[k], float64(x)/float64(unit))
			}
		}
		vals := make([]float64, 0, n)
		for _, win := range per {
			sort.Float64s(win)
			v, ok := percentile(win, p)
			if !ok {
				break
			}
			vals = append(vals, v)
		}
		if len(vals) == n {
			return median(vals), true
		}
	}
	return percentile(sortedCopy(durations(xs, unit)), p)
}
