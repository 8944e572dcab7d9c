package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; NaN when xs is empty. xs is
// sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	pos := p / 100 * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if hi >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// ratio returns num/den, or 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// cpuTime returns the process's user+sys CPU time (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// totalAlloc returns the cumulative bytes allocated on the heap.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// peakRSSMiB returns the process's VmHWM (peak resident set) in MiB.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// resetPeakRSS collects garbage, returns freed memory to the OS and
// resets the kernel's VmHWM, so a later peakRSSMiB covers only what
// follows. It reports whether the reset took effect.
func resetPeakRSS() bool {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// gcCPU reads the runtime's cumulative GC and total CPU estimates.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// usage is a point-in-time reading of the process's resource counters;
// the difference of two readings is the cost of the window between.
type usage struct {
	at      time.Time
	cpu     time.Duration
	alloc   uint64
	gc, all float64
}

func readUsage() usage {
	gc, all := gcCPU()
	return usage{at: time.Now(), cpu: cpuTime(), alloc: totalAlloc(), gc: gc, all: all}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
