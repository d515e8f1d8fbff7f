package main

import (
	"fmt"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
)

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return float64(kb) / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// settle collects garbage, returns freed memory to the OS and resets
// the kernel's peak-RSS mark, so the next measurement starts from the
// same state and its peak covers it alone. Where the reset is
// unsupported the peak stays the process's lifetime peak.
func settle() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// runtimeCounters is a reading of the Go runtime's cumulative allocator
// and GC counters; sub gives the work done between two readings.
type runtimeCounters struct {
	mallocs, allocBytes float64
	gcCPU, totalCPU     float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeCounters {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeCounters{mallocs: v(0), allocBytes: v(1), gcCPU: v(2), totalCPU: v(3)}
}

func (a runtimeCounters) sub(b runtimeCounters) runtimeCounters {
	return runtimeCounters{
		mallocs:    a.mallocs - b.mallocs,
		allocBytes: a.allocBytes - b.allocBytes,
		gcCPU:      a.gcCPU - b.gcCPU,
		totalCPU:   a.totalCPU - b.totalCPU,
	}
}

func (a runtimeCounters) add(b runtimeCounters) runtimeCounters {
	return runtimeCounters{
		mallocs:    a.mallocs + b.mallocs,
		allocBytes: a.allocBytes + b.allocBytes,
		gcCPU:      a.gcCPU + b.gcCPU,
		totalCPU:   a.totalCPU + b.totalCPU,
	}
}
