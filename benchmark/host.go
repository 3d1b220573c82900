package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processStart is as close to process start as Go code gets; setup_s on the
// first set-up sample is measured from here.
var processStart = time.Now()

// hostSample is a reading of the process-wide cost counters. Deltas between
// two samples bracket one timed operation.
type hostSample struct {
	at      time.Time
	userNS  int64
	sysNS   int64
	mallocs uint64
	bytes   uint64
}

func readHost() hostSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return hostSample{
		userNS:  ru.Utime.Nano(),
		sysNS:   ru.Stime.Nano(),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		at:      time.Now(),
	}
}

// hostCost is the cost of one timed operation.
type hostCost struct {
	wall    time.Duration
	cpu     time.Duration
	user    time.Duration
	sys     time.Duration
	mallocs float64
	bytes   float64
}

func (a hostSample) since(b hostSample) hostCost {
	user := time.Duration(a.userNS - b.userNS)
	sys := time.Duration(a.sysNS - b.sysNS)
	return hostCost{
		wall:    a.at.Sub(b.at),
		cpu:     user + sys,
		user:    user,
		sys:     sys,
		mallocs: float64(a.mallocs - b.mallocs),
		bytes:   float64(a.bytes - b.bytes),
	}
}

// runtimeSample reads the runtime/metrics the ledger reports.
type runtimeSample struct {
	gcCPU, totalCPU float64 // seconds
	mutexWait       float64 // seconds
	schedLat        *metrics.Float64Histogram
}

func readRuntime() runtimeSample {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/sync/mutex/wait/total:seconds"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(samples)
	var rs runtimeSample
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		rs.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		rs.totalCPU = samples[1].Value.Float64()
	}
	if samples[2].Value.Kind() == metrics.KindFloat64 {
		rs.mutexWait = samples[2].Value.Float64()
	}
	if samples[3].Value.Kind() == metrics.KindFloat64Histogram {
		rs.schedLat = samples[3].Value.Float64Histogram()
	}
	return rs
}

// gcShare is the share of process CPU the collector used between b and a.
func (a runtimeSample) gcShare(b runtimeSample) float64 {
	return ratio(a.gcCPU-b.gcCPU, a.totalCPU-b.totalCPU)
}

// schedP99 is the 99th-percentile goroutine scheduling latency (seconds)
// over the interval between b and a, from the runtime's histogram.
func (a runtimeSample) schedP99(b runtimeSample) float64 {
	if a.schedLat == nil || b.schedLat == nil || len(a.schedLat.Counts) != len(b.schedLat.Counts) {
		return 0
	}
	var total uint64
	for i := range a.schedLat.Counts {
		total += a.schedLat.Counts[i] - b.schedLat.Counts[i]
	}
	if total == 0 {
		return 0
	}
	target := uint64(float64(total) * 0.99)
	var cum uint64
	for i := range a.schedLat.Counts {
		cum += a.schedLat.Counts[i] - b.schedLat.Counts[i]
		if cum > target {
			// Buckets[i+1] is the bucket's upper edge; the last is +Inf.
			hi := a.schedLat.Buckets[i+1]
			if hi > 1e9 {
				hi = a.schedLat.Buckets[i]
			}
			return hi
		}
	}
	return 0
}

// peakRSSMiB reads VmHWM from /proc/self/status (0 where unavailable).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// hostInfo identifies the machine a baseline was measured on.
type hostInfo struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
}

func readHostInfo() hostInfo {
	hi := hostInfo{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				if _, v, ok := strings.Cut(line, ":"); ok {
					hi.CPUModel = strings.TrimSpace(v)
					break
				}
			}
		}
	}
	return hi
}
