package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostInfo is printed with every report so a noisy set of runs can be
// attributed to the host without rerunning: the per-round steal share and
// calibration spin say whether the box or the code moved.
type hostInfo struct {
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	Commit     string    `json:"commit"`
	StealPct   []float64 `json:"steal_pct_per_round"`
	CalibMs    []float64 `json:"calib_ms_per_round"`
}

func newHostInfo() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTicks is the aggregate "cpu" line of /proc/stat: jiffies stolen by the
// hypervisor and jiffies in total.
type cpuTicks struct {
	steal, total uint64
	ok           bool
}

func readCPUTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal guest guest_nice
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		if i < 8 { // guest time is already counted in user/nice
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	t.ok = true
	return t
}

// stealPct is the share of all CPU time between two readings that the
// hypervisor gave to someone else, -1 where /proc/stat does not say.
func stealPct(before, after cpuTicks) float64 {
	if !before.ok || !after.ok || after.total <= before.total {
		return -1
	}
	return 100 * float64(after.steal-before.steal) / float64(after.total-before.total)
}

// calibSink keeps the calibration loop's result alive.
var calibSink uint64

// calibSpin times a fixed arithmetic loop that touches no memory: how fast
// one core runs right now, independent of the code under test.
func calibSpin() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 8_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return time.Since(t0)
}

// readAllocBytes is the cumulative bytes allocated on the heap.
func readAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runtimeCounters is a snapshot of the cumulative runtime/metrics the
// benchmark reports as deltas.
type runtimeCounters struct {
	allocObjects, gcCycles uint64
	gcPause                time.Duration
}

func readRuntimeCounters() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeCounters{
		allocObjects: s[0].Value.Uint64(),
		gcCycles:     s[1].Value.Uint64(),
		gcPause:      time.Duration(ms.PauseTotalNs),
	}
}

// liveHeapMB forces two collections (the second frees what the first one's
// finalizers and sync.Pool victim caches released) and returns the bytes of
// live heap objects: retained tables, factor cache, coefficient mirrors.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}
