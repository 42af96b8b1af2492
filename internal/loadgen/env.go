package loadgen

import (
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"coscale/internal/buildinfo"
)

// Env records where a result was measured.
type Env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Build      string `json:"build"` // buildinfo banner, with the VCS commit when built from a checkout
	OSArch     string `json:"os_arch"`
}

// CurrentEnv describes this process.
func CurrentEnv() Env {
	return Env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Build:      buildinfo.Version("coscale-loadgen"),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// rssMB returns the process's resident set in MB, falling back to the
// memory the Go runtime holds from the OS where /proc is unavailable.
func rssMB() float64 {
	if data, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 1 {
			if pages, err := strconv.ParseFloat(f[1], 64); err == nil {
				return pages * float64(os.Getpagesize()) / (1 << 20)
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys-ms.HeapReleased) / (1 << 20)
}

// runtimeSnap is the Go runtime's cumulative allocation and GC counters.
type runtimeSnap struct {
	alloc  uint64
	numGC  uint32
	gcCPU  float64 // seconds of CPU spent in GC
	allCPU float64 // seconds of CPU available to the process
}

func readRuntime() runtimeSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := runtimeSnap{alloc: ms.TotalAlloc, numGC: ms.NumGC}
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		s.allCPU = samples[1].Value.Float64()
	}
	return s
}

// runtimeDelta is what the runtime did during one window.
type runtimeDelta struct {
	allocMBPerOp float64
	gcPerS       float64
	gcCPUFrac    float64
}

func (s runtimeSnap) sub(before runtimeSnap, elapsed time.Duration, ops int) runtimeDelta {
	var d runtimeDelta
	if ops > 0 {
		d.allocMBPerOp = float64(s.alloc-before.alloc) / (1 << 20) / float64(ops)
	}
	if sec := elapsed.Seconds(); sec > 0 {
		d.gcPerS = float64(s.numGC-before.numGC) / sec
	}
	if cpu := s.allCPU - before.allCPU; cpu > 0 {
		d.gcCPUFrac = (s.gcCPU - before.gcCPU) / cpu
	}
	return d
}
