package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
)

// settings records the host and the run's parameters with every result, so
// two results can be told apart by more than their numbers.
type settings struct {
	CPU        string  `json:"cpu_model"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Scale      int     `json:"scale"`
	Workers    int     `json:"workers"`
	Traced     bool    `json:"traced"`
	Seconds    float64 `json:"seconds"`
}

func newSettings(w workload, seed uint64, seconds float64, traced bool) settings {
	return settings{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Workload:   w.Name,
		Seed:       seed,
		Scale:      w.Scale,
		Workers:    w.Workers(),
		Traced:     traced,
		Seconds:    seconds,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown"
// elsewhere).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// heapAllocs returns the cumulative bytes allocated on the Go heap.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
