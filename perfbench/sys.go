package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the CPU time (user + system) of this process plus that of
// every child it has waited for; the proc backend's workers are reaped
// at the end of each Run, so a difference taken around a Run includes
// them.
func cpuTime() time.Duration {
	var self, children syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self) // cannot fail for these arguments
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &children)
	tv := func(t syscall.Timeval) time.Duration { return time.Duration(t.Nano()) }
	return tv(self.Utime) + tv(self.Stime) + tv(children.Utime) + tv(children.Stime)
}

// peakRSSMiB returns this process's peak resident set and that of its
// largest reaped child, in MiB.
func peakRSSMiB() (self, child float64) {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	self = float64(ru.Maxrss) / 1024 // kilobytes on Linux
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru)
	return self, float64(ru.Maxrss) / 1024
}

// runRecord describes the machine and inputs of one benchmark run.
type runRecord struct {
	Workload    string `json:"workload"`
	Seed        uint64 `json:"seed"`
	Trace       bool   `json:"trace"`
	InputFormat string `json:"input_format"`
	CPUModel    string `json:"cpu_model"`
	Cores       int    `json:"cores"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	AVX2        bool   `json:"avx2"`
	AVX512      bool   `json:"avx512f"`
	Attempted   int64  `json:"attempted"`
	Failed      int64  `json:"failed"`
	// StealShare is the share of the machine's CPU time the hypervisor
	// gave to other guests during the run (/proc/stat): figures from runs
	// with a high share are slow for reasons outside the program.
	StealShare float64 `json:"steal_share"`
	// RunWallS is the median wall time of the timed Runs with the stolen
	// time left in; run_s takes it out.
	RunWallS float64 `json:"run_wall_s"`
}

// stealMeter measures the share of the machine's CPU time that other
// guests of the host took from a starting point on.
type stealMeter struct{ total, steal float64 }

func startSteal() stealMeter {
	total, steal := cpuTicks()
	return stealMeter{total, steal}
}

// share is the stolen share of the CPU time since m was started, or 0
// where /proc/stat cannot be read.
func (m stealMeter) share() float64 {
	total, steal := cpuTicks()
	if total <= m.total {
		return 0
	}
	return (steal - m.steal) / (total - m.total)
}

// cpuTicks returns the machine's total and stolen CPU ticks from the
// aggregate line of /proc/stat, or zeros where it cannot be read.
func cpuTicks() (total, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user..steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

func newRunRecord(w *workload, seed uint64, trace bool) runRecord {
	rec := runRecord{
		Workload: w.name, Seed: seed, Trace: trace, InputFormat: w.format,
		Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return rec
	}
	for _, line := range strings.Split(string(data), "\n") {
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(key) {
		case "model name":
			if rec.CPUModel == "" {
				rec.CPUModel = strings.TrimSpace(val)
			}
		case "flags":
			for _, f := range strings.Fields(val) {
				rec.AVX2 = rec.AVX2 || f == "avx2"
				rec.AVX512 = rec.AVX512 || f == "avx512f"
			}
		}
	}
	return rec
}
