package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct {
	total, idle, steal uint64
}

// parseCPUTimes reads the first line of /proc/stat:
// cpu user nice system idle iowait irq softirq steal guest guest_nice.
// Guest time is already contained in user/nice and is not added again.
func parseCPUTimes(stat string) (cpuTimes, bool) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, false
	}
	var t cpuTimes
	for i, s := range f[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return cpuTimes{}, false
		}
		t.total += v
		switch i {
		case 3, 4: // idle, iowait
			t.idle += v
		case 7:
			t.steal = v
		}
	}
	return t, true
}

func readCPUTimes() (cpuTimes, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, false
	}
	return parseCPUTimes(string(b))
}

// processCPUSeconds is this process's user+system CPU time over all
// threads, GC workers included.
func processCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB reads VmHWM, the process's resident-set high-water mark.
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

// resetPeakRSS restarts the resident-set high-water mark at the current
// resident set. Where the kernel does not allow it the mark keeps rising, and
// a reading after the reset is the peak of the run so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}

func loadAverage() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	f := strings.Fields(string(b))
	if len(f) < 3 {
		return "unknown"
	}
	return strings.Join(f[:3], " ")
}

// environment is sampled when a run starts; report prints it with what the
// rest of the machine did meanwhile, so an outlier run explains itself.
type environment struct {
	loadAtStart string
	cpuAtStart  cpuTimes
	cpuOK       bool
	selfAtStart float64
}

func startEnvironment() *environment {
	e := &environment{loadAtStart: loadAverage(), selfAtStart: processCPUSeconds()}
	e.cpuAtStart, e.cpuOK = readCPUTimes()
	return e
}

// report prints the environment block. Steal is hypervisor time taken from
// this VM; foreign is CPU time other processes of this VM used; both are
// shares of the machine's total CPU capacity over the run.
func (e *environment) report(w io.Writer) {
	fmt.Fprintf(w, "environment: nproc=%d GOMAXPROCS=%d %s %s/%s cpu=%q load_at_start=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		cpuModel(), e.loadAtStart)
	now, ok := readCPUTimes()
	if total := float64(now.total - e.cpuAtStart.total); ok && e.cpuOK && total > 0 {
		const ticksPerSecond = 100 // USER_HZ on every Linux this runs on
		busy := total - float64(now.idle-e.cpuAtStart.idle)
		steal := float64(now.steal - e.cpuAtStart.steal)
		self := (processCPUSeconds() - e.selfAtStart) * ticksPerSecond
		foreign := busy - steal - self
		if foreign < 0 {
			foreign = 0
		}
		fmt.Fprintf(w, " steal=%.1f%% foreign_cpu=%.1f%%", 100*steal/total, 100*foreign/total)
	} else {
		fmt.Fprint(w, " steal=unknown foreign_cpu=unknown")
	}
	fmt.Fprintln(w)
}
