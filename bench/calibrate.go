package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// Speed calibration.
//
// The box this benchmark is sized for is a shared 2-vCPU VM. Each of its
// vCPUs flips, every 0.1-1 s and independently of the other, between a fast
// and a 1.4 times slower state (a co-tenant on the sibling hardware thread),
// and is held off the core for 2 % of the time in some minutes and 30 % in
// others; the guest's counters show little of either. Identical passes
// therefore vary with a standard deviation of 6-14 %, a run's median pass
// with 6-10 %, and two sets of runs of the same code differ by more than any
// bound worth declaring (README.md, "Why times are calibrated").
//
// So a run measures the machine while it measures the program. A fixed kernel
// of standard-library work runs in short slices between experiments, about a
// tenth of a pass, and every time measured in the pass is divided by how much
// slower than its reference the kernel ran: a control variate whose
// expectation is known.
//
// The kernel runs in a process of its own, so that nothing the program under
// test does to its heap, collector or scheduler can reach it: own heap, the
// collector off during a slice, one thread. Before each slice that thread is
// pinned to the CPU the client's experiment has just run on, because the two
// vCPUs are disturbed independently, and the client waits for the slice, so
// that CPU is free. The slice reports its wall time, which contains the time
// the vCPU was held off the core as a pass's wall time does, and its CPU
// time, which does not: as process CPU time does not, and as the median
// experiment does not, being shorter than the gaps between hold-offs.

const (
	// calibrationPeriod of experiment time buys one slice of the kernel.
	calibrationPeriod = 25 * time.Millisecond
	// maxBurst bounds the slices run between two experiments; what a long
	// experiment leaves owed is paid after the following ones, spread over
	// the states of the machine instead of sampling one of them twenty times.
	maxBurst = 2
	// sliceIterations sizes a slice to about 2.5 ms: a tenth of the period.
	sliceIterations = 48
	// referenceSliceNs is a slice's time on the reference box in its fast
	// state. It only fixes the scale of the calibrated numbers (near the raw
	// ones on that box); comparing two commits does not depend on it, and no
	// value measured inside a run could replace it, since the state of the
	// machine during that run is what has to be divided out.
	referenceSliceNs = sliceIterations * 52_000
	// collectEvery slices the kernel process collects its garbage, after it
	// has answered.
	collectEvery = 16
)

type calibrationDoc struct {
	Name   string
	Labels map[string]string
	Items  []calibrationItem
}

type calibrationItem struct {
	ID    int
	Key   string
	Ports []int
	On    bool
}

var calibrationInput = func() calibrationDoc {
	d := calibrationDoc{Name: "calibration", Labels: map[string]string{}}
	for i := 0; i < 8; i++ {
		d.Labels[fmt.Sprintf("label-%d", i)] = fmt.Sprintf("value-%d", i*7)
	}
	for i := 0; i < 24; i++ {
		d.Items = append(d.Items, calibrationItem{
			ID: i, Key: fmt.Sprintf("item-%d", i), Ports: []int{80, 443, 8000 + i}, On: i%2 == 0,
		})
	}
	return d
}()

// runKernelSlice encodes and decodes the fixed document sliceIterations
// times. The decoded document is checked so that the work cannot be optimised
// away and a broken kernel cannot pass unnoticed.
func runKernelSlice() error {
	for i := 0; i < sliceIterations; i++ {
		b, err := json.Marshal(&calibrationInput)
		var out calibrationDoc
		if err == nil {
			err = json.Unmarshal(b, &out)
		}
		if err != nil || len(out.Items) != len(calibrationInput.Items) {
			return fmt.Errorf("calibration kernel round trip failed: %v", err)
		}
	}
	return nil
}

// kernelMain is the kernel process (`bench -kernel`, GOMAXPROCS=1). A request
// is the CPU to run on (int16, negative for "wherever"); the answer is the
// slice's wall and CPU time in nanoseconds. It ends when its input does.
func kernelMain() error {
	runtime.LockOSThread()
	debug.SetGCPercent(-1)
	if err := runKernelSlice(); err != nil { // fills encoding/json's caches
		return err
	}
	in := bufio.NewReader(os.Stdin)
	var request [2]byte
	var answer [16]byte
	pinned := -1
	for n := 1; ; n++ {
		if _, err := io.ReadFull(in, request[:]); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		if cpu := int(int16(binary.LittleEndian.Uint16(request[:]))); cpu >= 0 && cpu != pinned {
			pinThread(cpu)
			pinned = cpu
		}
		cpu0, start := threadCPUTime(), time.Now()
		if err := runKernelSlice(); err != nil {
			return err
		}
		wall := time.Since(start)
		cpu := threadCPUTime() - cpu0
		binary.LittleEndian.PutUint64(answer[0:], uint64(wall.Nanoseconds()))
		binary.LittleEndian.PutUint64(answer[8:], uint64(cpu.Nanoseconds()))
		if _, err := os.Stdout.Write(answer[:]); err != nil {
			return err
		}
		if n%collectEvery == 0 {
			runtime.GC()
		}
	}
}

// threadCPUTime is the CPU time of the calling thread alone: the runtime's
// other threads (its monitor, a collection still sweeping) are not the
// kernel. getrusage(RUSAGE_THREAD) is only brought up to date at scheduler
// ticks, longer apart than a slice.
func threadCPUTime() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// pinThread binds the calling thread to one CPU. Where that is not allowed
// the slice runs wherever the scheduler puts it (usually the waker's CPU),
// which calibrates a little less well and is no reason to stop.
func pinThread(cpu int) {
	var mask [16]uint64 // 1,024 CPUs
	if cpu >= 64*len(mask) {
		return
	}
	mask[cpu/64] = 1 << (cpu % 64)
	syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
}

// currentCPU is the CPU the calling thread runs on (field 39 of its stat
// line), or -1 where /proc does not say.
func currentCPU() int {
	b, err := os.ReadFile("/proc/thread-self/stat")
	if err != nil {
		return -1
	}
	// The command name, in parentheses, may itself hold spaces and
	// parentheses; the fields after its last one start at number 3.
	s := string(b)
	if f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:]); len(f) > 36 {
		if cpu, err := strconv.Atoi(f[36]); err == nil {
			return cpu
		}
	}
	return -1
}

// kernel is a running kernel process. One closed-loop client owns it.
type kernel struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out io.Reader
}

func startKernel() (*kernel, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating own binary: %w", err)
	}
	cmd := exec.Command(self, "-kernel")
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	k := &kernel{cmd: cmd}
	if k.in, err = cmd.StdinPipe(); err != nil {
		return nil, err
	}
	if k.out, err = cmd.StdoutPipe(); err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the calibration kernel: %w", err)
	}
	return k, nil
}

// startKernels starts one kernel process per closed-loop client.
func startKernels(clients int) ([]*kernel, error) {
	kernels := make([]*kernel, 0, clients)
	for len(kernels) < clients {
		k, err := startKernel()
		if err != nil {
			return nil, errors.Join(err, stopKernels(kernels))
		}
		kernels = append(kernels, k)
	}
	return kernels, nil
}

// stopKernels ends the kernel processes and waits for them.
func stopKernels(kernels []*kernel) error {
	var errs []error
	for _, k := range kernels {
		errs = append(errs, k.in.Close(), k.cmd.Wait())
	}
	return errors.Join(errs...)
}

// slice runs one slice on the given CPU and waits for it.
func (k *kernel) slice(cpu int) (wall, cpuTime time.Duration, err error) {
	var request [2]byte
	binary.LittleEndian.PutUint16(request[:], uint16(int16(cpu)))
	if _, err := k.in.Write(request[:]); err != nil {
		return 0, 0, fmt.Errorf("calibration kernel: %w", err)
	}
	var answer [16]byte
	if _, err := io.ReadFull(k.out, answer[:]); err != nil {
		return 0, 0, fmt.Errorf("calibration kernel: %w", err)
	}
	wall = time.Duration(binary.LittleEndian.Uint64(answer[0:]))
	cpuTime = time.Duration(binary.LittleEndian.Uint64(answer[8:]))
	if wall <= 0 || cpuTime <= 0 {
		return 0, 0, fmt.Errorf("calibration kernel: slice took %v wall, %v CPU", wall, cpuTime)
	}
	return wall, cpuTime, nil
}

// calibration accumulates the slices of one client over one timed region. It
// is owned by that client's goroutine.
type calibration struct {
	kernel *kernel
	debt   time.Duration // experiment time not yet matched by slices
	waited time.Duration // time the client spent on slices: not the program's
	slices int
	// Sums of reference time over measured time, per slice. The mean of these
	// speeds, not of the times, is what a pass has to be scaled by: slices
	// are drawn evenly over wall time, so a slow stretch is already drawn
	// more often, in proportion to the time it added.
	wallSpeed, cpuSpeed float64
	err                 error
}

// owe records d of experiment time and runs the slices it pays for.
func (c *calibration) owe(d time.Duration) {
	c.debt += d
	for burst := 0; burst < maxBurst && c.debt >= calibrationPeriod; burst++ {
		c.debt -= calibrationPeriod
		c.slice()
	}
}

// slice runs one slice where the caller is running now.
func (c *calibration) slice() {
	if c.err != nil {
		return
	}
	start := time.Now()
	wall, cpu, err := c.kernel.slice(currentCPU())
	c.waited += time.Since(start)
	if err != nil {
		c.err = err
		return
	}
	c.slices++
	c.wallSpeed += referenceSliceNs / float64(wall.Nanoseconds())
	c.cpuSpeed += referenceSliceNs / float64(cpu.Nanoseconds())
}

// merge folds another client's slices into c.
func (c *calibration) merge(o calibration) {
	c.waited += o.waited
	c.slices += o.slices
	c.wallSpeed += o.wallSpeed
	c.cpuSpeed += o.cpuSpeed
	if c.err == nil {
		c.err = o.err
	}
}

// factors are how many times slower than its reference the kernel ran, by
// its wall time and by its CPU time: above 1 on a disturbed machine. Times
// measured alongside are divided by one of them. A region too short to have
// bought a slice is left as measured.
func (c *calibration) factors() (wall, cpu float64) {
	if c.slices == 0 {
		return 1, 1
	}
	return float64(c.slices) / c.wallSpeed, float64(c.slices) / c.cpuSpeed
}
