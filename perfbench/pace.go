package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The shared host the benchmark is sized for changes speed by up to a
// factor of two within seconds as other tenants' load comes and goes: a
// fixed kernel on each of the two cores, counted once a second for a
// minute, ran 2,000 to 4,700 times a second. A run's figures followed the
// host: over five runs of the same code the closed loop's wall-clock
// throughput spread by up to 0.29. A run therefore measures in segments of
// segmentLen and between segments calibrates the host's pace:
//
//   - a reference kernel, made only of standard-library code, runs on
//     every core at once, each copy timed by its thread's CPU clock; its
//     time over the nominal time is the CPU pace, 1 on a quiet core and 2
//     on a core at half speed;
//   - the kernel leaves out time stolen from the virtual CPUs, which
//     still delays the program, so the segment's pace is the mean CPU pace
//     of the calibrations on either side of it, divided by the share of
//     CPU time not stolen during it (from /proc/stat).
//
// Each segment's latencies and measured time are divided by its pace, so
// the gated timings read as on a host of nominal speed. A set-up is timed
// by the process's CPU clock and divided by the CPU pace alone.
const segmentLen = time.Second

// refNominal is the reference kernel's CPU time per repetition on a quiet
// core of the 2.1 GHz Intel Xeon virtual machine the benchmark was sized
// on. It only sets the scale of the paced figures.
const refNominal = 26 * time.Microsecond

// refReps is how many repetitions a calibration runs on each core: about
// 20 ms.
const refReps = 600

// reference is one core's copy of the reference kernel's data. Its work
// mixes float math, number formatting, map lookups, sorting and a
// checksum, and allocates nothing, so no collection lands in a
// calibration.
type reference struct {
	keys    []uint64
	sorted  []uint64
	m       map[uint64]float64
	buf     []byte
	scratch []byte
	sink    float64
}

func newReference() *reference {
	rng := rand.New(rand.NewSource(1))
	r := &reference{keys: make([]uint64, 512), sorted: make([]uint64, 512), m: map[uint64]float64{}, buf: make([]byte, 8<<10), scratch: make([]byte, 0, 4<<10)}
	for i := range r.keys {
		r.keys[i] = rng.Uint64()
		r.m[r.keys[i]] = rng.Float64()
	}
	rng.Read(r.buf) //nolint:errcheck // math/rand's Read never fails
	return r
}

// work is one repetition of the reference kernel.
func (r *reference) work() {
	acc := 0.0
	for i := 1; i <= 128; i++ {
		x := float64(i) / 64
		acc += math.Exp(-x) * math.Log1p(x) / math.Sqrt(x)
	}
	out := r.scratch[:0]
	for i := 0; i < 64; i++ {
		out = strconv.AppendFloat(out, acc*float64(i+1), 'g', -1, 64)
	}
	for _, k := range r.keys {
		acc += r.m[k]
	}
	copy(r.sorted, r.keys)
	slices.Sort(r.sorted)
	r.scratch = out
	r.sink += acc + float64(crc32.ChecksumIEEE(r.buf)) + float64(len(out)) + float64(r.sorted[0]>>60)
}

// pacer calibrates the host's pace.
type pacer struct {
	refs         []*reference
	cpu          float64   // the latest calibration's CPU pace
	total, steal uint64    // /proc/stat CPU ticks when the segment began
	all          []float64 // every segment's pace
}

func newPacer() *pacer {
	p := &pacer{}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		p.refs = append(p.refs, newReference())
	}
	p.cpu = p.calibrate()
	p.total, p.steal = cpuTicks()
	return p
}

// segment ends a segment, calibrates, and returns the paces to divide the
// segment's times by: pace for wall-clock times, cpu for CPU times, which
// leave out stolen time already. The next segment begins when it returns.
func (p *pacer) segment() (pace, cpu float64) {
	total, steal := cpuTicks()
	kept := 1.0
	if total > p.total && steal >= p.steal {
		kept = max(0.1, 1-float64(steal-p.steal)/float64(total-p.total))
	}
	before := p.cpu
	p.cpu = p.calibrate()
	cpu = (before + p.cpu) / 2
	pace = cpu / kept
	p.all = append(p.all, pace)
	p.total, p.steal = cpuTicks()
	return pace, cpu
}

// calibrate runs the reference on every core at once and returns the CPU
// pace. Each copy runs on a thread of its own and is timed by that
// thread's CPU clock, so a collection or a server goroutine finishing late
// cannot lengthen it; a slower core still does. The cores work in
// parallel, so their paces combine as rates do: the harmonic mean.
func (p *pacer) calibrate() float64 {
	took := make([]time.Duration, len(p.refs))
	var wg sync.WaitGroup
	for i, r := range p.refs {
		wg.Add(1)
		go func(i int, r *reference) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			start := threadCPU()
			for k := 0; k < refReps; k++ {
				r.work()
			}
			took[i] = threadCPU() - start
		}(i, r)
	}
	wg.Wait()
	rates := 0.0
	for _, t := range took {
		rates += float64(refReps*refNominal) / float64(t)
	}
	return float64(len(took)) / rates
}

// threadCPU is the calling thread's CPU time (Linux
// CLOCK_THREAD_CPUTIME_ID), which leaves out stolen time.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime: %v", errno))
	}
	return time.Duration(ts.Nano())
}

// cpuTicks reads the machine's CPU time and its stolen part, in clock
// ticks, from the aggregate line of /proc/stat; zeros if it cannot.
func cpuTicks() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for _, v := range f[1:9] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
	}
	steal, _ = strconv.ParseUint(f[8], 10, 64)
	return total, steal
}
