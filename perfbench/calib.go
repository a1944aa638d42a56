package main

import (
	"runtime"
	"sync/atomic"
)

// The host a run lands on does not run at one speed: on a shared
// machine the same binary's CPU-bound loop can run at nearly twice the
// rate in one hour as in another (frequency scaling, a busy sibling
// hyperthread, other tenants).
// That moves every time figure of every workload alike, and by more
// than any bound a regression check could use.
//
// So each run measures the machine's current speed with a fixed kernel
// that calls no repository code, interleaved with the workload, and
// states its times in reference time: a measured CPU time multiplied by
// the speed factor, the kernel's current rate over refStepsPerUs. A
// reference second is the time the kernel takes for refStepsPerUs*1e6
// steps; the rate is about what the kernel ran at on the 2-vCPU Xeon
// KVM guest the benchmark was defined on, so reference figures there
// read close to CPU-time figures. A change to the runtime moves the
// workload and not the kernel, so it moves the reference figures by its
// full size.

// refStepsPerUs is the kernel's rate on the reference machine, in steps
// per microsecond of thread CPU time.
const refStepsPerUs = 850

// calibSteps is one calibration chunk: about 1.5 ms of thread CPU time
// on the reference machine.
const calibSteps = 1_250_000

// calibWords is the kernel's working set, 32 KiB: it stays in a core's
// first-level cache, so the kernel is bound by instruction throughput,
// as the workloads' loops are, and feels the clock rate and a busy
// sibling hyperthread as they do. On the 2-vCPU guest, in an hour when
// the host ran everything slower, this kernel slowed by 2.3 times and
// the workloads by 2.1 to 2.6; a kernel bound by branch mispredictions
// slowed by only 1.8. A random-access kernel over a few MiB instead
// drifted by 10% while the workloads held steady: it feels how much of
// the shared cache other tenants hold, which the workloads barely do.
const calibShift = 12
const calibWords = 1 << calibShift

// calibrator runs the kernel on its caller's thread, one goroutine at a
// time.
type calibrator struct {
	buf []uint64
	x   uint64
	hot atomic.Uint64
}

func newCalibrator() *calibrator {
	c := &calibrator{buf: make([]uint64, calibWords), x: 0x9e3779b97f4a7c15}
	for i := range c.buf {
		c.buf[i] = uint64(i)
	}
	return c
}

// speed is kernel work done and the thread CPU time it took.
type speed struct {
	steps, ns int64
}

func (s *speed) add(o speed) { s.steps += o.steps; s.ns += o.ns }

// factor is how many reference nanoseconds one nanosecond of CPU time
// is worth at the measured speed; 1 when nothing was measured.
func (s speed) factor() float64 {
	if s.ns <= 0 || s.steps <= 0 {
		return 1
	}
	return float64(s.steps) / float64(s.ns) / (refStepsPerUs / 1e3)
}

// run times one chunk of the kernel: a multiply-add chain driving a
// read-modify-write at a pseudo-random word of the working set, and an
// atomic add every eighth step: loads, stores, multiplies and locked
// instructions, as in a region runtime's allocation and barrier paths.
func (c *calibrator) run() speed {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	buf, x := c.buf, c.x
	t0 := threadCPU()
	for i := 0; i < calibSteps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		j := x >> (64 - calibShift)
		buf[j] = buf[j]*31 + x
		if i&7 == 0 {
			c.hot.Add(buf[j] & 1)
		}
	}
	ns := threadCPU() - t0
	c.x = x
	return speed{calibSteps, ns}
}

// measure runs n chunks back to back, after one untimed chunk that
// brings the working set back into cache after the workload.
func (c *calibrator) measure(n int) speed {
	c.run()
	var s speed
	for i := 0; i < n; i++ {
		s.add(c.run())
	}
	return s
}

func minF(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		m = min(m, x)
	}
	return m
}

func maxF(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
