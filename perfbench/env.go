package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// gcSnap is the Go collector's cumulative state: cycles and bytes
// allocated from runtime/metrics, and the pause total from MemStats
// (runtime/metrics only offers pauses as a histogram).
type gcSnap struct {
	cycles     uint64
	allocBytes uint64
	pauseNs    uint64
}

func readGC() gcSnap {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcSnap{cycles: s[0].Value.Uint64(), allocBytes: s[1].Value.Uint64(), pauseNs: ms.PauseTotalNs}
}

func (a gcSnap) sub(b gcSnap) gcSnap {
	return gcSnap{a.cycles - b.cycles, a.allocBytes - b.allocBytes, a.pauseNs - b.pauseNs}
}

// rssBytes reads the process's resident set from /proc, falling back to
// the memory the Go runtime has mapped where /proc is missing.
func rssBytes() uint64 {
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 1 {
			if pages, err := strconv.ParseUint(f[1], 10, 64); err == nil {
				return pages * uint64(os.Getpagesize())
			}
		}
	}
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// sampler watches a phase's resident memory from its own goroutine,
// every 5 ms.
type sampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex
	peak uint64 // since the last mark
	all  uint64 // over the phase
}

func startSampler() *sampler {
	s := &sampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *sampler) sample() {
	rss := rssBytes()
	s.mu.Lock()
	s.peak, s.all = max(s.peak, rss), max(s.all, rss)
	s.mu.Unlock()
}

// mark returns the peak RSS since the previous mark, in MiB, and starts
// the next stretch.
func (s *sampler) mark() float64 {
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.peak
	s.peak = 0
	return float64(p) / (1 << 20)
}

// finish stops the sampler and returns the peak RSS it saw over the
// phase, in MiB.
func (s *sampler) finish() float64 {
	close(s.stop)
	s.wg.Wait()
	s.sample()
	return float64(s.all) / (1 << 20)
}

// cpuSnap is the process's CPU time and the machine's steal time (time
// the hypervisor ran something else while a vCPU wanted to run).
type cpuSnap struct {
	procNs  int64
	stealNs int64
}

// procCPU is the process's CPU time in ns.
func procCPU() int64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func readCPU() cpuSnap {
	s := cpuSnap{procNs: procCPU()}
	if b, err := os.ReadFile("/proc/stat"); err == nil {
		if f := strings.Fields(strings.SplitN(string(b), "\n", 2)[0]); len(f) > 8 && f[0] == "cpu" {
			if v, err := strconv.ParseInt(f[8], 10, 64); err == nil {
				s.stealNs = v * 1e7 // USER_HZ is 100 on Linux
			}
		}
	}
	return s
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
