// Command perfbench is the repository benchmark: whole workloads on the
// Go-native region runtime (package rcgo), measured end to end and, in a
// separate traced run, layer by layer.
//
//	go run . --workload replay-rc --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//	replay-rc         the eight paper programs replayed with the op mix
//	                  each produces on the VM in nq mode (every pointer
//	                  store counted)
//	replay-annotated  the same programs with the VM's qs mix (annotated
//	                  stores checked, not counted)
//	service           one region per request on nproc client goroutines,
//	                  with ownership, off-heap slabs and observability on
//
// The run prints one line per check problem and per metric, then, as the
// last line of standard output, one JSON object with the keys correct,
// attempted, failed and metrics. It exits non-zero if any differential,
// correctness or trace-consistency check fails. BENCHMARK_NOTES.md maps
// each layer metric to the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rcgo"
)

// An untraced run sets up this many times and reports the median as
// setup_s.
const setups = 5

type config struct {
	workload string
	seed     uint64
	duration time.Duration
	trace    bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result collects a run's metrics and check outcomes.
type result struct {
	attempted, failed int64
	names             []string
	metrics           map[string]metric
	problems          []string
	notes             []string
}

func newResult() *result { return &result{metrics: map[string]metric{}} }

func (r *result) add(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.check(false, "metric %s is not a number (%v)", name, v)
		v = 0
	}
	if _, dup := r.metrics[name]; !dup {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{v, unit}
}

func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) info(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// checkArena runs the end-of-run correctness checks every workload
// shares. tradOK says whether the traditional region holds exactly the
// workload's own globals.
func checkArena(res *result, what string, a *rcgo.Arena, tradOK bool) {
	if rep := a.Audit(); !rep.OK {
		res.check(false, "%s: audit: %v", what, rep)
	}
	st := a.Stats()
	trad := a.Traditional().Objects()
	res.check(tradOK, "%s: traditional region holds %d objects", what, trad)
	res.check(st.LiveObjects-trad == 0, "%s: %d live objects outside the traditional region", what, st.LiveObjects-trad)
	res.check(st.LiveRegions == 1, "%s: %d live regions, want only the traditional region", what, st.LiveRegions)
	res.check(st.DeferredRegions == 0, "%s: %d deferred regions not reclaimed", what, st.DeferredRegions)
	if c := a.Counters(); a.MetricsEnabled() {
		res.check(c.Acquires == c.Releases, "%s: %d acquires, %d releases", what, c.Acquires, c.Releases)
	}
	if ss, ok := a.SlabStats(); ok {
		res.check(ss.InUsePages == 0, "%s: %d slab pages still in use", what, ss.InUsePages)
	}
}

// addCall prints one runtime call's count, latency quantiles and
// failures. Counts and failures are per unit (replay pass or request).
func addCall(res *result, k spanName, count, fail float64, h *hist, clk *clock) {
	name := k.String()
	res.add(name+".count", count, "calls/unit")
	if k == cDeleteDeferred {
		return
	}
	res.add(name+".ns_p50", clk.ns(h.quantile(0.50)), "ns")
	res.add(name+".ns_p99", clk.ns(h.quantile(0.99)), "ns")
	res.add(name+".fail", fail, "calls/unit")
}

func addOwnerWaits(res *result, waits, ctxCalls, waitNs float64) {
	res.add("owner.waits", waits, "count")
	res.add("owner.wait_ratio", ratio(waits, ctxCalls), "ratio")
	res.add("owner.wait_ns_total", waitNs, "ns")
	res.add("owner.wait_ns_mean", ratio(waitNs, waits), "ns")
}

func addSlab(res *result, refills, requests, mappedBytes float64) {
	res.add("slab.refills", refills, "count")
	res.add("slab.refills_per_kreq", ratio(refills, requests/1000), "1/kreq")
	res.add("slab.mapped_mib", mappedBytes/(1<<20), "MiB")
}

func addGC(res *result, g gcSnap, calls float64) {
	res.add("gc.cycles", float64(g.cycles), "count")
	res.add("gc.cycles_per_mop", ratio(float64(g.cycles), calls/1e6), "1/Mop")
	res.add("gc.pause_ms_total", float64(g.pauseNs)/1e6, "ms")
}

func addRingTrace(res *result, events, dropped, requests float64) {
	res.add("trace.events", events, "count")
	res.add("trace.events_per_req", ratio(events, requests), "1/req")
	res.add("trace.dropped", dropped, "count")
	res.add("trace.dropped_ratio", ratio(dropped, events), "ratio")
}

// addTraceSummary prints the traced phase's self time per layer and the
// tracing overhead, and checks the spans for self-consistency. workers
// is the number of goroutines whose root spans share the wall clock.
func addTraceSummary(res *result, tr *tracer, clk *clock, untraced, traced float64, elapsed time.Duration, workers int) {
	res.check(tr.violations == 0, "trace: %d span violations, first: %s", tr.violations, tr.firstBad)
	var selfSum int64
	for l := layer(0); l < numLayers; l++ {
		selfSum += tr.self[l]
		res.add("self."+layerNames[l]+".pct", 100*ratio(float64(tr.self[l]), float64(tr.roots)), "%")
	}
	rootsNs := clk.ns(tr.roots)
	res.add("self.traced_wall_ms", rootsNs/1e6, "ms")
	res.check(selfSum <= tr.roots, "trace: layer self times sum to %d ticks, more than the %d ticks of wall time", selfSum, tr.roots)
	// 1% slack for the tick-to-nanosecond calibration.
	wall := float64(elapsed.Nanoseconds()) * float64(workers)
	res.check(rootsNs <= wall*1.01, "trace: root spans cover %.0f ns, more than the %.0f ns the phase ran on %d workers", rootsNs, wall, workers)
	res.add("trace.untraced_per_ref_s", untraced, "1/ref-s")
	res.add("trace.traced_per_ref_s", traced, "1/ref-s")
	res.add("trace_overhead_pct", 100*(ratio(untraced, traced)-1), "%")
	res.add("trace.timer_ns", clk.timerNs, "ns")
}

func spanPath(cfg config) string {
	return filepath.Join(".bench_build", "spans", fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "replay-rc, replay-annotated or service")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 for the traced run that reports per-layer metrics")
	flag.Parse()
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	cfg.duration = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	var runWorkload func() (*result, error)
	switch cfg.workload {
	case "replay-rc":
		runWorkload = func() (*result, error) { return runReplay(cfg, rcgo.ModeNQ) }
	case "replay-annotated":
		runWorkload = func() (*result, error) { return runReplay(cfg, rcgo.ModeQS) }
	case "service":
		runWorkload = func() (*result, error) { return runService(cfg) }
	default:
		fmt.Fprintln(os.Stderr, "perfbench: unknown workload", cfg.workload)
		return 2
	}
	// A replay is one goroutine's closed loop: on one P, the collector's
	// work lands on the replaying CPU too, so the other vCPU's
	// availability on a shared host does not leak into its figures. The
	// service runs one client per CPU.
	if cfg.workload != "service" {
		runtime.GOMAXPROCS(1)
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%d nproc=%d gomaxprocs=%d go=%s\n",
		cfg.workload, cfg.seed, seconds, trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	res, err := runWorkload()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, n := range res.notes {
		fmt.Println("  " + n)
	}
	for _, p := range res.problems {
		fmt.Println("CHECK FAILED: " + p)
	}
	for _, n := range res.names {
		m := res.metrics[n]
		fmt.Printf("  %-34s %16.6g %s\n", n, m.Value, m.Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(res.problems) == 0, res.attempted, res.failed, res.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if len(res.problems) > 0 {
		return 1
	}
	return 0
}
