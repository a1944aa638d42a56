package exp

// The Go-native runtime's interleaved A/B harness. Every cost the
// runtime claims — the sharding fabric, the advisor's gate, exclusive
// ownership, blocking hand-off, off-heap slabs — is one registered
// scenario below, measured by one loop (runAB) and recorded as one row
// type (ABRow) in the rcgo.bench/1 "ab" section. cmd/rcbench selects
// cells with -ab all|<group>|<cell>,... (EXPERIMENTS.md §"A/B harness").
//
// Methodology. Fixed work, not testing.Benchmark: a run starts a side's
// workers, each doing a fixed number of operations, and ns/op is wall
// time over total operations, so both sides do identical work and the
// two runs of a round stay adjacent in time. Each side first gets one
// unrecorded warm-up run at a quarter of its work (code paging, heap
// regrowth after the previous cell). The collector is quiesced
// (runtime.GC, then GOGC off) for every run unless the scenario
// measures GC pressure. Rounds alternate ABBA order so a first-runner
// advantage cancels. A row keeps every round's pair and derives all it
// reports from them with SummarizeAB: per-side medians, and the median
// and quartiles of the per-round paired deltas. Pairing cancels
// machine-load drift; medians on both sides keep the per-side numbers
// from contradicting the delta, as per-side minima beside a paired
// median could.

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"rcgo"
)

// ABSummary is what a row states about its pairs. SummarizeAB derives
// it, and BenchReport.Validate recomputes it.
type ABSummary struct {
	// BaselineNs and NsPerOp are the per-side medians of ns/op.
	BaselineNs float64 `json:"baseline_ns_op"`
	NsPerOp    float64 `json:"ns_op"`
	// DeltaPct is the median of the per-round paired deltas
	// 100·(baseline−variant)/baseline; positive means the variant is
	// faster. DeltaQ1Pct and DeltaQ3Pct are their quartiles.
	DeltaPct   float64 `json:"delta_pct"`
	DeltaQ1Pct float64 `json:"delta_q1_pct"`
	DeltaQ3Pct float64 `json:"delta_q3_pct"`
}

// GCBracket is the runtime.MemStats bracket of a cell that leaves the
// collector running, per side and summed over the rounds: GC-heap bytes
// allocated (what the collector must scan and sweep), stop-the-world
// pause time and collection cycles. Sums, not medians: they are
// volumes, and both sides run the same rounds. Zero on every other
// cell.
type GCBracket struct {
	BaselineHeapBytes int64 `json:"baseline_heap_bytes,omitempty"`
	HeapBytes         int64 `json:"heap_bytes,omitempty"`
	BaselineGCPauseNs int64 `json:"baseline_gc_pause_ns,omitempty"`
	GCPauseNs         int64 `json:"gc_pause_ns,omitempty"`
	BaselineNumGC     int64 `json:"baseline_num_gc,omitempty"`
	NumGC             int64 `json:"num_gc,omitempty"`
}

// ABRow is one A/B cell: the scenario at GOMAXPROCS cpu, the summary,
// and every round's [baseline_ns, variant_ns] pair in run order.
type ABRow struct {
	Name string `json:"name"`
	CPU  int    `json:"cpu"`
	ABSummary
	Pairs [][2]float64 `json:"pairs"`
	GCBracket
}

// SummarizeAB derives a row's summary from its pairs: per-side medians,
// and the median and quartiles of the paired deltas.
func SummarizeAB(pairs [][2]float64) ABSummary {
	if len(pairs) == 0 {
		return ABSummary{}
	}
	var base, variant, delta []float64
	for _, p := range pairs {
		base = append(base, p[0])
		variant = append(variant, p[1])
		delta = append(delta, 100*(p[0]-p[1])/p[0])
	}
	return ABSummary{
		BaselineNs: quantile(base, 0.5),
		NsPerOp:    quantile(variant, 0.5),
		DeltaPct:   quantile(delta, 0.5),
		DeltaQ1Pct: quantile(delta, 0.25),
		DeltaQ3Pct: quantile(delta, 0.75),
	}
}

// quantile sorts xs in place and interpolates linearly between the
// closest ranks, so p = 0.5 is the usual median of odd and even counts.
func quantile(xs []float64, p float64) float64 {
	sort.Float64s(xs)
	h := p * float64(len(xs)-1)
	i := int(h)
	if i+1 == len(xs) {
		return xs[i]
	}
	return xs[i] + (h-float64(i))*(xs[i+1]-xs[i])
}

// abWork is what each worker of a side does: iters operations on a.
type abWork func(a *rcgo.Arena, iters int) error

// abSide is one side of a scenario: workers goroutines each running
// work for iters operations on the arena that arena returns.
type abSide struct {
	workers, iters int
	arena          func() *rcgo.Arena
	work           abWork
}

// abSetup builds what a cell's rounds share and returns the baseline
// and variant sides plus the cleanup that releases it.
type abSetup func(cpu int) (baseline, variant abSide, cleanup func() error)

// abScenario is one registered cell. GC leaves the collector running
// and records the MemStats bracket.
type abScenario struct {
	Name, Group string
	Setup       abSetup
	GC          bool
}

// freshArena builds a new arena for every run.
func freshArena(opts ...rcgo.Option) func() *rcgo.Arena {
	return func() *rcgo.Arena { return rcgo.NewArena(opts...) }
}

// sameArena hands every run the arena Setup built.
func sameArena(a *rcgo.Arena) func() *rcgo.Arena {
	return func() *rcgo.Arena { return a }
}

func noCleanup() error { return nil }

// fresh is the Setup of a cell whose sides share nothing across rounds:
// cpu workers each, iters operations, a fresh arena per run, built with
// opts on the variant side.
func fresh(iters int, baseline, variant abWork, opts ...rcgo.Option) abSetup {
	return func(cpu int) (abSide, abSide, func() error) {
		return abSide{cpu, iters, freshArena(), baseline}, abSide{cpu, iters, freshArena(opts...), variant}, noCleanup
	}
}

// measure times one run of one side. With gc set the collector runs and
// the run's MemStats bracket {heap bytes, pause ns, cycles} is returned.
func measure(s abSide, iters int, gc bool) (float64, [3]int64, error) {
	a := s.arena()
	runtime.GC()
	var m0, m1 runtime.MemStats
	if gc {
		runtime.ReadMemStats(&m0)
	} else {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
	}
	errs := make(chan error, s.workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < s.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := s.work(a, iters); err != nil {
				errs <- err
			}
		}()
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	elapsed := time.Since(t0)
	var br [3]int64
	if gc {
		runtime.ReadMemStats(&m1)
		br = [3]int64{int64(m1.TotalAlloc - m0.TotalAlloc), int64(m1.PauseTotalNs - m0.PauseTotalNs), int64(m1.NumGC - m0.NumGC)}
	}
	select {
	case err := <-errs:
		return 0, br, err
	default:
	}
	return float64(elapsed.Nanoseconds()) / float64(s.workers*iters), br, nil
}

// runAB measures one scenario at the current GOMAXPROCS: a warm-up run
// of each side, then rounds ABBA-ordered rounds. div divides every
// side's work; recordings use 1.
func runAB(sc abScenario, cpu, rounds, div int) (row ABRow, err error) {
	base, variant, cleanup := sc.Setup(cpu)
	defer func() {
		if cerr := cleanup(); err == nil {
			err = cerr
		}
		if err != nil {
			err = fmt.Errorf("%s: %w", sc.Name, err)
		}
	}()
	sides := [2]abSide{base, variant}
	for i := range sides {
		sides[i].iters = max(1, sides[i].iters/div)
		if _, _, err := measure(sides[i], max(1, sides[i].iters/4), sc.GC); err != nil {
			return row, err
		}
	}
	row = ABRow{Name: sc.Name, CPU: cpu}
	var gc [2][3]int64
	for i := 0; i < rounds; i++ {
		order := []int{0, 1}
		if i%2 == 1 {
			order = []int{1, 0}
		}
		var ns [2]float64
		for _, s := range order {
			t, br, err := measure(sides[s], sides[s].iters, sc.GC)
			if err != nil {
				return row, err
			}
			ns[s] = t
			for k := range br {
				gc[s][k] += br[k]
			}
		}
		row.Pairs = append(row.Pairs, ns)
	}
	row.ABSummary = SummarizeAB(row.Pairs)
	if sc.GC {
		row.GCBracket = GCBracket{gc[0][0], gc[1][0], gc[0][1], gc[1][1], gc[0][2], gc[1][2]}
	}
	return row, nil
}

// RunAB runs the cells spec selects — comma-separated cell names, group
// names or "all", in registry order — at GOMAXPROCS cpu, rounds rounds
// each.
func RunAB(spec string, cpu, rounds int) ([]ABRow, error) {
	if cpu <= 0 || rounds <= 0 {
		return nil, fmt.Errorf("ab: cpu = %d and rounds = %d, want both > 0", cpu, rounds)
	}
	want := make(map[string]bool)
	for _, name := range strings.Split(spec, ",") {
		found := false
		for _, sc := range abScenarios {
			if name == "all" || name == sc.Group || name == sc.Name {
				want[sc.Name], found = true, true
			}
		}
		if !found {
			return nil, fmt.Errorf("ab: no cell or group %q (groups: fabric, advisor, own, contend, slab)", name)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cpu))
	var rows []ABRow
	for _, sc := range abScenarios {
		if want[sc.Name] {
			row, err := runAB(sc, cpu, rounds, 1)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// PrintAB renders A/B rows as a table, with the GC bracket under the
// cells that carry one.
func PrintAB(w io.Writer, rows []ABRow) {
	fmt.Fprintf(w, "%-30s %4s %6s %12s %12s %8s  %s\n",
		"cell", "cpu", "rounds", "baseline ns", "variant ns", "delta", "delta q1..q3")
	for _, r := range rows {
		fmt.Fprintf(w, "%-30s %4d %6d %12.1f %12.1f %+7.1f%%  %+.1f..%+.1f%%\n",
			r.Name, r.CPU, len(r.Pairs), r.BaselineNs, r.NsPerOp, r.DeltaPct, r.DeltaQ1Pct, r.DeltaQ3Pct)
		if g := r.GCBracket; g != (GCBracket{}) {
			fmt.Fprintf(w, "%-30s baseline: %d MiB allocated, %d GCs, %.2f ms paused; variant: %d MiB, %d GCs, %.2f ms\n",
				"", g.BaselineHeapBytes>>20, g.BaselineNumGC, float64(g.BaselineGCPauseNs)/1e6,
				g.HeapBytes>>20, g.NumGC, float64(g.GCPauseNs)/1e6)
		}
	}
}

// The registry. Work per side is sized so a run lasts tens to a few
// hundred milliseconds on a small box: long enough to average scheduler
// jitter, short enough that a round's two runs share machine state.
//
//   - fabric: a single-shard arena (WithShards(1), the pre-fabric
//     behaviour) against a fabric at least cpu shards wide, both under
//     a backdrop of fabricLive live regions (DESIGN.md §12).
//   - advisor: the advisor disarmed (the default) against armed from
//     birth; the delta reads negative, and its size is the armed cost
//     (DESIGN.md §13).
//   - own: the shared-path API against the same work through an Owner
//     token (DESIGN.md §14).
//   - contend: the single-worker TryAcquire/Release cycle against
//     AcquireContext, uncontended and then stormed by max(cpu, 2)
//     workers, so
//     the hand-off delta is negative by design: its size is what a
//     FIFO hand-off costs (DESIGN.md §15).
//   - slab: GC-heap object chunks against a shared off-heap slab store,
//     with slab-gc-pressure leaving the collector live (DESIGN.md §16).
var abScenarios = []abScenario{
	{Name: "fabric-parallel-alloc", Group: "fabric", Setup: fabricCell(120000, allocBatch(0, 8))},
	{Name: "fabric-parallel-alloc-setsame", Group: "fabric", Setup: fabricCell(100000, allocBatch(1, 8))},
	{Name: "fabric-parallel-delete", Group: "fabric", Setup: fabricCell(20000, churn)},
	{Name: "parallel-setsame", Group: "advisor", Setup: fresh(300000, setSame, setSame, rcgo.WithAdvisor())},
	{Name: "parallel-setref", Group: "advisor", Setup: fresh(150000, sharedSetRef, sharedSetRef, rcgo.WithAdvisor())},
	{Name: "own-alloc-setsame", Group: "own", Setup: fresh(150000, allocBatch(1, 8192), ownedBatch(8192))},
	{Name: "own-build-delete", Group: "own", Setup: fresh(120000, allocBatch(1, 8), ownedBatch(8))},
	{Name: "own-setref", Group: "own", Setup: fresh(80000, sharedSetRef, ownedSetRef)},
	{Name: "acquire-fastpath", Group: "contend", Setup: contendCell(400000, false)},
	{Name: "contend-handoff", Group: "contend", Setup: contendCell(60000, true)},
	{Name: "slab-alloc", Group: "slab", Setup: slabCell(200000, 1<<20)},
	{Name: "slab-build-delete", Group: "slab", Setup: slabCell(150000, 64)},
	{Name: "slab-gc-pressure", Group: "slab", Setup: slabCell(150000, 64), GC: true},
}

// abNode is the one-pointer object the scenarios allocate.
type abNode struct{ next rcgo.Ref[abNode] }

// fabricLive is the live-region backdrop of the fabric cells: each
// region holds one object for the whole measurement, so the id registry
// and population counters are loaded the way a region-per-request
// server loads them.
const fabricLive = 256

// fabricCell builds both sides' arenas once, each with the backdrop;
// every operation the work does undoes itself, so rounds see the same
// arena state.
func fabricCell(iters int, work abWork) abSetup {
	return func(cpu int) (abSide, abSide, func() error) {
		shards := 2
		for shards < cpu && shards < 256 {
			shards <<= 1
		}
		var backdrop []*rcgo.Region
		side := func(n int) abSide {
			a := rcgo.NewArena(rcgo.WithShards(n))
			for i := 0; i < fabricLive; i++ {
				r := a.NewRegion()
				rcgo.Alloc[abNode](r)
				backdrop = append(backdrop, r)
			}
			return abSide{cpu, iters, sameArena(a), work}
		}
		return side(1), side(shards), func() error {
			for _, r := range backdrop {
				if err := r.Delete(); err != nil {
					return err
				}
			}
			return nil
		}
	}
}

// churn creates and deletes one region per operation: the traffic that
// funnels through the population counters and registry locks a
// single-shard arena shares.
func churn(a *rcgo.Arena, iters int) error {
	for i := 0; i < iters; i++ {
		if err := a.NewRegion().Delete(); err != nil {
			return err
		}
	}
	return nil
}

// allocBatch is the region-per-request build loop on the shared path:
// allocate into a region, sameregion-linking each object stores times,
// and replace the region with a fresh one every batch allocations.
func allocBatch(stores, batch int) abWork {
	return func(a *rcgo.Arena, iters int) error {
		r := a.NewRegion()
		var prev *rcgo.Obj[abNode]
		n := 0
		for i := 0; i < iters; i++ {
			o := rcgo.Alloc[abNode](r)
			for s := 0; s < stores; s++ {
				rcgo.MustSetSame(o, &o.Value.next, prev)
			}
			prev = o
			if n++; n == batch {
				prev = nil
				if err := r.Delete(); err != nil {
					return err
				}
				r = a.NewRegion()
				n = 0
			}
		}
		return r.Delete()
	}
}

// ownedBatch is allocBatch(1, batch) through an Owner token: plain
// owner-local counters flushed once at release, so a short batch also
// pays Acquire's barrier sweep and Release's flush per region.
func ownedBatch(batch int) abWork {
	return func(a *rcgo.Arena, iters int) error {
		own, err := a.NewRegion().TryAcquire()
		if err != nil {
			return err
		}
		var prev *rcgo.Obj[abNode]
		n := 0
		for i := 0; i < iters; i++ {
			o := rcgo.AllocOwned[abNode](own)
			if err := rcgo.SetSameOwned(own, o, &o.Value.next, prev); err != nil {
				return err
			}
			prev = o
			if n++; n == batch {
				prev = nil
				if err := own.Delete(); err != nil {
					return err
				}
				if own, err = a.NewRegion().TryAcquire(); err != nil {
					return err
				}
				n = 0
			}
		}
		return own.Delete()
	}
}

// sharedSetRef / ownedSetRef: a private holder stores references to two
// objects in an external region, alternating so every store displaces
// the previous one (one incRC and one decRC per operation on both
// sides). The owned side saves the holder's shard lock and state
// re-check, not the target's atomics.
func sharedSetRef(a *rcgo.Arena, iters int) error {
	tr := a.NewRegion()
	t := [2]*rcgo.Obj[abNode]{rcgo.Alloc[abNode](tr), rcgo.Alloc[abNode](tr)}
	hr := a.NewRegion()
	h := rcgo.Alloc[abNode](hr)
	for i := 0; i < iters; i++ {
		if err := rcgo.SetRef(h, &h.Value.next, t[i&1]); err != nil {
			return err
		}
	}
	if err := rcgo.SetRef(h, &h.Value.next, nil); err != nil {
		return err
	}
	if err := hr.Delete(); err != nil {
		return err
	}
	return tr.Delete()
}

func ownedSetRef(a *rcgo.Arena, iters int) error {
	tr := a.NewRegion()
	t := [2]*rcgo.Obj[abNode]{rcgo.Alloc[abNode](tr), rcgo.Alloc[abNode](tr)}
	own, err := a.NewRegion().TryAcquire()
	if err != nil {
		return err
	}
	h, err := rcgo.TryAllocOwned[abNode](own)
	if err != nil {
		return err
	}
	for i := 0; i < iters; i++ {
		if err := rcgo.SetRefOwned(own, h, &h.Value.next, t[i&1]); err != nil {
			return err
		}
	}
	if err := rcgo.SetRefOwned(own, h, &h.Value.next, nil); err != nil {
		return err
	}
	if err := own.Delete(); err != nil {
		return err
	}
	return tr.Delete()
}

// setSame hammers one annotated sameregion store: the fast path the
// advisor's <5% disarmed bound guards.
func setSame(a *rcgo.Arena, iters int) error {
	r := a.NewRegion()
	h, v := rcgo.Alloc[abNode](r), rcgo.Alloc[abNode](r)
	for i := 0; i < iters; i++ {
		rcgo.MustSetSame(h, &h.Value.next, v)
	}
	return r.Delete()
}

// contendCell shares one hub region between the sides. The baseline is
// one worker's TryAcquire/Release cycle; the variant is AcquireContext,
// by one worker, or with storm by at least two workers splitting the
// same total, so nearly every acquisition is a parked waiter woken by
// the releasing owner's hand-off.
func contendCell(iters int, storm bool) abSetup {
	return func(cpu int) (abSide, abSide, func() error) {
		a := rcgo.NewArena()
		hub := a.NewRegion()
		variant := abSide{1, iters, sameArena(a), acquireCycle(hub, true)}
		if storm {
			variant.workers = max(cpu, 2)
			variant.iters = iters / variant.workers
		}
		return abSide{1, iters, sameArena(a), acquireCycle(hub, false)}, variant, hub.Delete
	}
}

func acquireCycle(hub *rcgo.Region, blocking bool) abWork {
	return func(_ *rcgo.Arena, iters int) error {
		ctx := context.Background()
		for i := 0; i < iters; i++ {
			var own *rcgo.Owner
			var err error
			if blocking {
				own, err = hub.AcquireContext(ctx)
			} else {
				own, err = hub.TryAcquire()
			}
			if err != nil {
				return err
			}
			if err := own.Release(); err != nil {
				return err
			}
		}
		return nil
	}
}

// slabBench is the slab cells' payload: pointer-free, so the slab
// side's admission gate routes its chunks to the backing store. Six
// words — a realistic small record.
type slabBench struct {
	K, V    int64
	Payload [4]int64
}

// slabCell gives the variant's fresh arenas one slab store for all
// rounds, so pages freed by one round's deletes recycle into the next,
// as the baseline's warm runtime spans do.
func slabCell(iters, batch int) abSetup {
	return func(cpu int) (abSide, abSide, func() error) {
		store := rcgo.NewSlabStore()
		work := func(a *rcgo.Arena, iters int) error {
			r := a.NewRegion()
			n := 0
			for i := 0; i < iters; i++ {
				o := rcgo.Alloc[slabBench](r)
				o.Value.K, o.Value.V = int64(i), int64(n)
				if n++; n == batch {
					if err := r.Delete(); err != nil {
						return err
					}
					r = a.NewRegion()
					n = 0
				}
			}
			return r.Delete()
		}
		return abSide{cpu, iters, freshArena(), work},
			abSide{cpu, iters, freshArena(rcgo.WithBackingStore(store)), work},
			store.Close
	}
}
