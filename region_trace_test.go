package rcgo

import (
	"errors"
	"sync"
	"testing"
)

// Exact-accounting tests for the cumulative counters and the tracer,
// in the style of region_concurrent_test.go: N goroutines perform a
// known number of operations each, and the totals must match exactly —
// no lost and no double-counted events. All of these are meaningful
// under -race (make race).

type traceNode struct {
	same  Ref[traceNode] // sameregion slot
	trad  Ref[traceNode] // traditional slot
	up    Ref[traceNode] // parentptr slot
	cross Ref[traceNode] // counted slot
}

// Every store flavour, check failure, pin and alloc from 8 goroutines;
// the counter deltas must equal the op counts exactly.
func TestCountersExactUnderConcurrency(t *testing.T) {
	const workers = 8
	const iters = 400
	a := NewArena(WithMetrics())

	shared := a.NewRegion()
	tobj := Alloc[traceNode](shared)
	tradObj := Alloc[traceNode](a.Traditional())
	foreign := Alloc[traceNode](a.NewRegion())

	type worker struct {
		hr *Region
		h  *Obj[traceNode]
		s  *Obj[traceNode] // lives in a subregion of hr
	}
	ws := make([]worker, workers)
	for i := range ws {
		hr := a.NewRegion()
		ws[i] = worker{hr: hr, h: Alloc[traceNode](hr), s: Alloc[traceNode](hr.NewSubregion())}
	}

	c0 := a.Counters()
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(w worker) {
			defer wg.Done()
			for n := 0; n < iters; n++ {
				MustSetSame(w.h, &w.h.Value.same, w.h)
				if err := SetSame(w.h, &w.h.Value.same, foreign); !errors.Is(err, ErrBadRef) {
					t.Errorf("cross-region SetSame: %v", err)
				}
				MustSetTrad(w.h, &w.h.Value.trad, tradObj)
				MustSetParent(w.s, &w.s.Value.up, w.h)
				MustSetRef(w.h, &w.h.Value.cross, tobj)
				MustSetRef(w.h, &w.h.Value.cross, nil)
				Pin(tobj)()
				Alloc[traceNode](w.hr)
			}
		}(ws[i])
	}
	wg.Wait()

	d := a.Counters()
	total := int64(workers * iters)
	for _, chk := range []struct {
		name      string
		got, want int64
	}{
		{"SameChecks", d.SameChecks - c0.SameChecks, 2 * total},
		{"CheckFailures", d.CheckFailures - c0.CheckFailures, total},
		{"TradChecks", d.TradChecks - c0.TradChecks, total},
		{"ParentChecks", d.ParentChecks - c0.ParentChecks, total},
		{"CountedStores", d.CountedStores - c0.CountedStores, 2 * total},
		{"RCIncrements", d.RCIncrements - c0.RCIncrements, 2 * total},
		{"RCDecrements", d.RCDecrements - c0.RCDecrements, 2 * total},
		{"PinOps", d.PinOps - c0.PinOps, total},
		{"Allocs", d.Allocs - c0.Allocs, total},
		{"Deletes", d.Deletes - c0.Deletes, 0},
		{"Reclaims", d.Reclaims - c0.Reclaims, 0},
	} {
		if chk.got != chk.want {
			t.Errorf("%s delta = %d, want %d", chk.name, chk.got, chk.want)
		}
	}
}

// Region lifecycle from 8 goroutines: the lifecycle counters, the arena
// live/deferred region stats, and the traced event stream must all
// account for every region exactly.
func TestLifecycleCountersAndTracerExact(t *testing.T) {
	const workers = 8
	const rounds = 100
	a := NewArena(WithMetrics())
	ring := NewRingTracer(1 << 14)
	a.SetTracer(ring)

	c0 := a.Counters()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < rounds; n++ {
				r := a.NewRegion()
				sub := r.NewSubregion()
				if n%2 == 0 {
					// Plain teardown: child then parent.
					if err := sub.Delete(); err != nil {
						t.Errorf("sub delete: %v", err)
					}
					if err := r.Delete(); err != nil {
						t.Errorf("delete: %v", err)
					}
				} else {
					// Blocked delete, then deferred reclaim on unpin.
					o := Alloc[traceNode](r)
					unpin := Pin(o)
					if err := r.Delete(); !errors.Is(err, ErrRegionInUse) {
						t.Errorf("pinned delete: %v", err)
					}
					if err := sub.Delete(); err != nil {
						t.Errorf("sub delete: %v", err)
					}
					r.DeleteDeferred()
					unpin()
				}
			}
		}()
	}
	wg.Wait()

	// Per odd round: 2 created, 1 blocked, 1 explicit delete (sub),
	// 1 deferral, 2 reclaims. Per even round: 2 created, 2 deletes,
	// 2 reclaims.
	half := int64(workers * rounds / 2)
	d := a.Counters()
	for _, chk := range []struct {
		name      string
		got, want int64
	}{
		{"Deletes", d.Deletes - c0.Deletes, 2*half + half},
		{"DeletesBlocked", d.DeletesBlocked - c0.DeletesBlocked, half},
		{"DeferredDeletes", d.DeferredDeletes - c0.DeferredDeletes, half},
		{"Reclaims", d.Reclaims - c0.Reclaims, 4 * half},
	} {
		if chk.got != chk.want {
			t.Errorf("%s delta = %d, want %d", chk.name, chk.got, chk.want)
		}
	}

	st := a.Stats()
	if st.LiveRegions != 1 {
		t.Errorf("LiveRegions = %d, want 1 (traditional only)", st.LiveRegions)
	}
	if st.DeferredRegions != 0 {
		t.Errorf("DeferredRegions = %d, want 0", st.DeferredRegions)
	}
	if want := int64(1 + 2*workers*rounds); st.RegionsCreated != want {
		t.Errorf("RegionsCreated = %d, want %d", st.RegionsCreated, want)
	}

	wantEvents := map[TraceKind]uint64{
		TraceRegionCreated:   uint64(2 * workers * rounds),
		TraceRegionDeleted:   uint64(3 * half),
		TraceDeleteBlocked:   uint64(half),
		TraceRegionDeferred:  uint64(half),
		TraceRegionReclaimed: uint64(4 * half),
	}
	var wantTotal uint64
	for _, n := range wantEvents {
		wantTotal += n
	}
	if got := ring.Total(); got != wantTotal {
		t.Errorf("traced events = %d, want %d", got, wantTotal)
	}
	got := make(map[TraceKind]uint64)
	for _, ev := range ring.Events() {
		got[ev.Kind]++
		if ev.Region <= 1 {
			t.Errorf("event %v for region %d (traditional or invalid)", ev.Kind, ev.Region)
		}
	}
	for kind, want := range wantEvents {
		if got[kind] != want {
			t.Errorf("%v events = %d, want %d", kind, got[kind], want)
		}
	}
}

// A full ring keeps the newest events and reports the overwritten ones
// through Total.
func TestRingTracerWrap(t *testing.T) {
	ring := NewRingTracer(16)
	for i := 0; i < 100; i++ {
		ring.Trace(TraceEvent{Kind: TraceRegionCreated, Region: int64(i + 1)})
	}
	if ring.Total() != 100 {
		t.Fatalf("Total = %d, want 100", ring.Total())
	}
	evs := ring.Events()
	if len(evs) != 16 {
		t.Fatalf("len(Events) = %d, want 16", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(84 + i); ev.Seq != want {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, want)
		}
	}
}

// Concurrent tracing into a shared ring: every event is assigned a
// unique sequence number and none is double-stored. When concurrent
// writers wrap the ring, the newer of two events claiming one slot
// wins, so at quiesce the window is exactly the last capacity events.
func TestRingTracerConcurrent(t *testing.T) {
	const workers = 8
	const events = 1000
	ring := NewRingTracer(workers * events)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			for i := 0; i < events; i++ {
				ring.Trace(TraceEvent{Kind: TraceRegionCreated, Region: id})
			}
		}(int64(w + 1))
	}
	wg.Wait()
	if got := ring.Total(); got != workers*events {
		t.Fatalf("Total = %d, want %d", got, workers*events)
	}
	evs := ring.Events()
	if len(evs) != workers*events {
		t.Fatalf("len(Events) = %d, want %d", len(evs), workers*events)
	}
	perRegion := make(map[int64]int)
	for i, ev := range evs {
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d (lost or duplicated slot)", i, ev.Seq)
		}
		perRegion[ev.Region]++
	}
	for id, n := range perRegion {
		if n != events {
			t.Fatalf("region %d traced %d events, want %d", id, n, events)
		}
	}

	small := NewRingTracer(16)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			for i := 0; i < events; i++ {
				small.Trace(TraceEvent{Kind: TraceRegionCreated, Region: id})
			}
		}(int64(w + 1))
	}
	wg.Wait()
	evs = small.Events()
	if len(evs) != 16 || small.Dropped() != workers*events-16 {
		t.Fatalf("wrapped ring: len(Events) = %d, Dropped = %d, want 16 and %d",
			len(evs), small.Dropped(), workers*events-16)
	}
	for i, ev := range evs {
		if want := uint64(workers*events - 16 + i); ev.Seq != want {
			t.Fatalf("wrapped ring: event %d has seq %d, want %d (an older event overwrote a newer one)",
				i, ev.Seq, want)
		}
	}
}

// Tracing into the ring copies the event into its slot: no heap
// allocation per event, through the Tracer interface as the arena
// calls it.
func TestRingTracerTraceAllocs(t *testing.T) {
	var tr Tracer = NewRingTracer(64)
	ev := TraceEvent{Kind: TraceRegionAcquired, Region: 7, Parent: 1, RC: 2}
	if n := testing.AllocsPerRun(1000, func() { tr.Trace(ev) }); n != 0 {
		t.Fatalf("RingTracer.Trace allocates %v times per event, want 0", n)
	}
}

// Regression: Region.Stats must return even while hot mutators keep the
// reference count churning. The re-read loop that pairs rc with the
// state word is bounded (statsRCRetries); before the bound a tight
// pin/unpin loop could starve a stats reader indefinitely.
func TestStatsNoLivelockUnderHotRC(t *testing.T) {
	const mutators = 4
	a := NewArena()
	r := a.NewRegion()
	o := Alloc[traceNode](r)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < mutators; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					Pin(o)()
				}
			}
		}()
	}
	for i := 0; i < 5000; i++ {
		st := r.Stats()
		if st.RC < 0 || st.RC > mutators {
			t.Fatalf("snapshot rc = %d out of range [0, %d]", st.RC, mutators)
		}
		if st.Deleted {
			t.Fatal("snapshot reports deletion of a live region")
		}
	}
	close(done)
	wg.Wait()
}
