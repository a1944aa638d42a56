package rcgo

import (
	"errors"
	"sync"
	"testing"
)

type fabricNode struct {
	Same Ref[fabricNode]
	Next Ref[fabricNode]
}

func TestWithShardsClamping(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {8, 8}, {9, 16}, {200, 256}, {5000, 256}, {-3, 1},
	} {
		a := NewArena(WithShards(tc.in))
		if got := a.Shards(); got != tc.want {
			t.Errorf("WithShards(%d): Shards() = %d, want %d", tc.in, got, tc.want)
		}
		if got := a.Stats().Shards; got != tc.want {
			t.Errorf("WithShards(%d): Stats().Shards = %d, want %d", tc.in, got, tc.want)
		}
	}
	// The default width is GOMAXPROCS-derived: a power of two, at least 1.
	a := NewArena()
	n := a.Shards()
	if n < 1 || n&(n-1) != 0 {
		t.Fatalf("default Shards() = %d, want a power of two >= 1", n)
	}
}

// Region ids are globally unique and stable, and their low bits decode
// to the shard the region was assigned to.
func TestShardEncodedIDs(t *testing.T) {
	a := NewArena(WithShards(8))
	seen := map[int64]bool{a.Traditional().ID(): true}
	regions := make([]*Region, 0, 512)
	for i := 0; i < 512; i++ {
		r := a.NewRegion()
		if seen[r.ID()] {
			t.Fatalf("duplicate region id %d", r.ID())
		}
		seen[r.ID()] = true
		if sh := a.RegionShard(r.ID()); sh < 0 || sh >= a.Shards() {
			t.Fatalf("RegionShard(%d) = %d, outside [0,%d)", r.ID(), sh, a.Shards())
		}
		regions = append(regions, r)
	}
	for _, r := range regions {
		id := r.ID()
		if err := r.Delete(); err != nil {
			t.Fatal(err)
		}
		if r.ID() != id {
			t.Fatalf("region id changed across delete: %d -> %d", id, r.ID())
		}
	}
	// RegionsCreated sums the per-shard sequences and stays exact.
	if got, want := a.Stats().RegionsCreated, int64(1+512); got != want {
		t.Fatalf("RegionsCreated = %d, want %d", got, want)
	}
}

// EachRegion visits regions grouped by fabric shard in ascending
// shard-index order.
func TestEachRegionShardOrdering(t *testing.T) {
	a := NewArena(WithShards(8))
	for i := 0; i < 256; i++ {
		a.NewRegion()
	}
	last, count := -1, 0
	populated := map[int]bool{}
	a.EachRegion(func(r *Region) {
		sh := a.RegionShard(r.ID())
		if sh < last {
			t.Fatalf("EachRegion visited shard %d after shard %d", sh, last)
		}
		last = sh
		populated[sh] = true
		count++
	})
	if count != 257 { // 256 + traditional
		t.Fatalf("EachRegion visited %d regions, want 257", count)
	}
	if len(populated) < 2 {
		t.Fatalf("257 regions hashed to %d shard(s); assignment is broken", len(populated))
	}
}

// The mid-life arming paths still work: DebugHandler turns the
// counters on after construction (a region created before arming counts
// its later allocations, because the registry walk armed its cached
// gate), and the deprecated SetTracer installs a tracer mid-life.
func TestDeprecatedSettersStillWork(t *testing.T) {
	a := NewArena()
	if a.MetricsEnabled() {
		t.Fatal("metrics enabled before DebugHandler")
	}
	r := a.NewRegion()
	a.DebugHandler()
	if !a.MetricsEnabled() {
		t.Fatal("DebugHandler did not enable metrics")
	}
	Alloc[fabricNode](r)
	if got := a.Counters().Allocs; got != 1 {
		t.Fatalf("Counters().Allocs = %d after DebugHandler+Alloc, want 1", got)
	}

	// SetTracer still installs a tracer mid-life.
	ring := NewRingTracer(64)
	a.SetTracer(ring)
	a.NewRegion()
	if ring.Total() == 0 {
		t.Fatal("SetTracer-installed tracer saw no events")
	}
}

// Options configure the arena from birth: WithMetrics counts the whole
// life and WithTracer sees the traditional region's creation.
func TestArenaOptions(t *testing.T) {
	ring := NewRingTracer(64)
	a := NewArena(WithMetrics(), WithTracer(ring))
	if !a.MetricsEnabled() {
		t.Fatal("WithMetrics did not enable metrics")
	}
	evs := ring.Events()
	if len(evs) == 0 || evs[0].Kind != TraceRegionCreated || evs[0].Region != a.Traditional().ID() {
		t.Fatalf("first traced event = %+v, want the traditional region's creation", evs)
	}
	r := a.NewRegion()
	Alloc[fabricNode](r)
	if got := a.Counters().Allocs; got != 1 {
		t.Fatalf("Counters().Allocs = %d, want 1", got)
	}
	// nil options are ignored.
	if NewArena(nil, WithShards(2)).Shards() != 2 {
		t.Fatal("nil option broke option application")
	}
}

// A parent on one shard with a child on another must keep the
// parent/child rules exact: delete ordering, the children counter, the
// zombie cascade, and both shards' population totals.
func TestCrossShardSubregions(t *testing.T) {
	a := NewArena(WithShards(8))
	parent := a.NewRegion()

	// Create subregions until one lands on a foreign shard.
	var child *Region
	for i := 0; i < 4096 && child == nil; i++ {
		c := parent.NewSubregion()
		if a.RegionShard(c.ID()) != a.RegionShard(parent.ID()) {
			child = c
			break
		}
		if err := c.Delete(); err != nil {
			t.Fatal(err)
		}
	}
	if child == nil {
		t.Fatal("4096 subregions all hashed to the parent's shard")
	}

	// Children-first delete ordering holds across shards.
	if err := parent.Delete(); !errors.Is(err, ErrRegionInUse) {
		t.Fatalf("Delete(parent) with cross-shard child = %v, want ErrRegionInUse", err)
	}
	if rep := a.Audit(); !rep.OK {
		t.Fatalf("audit with cross-shard child:\n%s", rep)
	}

	// Zombie cascade across shards: the parent defers, the child's
	// reclaim (on another shard) drains it.
	Alloc[fabricNode](parent)
	Alloc[fabricNode](child)
	parent.DeleteDeferred()
	if !parent.Deferred() {
		t.Fatal("parent with live child did not become a zombie")
	}
	if rep := a.Audit(); !rep.OK {
		t.Fatalf("audit with cross-shard zombie parent:\n%s", rep)
	}
	if err := child.Delete(); err != nil {
		t.Fatal(err)
	}
	if st := parent.Stats(); !st.Reclaimed {
		t.Fatalf("cross-shard child reclaim did not cascade: parent = %+v", st)
	}
	if rep := a.Audit(); !rep.OK {
		t.Fatalf("audit after cross-shard cascade:\n%s", rep)
	}
	if got, want := a.LiveRegions(), int64(1); got != want { // traditional only
		t.Fatalf("LiveRegions = %d, want %d", got, want)
	}
	if got := a.LiveObjects(); got != 0 {
		t.Fatalf("LiveObjects = %d, want 0", got)
	}
}

// The fabric stress test (ISSUE 6): hundreds of concurrent regions
// spread across shards, alloc + SetSame + delete churn from many
// goroutines, then a quiesced fabric-wide audit that must be clean and
// a Counters().Allocs that must be exact.
func TestFabricStress(t *testing.T) {
	const (
		workers = 8
		rounds  = 40
		batch   = 8 // regions per worker per round, concurrently live
		objs    = 5 // objects per region
	)
	a := NewArena(WithShards(8), WithMetrics())

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				regions := make([]*Region, batch)
				for i := range regions {
					regions[i] = a.NewRegion()
				}
				for _, r := range regions {
					var prev *Obj[fabricNode]
					for j := 0; j < objs; j++ {
						o := Alloc[fabricNode](r)
						MustSetSame(o, &o.Value.Same, o)
						if prev != nil {
							MustSetSame(prev, &prev.Value.Next, o)
						}
						prev = o
					}
				}
				// Half die immediately, half go through the zombie path
				// pinned, so both delete flavours churn cross-shard.
				for i, r := range regions {
					if i%2 == 0 {
						if err := r.Delete(); err != nil {
							t.Errorf("Delete: %v", err)
						}
						continue
					}
					unpin := Pin(Alloc[fabricNode](r))
					r.DeleteDeferred()
					unpin()
				}
			}
		}()
	}
	wg.Wait()

	// Quiesced: the fabric-wide audit is ground truth and every counter
	// is exact.
	if rep := a.Audit(); !rep.OK {
		t.Fatalf("fabric audit after stress:\n%s", rep)
	}
	st := a.Stats()
	if got, want := st.RegionsCreated, int64(1+workers*rounds*batch); got != want {
		t.Fatalf("RegionsCreated = %d, want %d", got, want)
	}
	if st.LiveRegions != 1 || st.DeferredRegions != 0 {
		t.Fatalf("after stress: LiveRegions=%d DeferredRegions=%d, want 1/0", st.LiveRegions, st.DeferredRegions)
	}
	if st.LiveObjects != 0 {
		t.Fatalf("LiveObjects = %d, want 0", st.LiveObjects)
	}
	// objs per region, plus the pin-holder object on every deferred one.
	want := int64(workers*rounds*batch*objs + workers*rounds*(batch/2))
	if got := a.Counters().Allocs; got != want {
		t.Fatalf("Counters().Allocs = %d, want %d", got, want)
	}
}
