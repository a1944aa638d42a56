package main

import (
	"math"
	"slices"
	"testing"

	"rcgo"
)

// testMixes is a small hand-made mix set, so the generator tests run
// without the VM.
func testMixes() []programMix {
	return []programMix{
		{Name: "a", Allocs: 5000, Created: 40, Deleted: 40, SetRef: 9000, Cross: 1200, Same: 3000, Trad: 2000, Parent: 300, Pins: 50, VMIncrements: 1250},
		{Name: "b", Allocs: 800, Created: 9, Deleted: 8, SetRef: 100, Cross: 7, Pins: 3, VMIncrements: 10},
	}
}

func plansFor(t *testing.T, mixes []programMix, seed uint64) []programPlan {
	var out []programPlan
	for _, m := range mixes {
		out = append(out, buildPlan(m, seed))
	}
	if err := generate(out, func(n int) []op { return make([]op, n) }); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestStreamDigestFollowsSeed(t *testing.T) {
	a := streamDigest(plansFor(t, testMixes(), 1))
	b := streamDigest(plansFor(t, testMixes(), 1))
	c := streamDigest(plansFor(t, testMixes(), 2))
	if a != b {
		t.Fatalf("same seed, different digests: %x %x", a, b)
	}
	if a == c {
		t.Fatalf("seeds 1 and 2 give the same digest %x", a)
	}
}

// TestPlanIssuesExactCounts checks that a plan's generated op stream,
// walked epoch by epoch as a replay walks it, adds up to the mix
// exactly and only names objects that exist.
func TestPlanIssuesExactCounts(t *testing.T) {
	mixes := testMixes()
	for i, p := range plansFor(t, mixes, 7) {
		m := mixes[i]
		if len(p.epochs) != int(m.Created-1) {
			t.Fatalf("%s: %d epochs for %d regions", m.Name, len(p.epochs), m.Created)
		}
		var got [numOpKinds]int64
		got[kAlloc] = int64(p.baseAlloc)
		ops := p.ops
		for j := range p.epochs {
			n := p.epochs[j].len()
			objs := uint64(0)
			for _, o := range ops[:n] {
				k := o.kind()
				got[k]++
				if k == kAlloc {
					objs++
					continue
				}
				if k != kPin && o.holder() >= objs {
					t.Fatalf("%s: op %v names holder %d of %d objects", m.Name, k, o.holder(), objs)
				}
			}
			ops = ops[n:]
		}
		if len(ops) != 0 {
			t.Fatalf("%s: %d ops past the last epoch", m.Name, len(ops))
		}
		want := [numOpKinds]int64{
			kAlloc: m.Allocs, kRefCross: m.Cross, kRefLocal: m.SetRef - m.Cross,
			kSame: m.Same, kTrad: m.Trad, kParent: m.Parent, kPin: m.Pins,
		}
		if got != want {
			t.Fatalf("%s: generated %v, mix says %v", m.Name, got, want)
		}
	}
}

// TestServicePlansFollowSeed checks that the seed only reorders the
// service's request shapes: the same seed gives the same plans, another
// seed another order of the same sizes.
func TestServicePlansFollowSeed(t *testing.T) {
	tr := traffic{respLo: 5, respHi: 15, sessionCap: 3}
	a, b, c := makePlans(1, tr), makePlans(1, tr), makePlans(2, tr)
	if !slices.Equal(a, b) {
		t.Fatal("same seed, different plans")
	}
	if slices.Equal(a, c) {
		t.Fatal("seeds 1 and 2 give the same plans")
	}
	work := func(ps []reqPlan) (resps, bodies, sess int) {
		for _, p := range ps {
			resps += p.resps
			bodies += p.bodies
			if p.session >= 0 {
				sess++
			}
		}
		return
	}
	r1, b1, s1 := work(a)
	r2, b2, s2 := work(c)
	if r1 != r2 || b1 != b2 || s1 != s2 {
		t.Fatalf("seeds 1 and 2 ask for different work: %d/%d/%d and %d/%d/%d", r1, b1, s1, r2, b2, s2)
	}
	if s1 != servicePlans/sessionEvery {
		t.Fatalf("%d session appends in %d plans", s1, servicePlans)
	}
}

func TestApportionSumsExactly(t *testing.T) {
	w := []float64{0.3, 1, 2.5, 0.25, 3.1}
	for _, total := range []int64{0, 1, 7, 1000, 123457} {
		var sum int64
		for _, n := range apportion(total, w) {
			sum += n
		}
		if sum != total {
			t.Fatalf("apportion(%d) sums to %d", total, sum)
		}
	}
}

// TestSetupsDeriveIdenticalMixes runs the compiler pipeline twice per
// mode and compares the derived mixes (timings aside).
func TestSetupsDeriveIdenticalMixes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the eight programs on the VM four times")
	}
	for _, mode := range []rcgo.Mode{rcgo.ModeNQ, rcgo.ModeQS} {
		a, err := setupReplay(mode, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := setupReplay(mode, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.mixes {
			x, y := a.mixes[i], b.mixes[i]
			x.CompileNs, x.RunNs, y.CompileNs, y.RunNs = 0, 0, 0, 0
			if x != y {
				t.Fatalf("%s: two setups derived %+v and %+v", mode, x, y)
			}
		}
		if da, db := streamDigest(a.plans), streamDigest(b.plans); da != db {
			t.Fatalf("%s: two setups give digests %x and %x", mode, da, db)
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for v := int64(1); v <= 10000; v++ {
		h.add(v)
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 5000}, {0.99, 9900}} {
		got := h.quantile(c.q)
		if d := float64(got-c.want) / float64(c.want); d < -0.02 || d > 0.02 {
			t.Fatalf("quantile(%v) = %d, want %d within 2%%", c.q, got, c.want)
		}
	}
}

// A kernel running at the reference rate has a speed factor of 1, and
// one running twice as fast has a factor of 2: its CPU time is worth
// twice as much reference time.
func TestSpeedFactor(t *testing.T) {
	us := int64(1000)
	for _, c := range []struct {
		s    speed
		want float64
	}{
		{speed{refStepsPerUs * us, us * 1000}, 1},
		{speed{2 * refStepsPerUs * us, us * 1000}, 2},
		{speed{}, 1},
	} {
		if got := c.s.factor(); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%+v: factor %v, want %v", c.s, got, c.want)
		}
	}
	if sp := newCalibrator().measure(2); sp.steps != 2*calibSteps || sp.ns <= 0 {
		t.Errorf("measure(2) = %+v", sp)
	}
}
