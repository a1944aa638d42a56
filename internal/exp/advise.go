package exp

// The annotation advisor's experiment harness (DESIGN.md §13): an
// interleaved disarmed-vs-armed A/B over the parallel store benchmarks
// — the measured cost of rcgo.WithAdvisor, recorded in the rcgo.bench/1
// "advisor" section — and a Go-native replay of the grobner op mix with
// every store deliberately un-annotated (SetRef), which the advisor
// must profile back into upgrade candidates. cmd/rcbench exposes the
// replay as -advise (non-zero exit when no candidate is found, the
// `make advise-smoke` gate) and the A/B as -advisor-ab
// (EXPERIMENTS.md §"Annotation advisor").

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"rcgo"
)

// AdvisorBenchReport is one interleaved A/B advisor benchmark cell: the
// scenario timed at the given GOMAXPROCS with the advisor disarmed
// (baseline_ns_op, the default configuration) and armed from birth
// (ns_op), best of best_of runs per side.
type AdvisorBenchReport struct {
	Name   string `json:"name"`
	CPU    int    `json:"cpu"`
	BestOf int    `json:"best_of"`
	// BaselineNs is ns/op with the advisor disarmed; NsPerOp is with
	// WithAdvisor armed from birth.
	BaselineNs float64 `json:"baseline_ns_op"`
	NsPerOp    float64 `json:"ns_op"`
	// OverheadPct is the armed side's cost, (armed - disarmed) /
	// disarmed * 100 — positive when profiling costs time, which it
	// does (a two-frame stack walk per store).
	OverheadPct float64 `json:"overhead_pct"`
}

// advNode carries one slot per store flavour, like the parallel
// benchmark node in bench_test.go.
type advNode struct {
	next  rcgo.Ref[advNode] // sameregion link
	cross rcgo.Ref[advNode] // counted link
	conf  rcgo.Ref[advNode] // traditional link
	up    rcgo.Ref[advNode] // parentptr link
}

// measureAdvisor times one side of one scenario under
// testing.Benchmark: every P hammers annotated sameregion stores
// (scenario "setsame", the fast path the <5% disarmed bound guards) or
// counted cross-region stores (scenario "setref").
func measureAdvisor(armed bool, scenario string) (float64, error) {
	var opts []rcgo.Option
	if armed {
		opts = append(opts, rcgo.WithAdvisor())
	}
	res := testing.Benchmark(func(b *testing.B) {
		a := rcgo.NewArena(opts...)
		switch scenario {
		case "setsame":
			r := a.NewRegion()
			b.RunParallel(func(pb *testing.PB) {
				h := rcgo.Alloc[advNode](r)
				v := rcgo.Alloc[advNode](r)
				for pb.Next() {
					rcgo.MustSetSame(h, &h.Value.next, v)
				}
			})
		case "setref":
			shared := a.NewRegion()
			target := rcgo.Alloc[advNode](shared)
			b.RunParallel(func(pb *testing.PB) {
				h := rcgo.Alloc[advNode](a.NewRegion())
				clear := false
				for pb.Next() {
					if clear {
						rcgo.MustSetRef(h, &h.Value.cross, nil)
					} else {
						rcgo.MustSetRef(h, &h.Value.cross, target)
					}
					clear = !clear
				}
			})
		default:
			b.Fatalf("unknown scenario %q", scenario)
		}
	})
	if res.N == 0 {
		return 0, fmt.Errorf("benchmark failed (armed=%v, scenario=%s)", armed, scenario)
	}
	return float64(res.T.Nanoseconds()) / float64(res.N), nil
}

// AdvisorAB runs the interleaved disarmed-vs-armed advisor benchmarks
// at the given GOMAXPROCS, best of bestOf runs per side, in strict
// A, B, A, B alternation so drift hits both sides equally (the
// convention of the other A/B harnesses and the paper's best-of runs).
func AdvisorAB(cpu, bestOf int) ([]AdvisorBenchReport, error) {
	if bestOf <= 0 {
		bestOf = 10
	}
	if cpu <= 0 {
		cpu = 8
	}
	prev := runtime.GOMAXPROCS(cpu)
	defer runtime.GOMAXPROCS(prev)
	var out []AdvisorBenchReport
	for _, sc := range []string{"setsame", "setref"} {
		rep := AdvisorBenchReport{Name: "parallel-" + sc, CPU: cpu, BestOf: bestOf}
		for i := 0; i < bestOf; i++ {
			off, err := measureAdvisor(false, sc)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", rep.Name, err)
			}
			on, err := measureAdvisor(true, sc)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", rep.Name, err)
			}
			if rep.BaselineNs == 0 || off < rep.BaselineNs {
				rep.BaselineNs = off
			}
			if rep.NsPerOp == 0 || on < rep.NsPerOp {
				rep.NsPerOp = on
			}
		}
		rep.OverheadPct = 100 * (rep.NsPerOp - rep.BaselineNs) / rep.BaselineNs
		out = append(out, rep)
	}
	return out, nil
}

// PrintAdvisorAB renders the A/B cells as a small table.
func PrintAdvisorAB(w io.Writer, reps []AdvisorBenchReport) {
	fmt.Fprintf(w, "%-20s %6s %8s %14s %14s %10s\n",
		"scenario", "cpu", "best-of", "disarmed ns/op", "armed ns/op", "overhead")
	for _, r := range reps {
		fmt.Fprintf(w, "%-20s %6d %8d %14.2f %14.2f %+9.1f%%\n",
			r.Name, r.CPU, r.BestOf, r.BaselineNs, r.NsPerOp, r.OverheadPct)
	}
}

// AdviseReplay replays the grobner workload's op mix through the
// Go-native API with every store deliberately un-annotated — each one
// a counted SetRef, the conservative choice a porter makes before
// thinking about flavours — on an advisor-armed arena, and returns the
// profile. grobner's measured stores-per-allocation ratio sets how many
// stores ride on each allocation, so the replay carries the workload's
// real mix rather than an invented one. The replay's call sites are
// upgradeable by construction:
//
//   - the linking store targets the holder's own region → SetSame
//   - the config store targets the traditional region → SetTrad
//   - the uplink store targets the parent region → SetParent
//
// plus one correctly annotated SetSame site as a keep-as-is control.
// A report without upgrade candidates means the advisor lost the
// lattice, and rcbench -advise exits non-zero (`make advise-smoke`).
func AdviseReplay(allocs int) (rcgo.AdvisorReport, error) {
	if allocs <= 0 {
		allocs = 20000
	}
	storesPerAlloc, err := workloadStoresPerAlloc("grobner", 2)
	if err != nil {
		return rcgo.AdvisorReport{}, err
	}
	if storesPerAlloc < 1 {
		storesPerAlloc = 1
	}

	a := rcgo.NewArena(rcgo.WithAdvisor())
	conf := rcgo.Alloc[advNode](a.Traditional())
	parent := a.NewRegion()
	up := rcgo.Alloc[advNode](parent)

	r := parent.NewSubregion()
	var prev *rcgo.Obj[advNode]
	n := 0
	for i := 0; i < allocs; i++ {
		o := rcgo.Alloc[advNode](r)
		for s := 0; s < storesPerAlloc; s++ {
			// Un-annotated same-region link: upgradeable to SetSame.
			if err := rcgo.SetRef(o, &o.Value.next, prev); err != nil {
				return rcgo.AdvisorReport{}, err
			}
		}
		// Un-annotated store of the shared config: upgradeable to
		// SetTrad, and every one pays a real rc update pair.
		if err := rcgo.SetRef(o, &o.Value.conf, conf); err != nil {
			return rcgo.AdvisorReport{}, err
		}
		// Un-annotated uplink into the parent region: upgradeable to
		// SetParent, also paying rc updates.
		if err := rcgo.SetRef(o, &o.Value.up, up); err != nil {
			return rcgo.AdvisorReport{}, err
		}
		// The control: a correctly annotated sameregion store the
		// report must list as keep-as-is.
		if err := rcgo.SetSame(o, &o.Value.cross, o); err != nil {
			return rcgo.AdvisorReport{}, err
		}
		prev = o
		if n++; n == 8192 {
			prev = nil
			r.DeleteDeferred()
			r = parent.NewSubregion()
			n = 0
		}
	}
	r.DeleteDeferred()
	return a.AdvisorReport(), nil
}
