package exp

// Shared pieces of the Go-native A/B harnesses, and the schema of the
// rcgo.bench/1 "parallel" section. That section records the allocation
// fast path (region_alloccache.go) against the pre-cache slow path it
// replaced; the A/B is committed in BENCH_pr5_allocfast.json and the
// slow path is gone, so nothing here produces new cells, but benchlint
// still reads the committed ones (EXPERIMENTS.md §"Allocation fast
// path").

import (
	"fmt"
	"io"

	"rcgo"
	"rcgo/internal/workloads"
)

// ParallelReport is one interleaved A/B parallel benchmark cell: the
// scenario timed at the given GOMAXPROCS with the allocation fast path
// on (ns_op) and off (baseline_ns_op), best of best_of runs per side.
type ParallelReport struct {
	Name   string `json:"name"`
	CPU    int    `json:"cpu"`
	BestOf int    `json:"best_of"`
	// BaselineNs is ns/op down the pre-cache slow path; NsPerOp is the
	// fast path.
	BaselineNs float64 `json:"baseline_ns_op"`
	NsPerOp    float64 `json:"ns_op"`
	// DeltaPct is the improvement, (baseline - fast) / baseline * 100.
	DeltaPct float64 `json:"delta_pct"`
}

// abNode is the one-pointer object the A/B scenarios allocate.
type abNode struct{ next rcgo.Ref[abNode] }

// workloadStoresPerAlloc runs the named workload once through the
// compiler pipeline and distills its store-per-allocation ratio
// (annotated + unchecked stores over allocations, rounded), so the
// Go-native replay scenario carries the workload's real op mix rather
// than an invented one.
func workloadStoresPerAlloc(name string, scale int) (int, error) {
	w := workloads.ByName(name)
	if w == nil {
		return 0, fmt.Errorf("no workload %q", name)
	}
	c, err := compileAll(w, scale, rcgo.ModeInf)
	if err != nil {
		return 0, err
	}
	res, err := rcgo.Run(c.prog[rcgo.ModeInf], rcgo.RunConfig{Output: io.Discard})
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	st := res.Region
	if st.Allocs == 0 {
		return 0, fmt.Errorf("%s: no allocations recorded", name)
	}
	stores := st.SameChecks + st.TradChecks + st.ParentChecks + st.UncheckedPtrs
	return int((stores + st.Allocs/2) / st.Allocs), nil
}
