package exp

// Machine-readable benchmark results for cmd/rcbench -json. The schema
// is versioned so recorded trajectory files (BENCH_*.json) stay
// comparable across runs: consumers must check Schema before reading
// any other field, and additions bump the minor suffix only when a
// field changes meaning. cmd/benchlint validates the invariants below
// (see its source for the exact rules); `make bench-smoke` runs a tiny
// rcbench -json through it.

import (
	"fmt"

	"rcgo"
)

// BenchSchema identifies the report layout. Format: "rcgo.bench/<n>".
const BenchSchema = "rcgo.bench/1"

// BenchOptions echoes the options the report was produced under, so a
// recorded file is self-describing.
type BenchOptions struct {
	// Scale is the workload scale override (0 = per-workload defaults).
	Scale int `json:"scale"`
	// Reps is the number of timed runs per configuration; sim_ns is
	// deterministic, wall_ns is the best of the reps.
	Reps int `json:"reps"`
}

// WorkloadReport is one workload's cells: the RC configuration's
// deterministic simulated time and operation counters, with the norc
// configuration as the overhead baseline.
type WorkloadReport struct {
	Name string `json:"name"`
	// SimNanos is the deterministic simulated execution time of the RC
	// configuration (the paper's primary comparison axis).
	SimNanos int64 `json:"sim_ns"`
	// WallNanos is the best wall-clock time across reps (noisy,
	// secondary).
	WallNanos int64 `json:"wall_ns"`
	// BaselineSimNanos is the norc configuration's simulated time.
	BaselineSimNanos int64 `json:"baseline_sim_ns"`
	// RCOverheadPct is (sim - baseline) / sim * 100, Table 2's RC column.
	RCOverheadPct float64 `json:"rc_overhead_pct"`

	// Operation counters from the RC run (Table 1 / Table 2 / Figure 9
	// inputs).
	Allocs          int64 `json:"allocs"`
	RCIncrements    int64 `json:"rc_increments"`
	RCDecrements    int64 `json:"rc_decrements"`
	FullUpdates     int64 `json:"full_updates"`
	SameChecks      int64 `json:"same_checks"`
	TradChecks      int64 `json:"trad_checks"`
	ParentChecks    int64 `json:"parent_checks"`
	UncheckedStores int64 `json:"unchecked_stores"`
	PinOps          int64 `json:"pin_ops"`
	UnscanWords     int64 `json:"unscan_words"`
	UnscanNanos     int64 `json:"unscan_ns"`
}

// Stores is the total pointer-assignment count of the report (Figure
// 9's denominator).
func (r *WorkloadReport) Stores() int64 {
	return r.UncheckedStores + r.SameChecks + r.TradChecks + r.ParentChecks + r.FullUpdates
}

// BenchReport is the top-level rcbench -json document.
type BenchReport struct {
	Schema    string           `json:"schema"`
	Options   BenchOptions     `json:"options"`
	Workloads []WorkloadReport `json:"workloads"`
	// Parallel is the optional interleaved A/B section over the
	// Go-native allocation fast path (parallel.go), recorded in
	// BENCH_pr5_allocfast.json; no longer produced, and absent from
	// workload-only reports, so older recorded files stay valid under
	// the same schema.
	Parallel []ParallelReport `json:"parallel,omitempty"`
	// Fabric is the optional interleaved A/B section over the arena's
	// sharding fabric (rcbench -fabric-ab, fabric.go): single-shard
	// baseline against a multi-shard fabric under a live multi-region
	// population. Optional for the same reason as Parallel.
	Fabric []FabricReport `json:"fabric,omitempty"`
	// Advisor is the optional interleaved A/B section over the
	// annotation advisor's gate (rcbench -advisor-ab, advise.go):
	// advisor disarmed (the default configuration, whose cost bound is
	// the point) against armed-from-birth profiling. Optional for the
	// same reason as Parallel.
	Advisor []AdvisorBenchReport `json:"advisor,omitempty"`
	// Ownership is the optional interleaved A/B section over the
	// exclusive-ownership fast path (rcbench -own-ab, own.go): the
	// shared-path API against the same work through an Owner token.
	// Optional for the same reason as Parallel.
	Ownership []OwnershipReport `json:"ownership,omitempty"`
	// Contention is the optional interleaved A/B section over blocking
	// ownership acquisition (rcbench -contend-ab, contend.go): the
	// uncontended TryAcquire cycle against AcquireContext, first on the
	// fast path and then under a many-worker hand-off storm. Optional
	// for the same reason as Parallel.
	Contention []ContentionReport `json:"contention,omitempty"`
	// Slab is the optional interleaved A/B section over the off-heap
	// slab backing store (rcbench -slab-ab, slab.go): GC-heap object
	// chunks against rcgo.WithOffHeapSlabs, including a GC-pressure
	// cell with the collector live. Optional for the same reason as
	// Parallel.
	Slab []SlabReport `json:"slab,omitempty"`
}

// BenchJSON runs every selected workload under the RC and norc
// configurations and assembles the machine-readable report.
func BenchJSON(o Options) (*BenchReport, error) {
	report := &BenchReport{
		Schema:  BenchSchema,
		Options: BenchOptions{Scale: o.Scale, Reps: o.reps()},
	}
	for _, w := range o.list() {
		c, err := compileAll(w, o.Scale, rcgo.ModeInf, rcgo.ModeNoRC)
		if err != nil {
			return nil, err
		}
		wall, res, err := timeRun(c.prog[rcgo.ModeInf], rcgo.RunConfig{}, o.reps())
		if err != nil {
			return nil, fmt.Errorf("%s/rc: %w", w.Name, err)
		}
		norc, err := rcgo.Run(c.prog[rcgo.ModeNoRC], rcgo.RunConfig{})
		if err != nil {
			return nil, fmt.Errorf("%s/norc: %w", w.Name, err)
		}
		st := res.Region
		wr := WorkloadReport{
			Name:             w.Name,
			SimNanos:         int64(simTime(res)),
			WallNanos:        int64(wall),
			BaselineSimNanos: int64(simTime(norc)),
			Allocs:           st.Allocs,
			RCIncrements:     st.RCIncrements,
			RCDecrements:     st.RCDecrements,
			FullUpdates:      st.FullUpdates,
			SameChecks:       st.SameChecks,
			TradChecks:       st.TradChecks,
			ParentChecks:     st.ParentChecks,
			UncheckedStores:  st.UncheckedPtrs,
			PinOps:           st.PinOps,
			UnscanWords:      st.UnscanWords,
			UnscanNanos:      int64(simUnscanTime(res)),
		}
		if wr.SimNanos > 0 {
			wr.RCOverheadPct = 100 * float64(wr.SimNanos-wr.BaselineSimNanos) / float64(wr.SimNanos)
		}
		report.Workloads = append(report.Workloads, wr)
	}
	return report, nil
}
