package exp

// Machine-readable benchmark results for cmd/rcbench -json. The schema
// is versioned so recorded trajectory files (BENCH_*.json) stay
// comparable across runs: consumers must check Schema before reading
// any other field, and additions bump the minor suffix only when a
// field changes meaning. BenchReport.Validate holds the invariants;
// cmd/benchlint applies them to a report on stdin, and `make smoke`
// runs a tiny rcbench -json through it.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

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
	// AB is the optional A/B section (rcbench -ab, ab.go), absent from
	// workload-only reports.
	AB []ABRow `json:"ab,omitempty"`
	// The legacy A/B sections, each written by its own per-feature
	// harness before the "ab" section replaced them. Nothing produces
	// them any more; the committed files that carry them stay readable.
	Parallel   []LegacyABRow `json:"parallel,omitempty"`
	Fabric     []LegacyABRow `json:"fabric,omitempty"`
	Advisor    []LegacyABRow `json:"advisor,omitempty"`
	Ownership  []LegacyABRow `json:"ownership,omitempty"`
	Contention []LegacyABRow `json:"contention,omitempty"`
	Slab       []LegacyABRow `json:"slab,omitempty"`
}

// LegacyABRow is a row of a legacy A/B section: the union of the six
// sections' fields, read-only. Its per-side numbers are minima over
// best_of rounds, while delta_pct is the median of the paired deltas,
// so the two can disagree in sign (EXPERIMENTS.md §"A/B harness"); the
// pairs to restate them as medians were never kept.
type LegacyABRow struct {
	Name   string `json:"name"`
	CPU    int    `json:"cpu"`
	BestOf int    `json:"best_of"`
	// LiveRegions and Shards are the fabric section's backdrop and
	// fabric width.
	LiveRegions int     `json:"live_regions,omitempty"`
	Shards      int     `json:"shards,omitempty"`
	BaselineNs  float64 `json:"baseline_ns_op"`
	NsPerOp     float64 `json:"ns_op"`
	// DeltaPct is the improvement in every section but advisor, which
	// records the armed side's cost as OverheadPct instead.
	DeltaPct    float64 `json:"delta_pct,omitempty"`
	OverheadPct float64 `json:"overhead_pct,omitempty"`
	// GCBracket is carried by the slab section's GC-pressure cell.
	GCBracket
}

// ReadBenchReport decodes one report, rejecting unknown fields, and
// validates it.
func ReadBenchReport(r io.Reader) (*BenchReport, error) {
	var report BenchReport
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&report); err != nil {
		return nil, fmt.Errorf("invalid JSON: %w", err)
	}
	return &report, report.Validate()
}

// Validate checks the invariants every rcgo.bench/1 document must
// satisfy and names the first violation. Workloads need positive times,
// non-negative counters and a non-zero store total. Every A/B row needs
// a unique name and positive cpu and timings. An "ab" row must not
// contradict itself: its summary is exactly SummarizeAB of its pairs,
// and a delta spread that excludes zero must agree with the order of
// the per-side medians. Legacy rows keep the rules of their sections.
func (b *BenchReport) Validate() error {
	if b.Schema != BenchSchema {
		return fmt.Errorf("schema %q, want %q", b.Schema, BenchSchema)
	}
	if len(b.Workloads) == 0 {
		return errors.New("no workloads in report")
	}
	if b.Options.Reps <= 0 {
		return fmt.Errorf("options.reps = %d, want > 0", b.Options.Reps)
	}
	seen := make(map[string]bool)
	for i, w := range b.Workloads {
		if w.Name == "" || seen[w.Name] {
			return fmt.Errorf("workload %d: name %q is empty or repeated", i, w.Name)
		}
		seen[w.Name] = true
		for _, c := range []struct {
			name   string
			v, min int64
		}{
			{"sim_ns", w.SimNanos, 1},
			{"wall_ns", w.WallNanos, 1},
			{"baseline_sim_ns", w.BaselineSimNanos, 1},
			{"allocs", w.Allocs, 1},
			{"rc_increments", w.RCIncrements, 0},
			{"rc_decrements", w.RCDecrements, 0},
			{"full_updates", w.FullUpdates, 0},
			{"same_checks", w.SameChecks, 0},
			{"trad_checks", w.TradChecks, 0},
			{"parent_checks", w.ParentChecks, 0},
			{"unchecked_stores", w.UncheckedStores, 0},
			{"pin_ops", w.PinOps, 0},
			{"unscan_words", w.UnscanWords, 0},
			{"unscan_ns", w.UnscanNanos, 0},
		} {
			if c.v < c.min {
				return fmt.Errorf("%s: %s = %d, want >= %d", w.Name, c.name, c.v, c.min)
			}
		}
		if w.Stores() == 0 {
			return fmt.Errorf("%s: no pointer stores recorded", w.Name)
		}
	}
	seen = make(map[string]bool)
	for i, r := range b.AB {
		if err := checkCell("ab", i, r.Name, r.CPU, len(r.Pairs), r.BaselineNs, r.NsPerOp, seen); err != nil {
			return err
		}
		for _, p := range r.Pairs {
			if !(p[0] > 0 && p[1] > 0) {
				return fmt.Errorf("%s: pair %v, want both ns > 0", r.Name, p)
			}
		}
		if r.DeltaQ1Pct > 0 && !(r.NsPerOp < r.BaselineNs) || r.DeltaQ3Pct < 0 && !(r.NsPerOp > r.BaselineNs) {
			return fmt.Errorf("%s: contradicts itself: delta spread %+.2f..%+.2f%% excludes zero, but the medians are %g (baseline) and %g (variant) ns/op",
				r.Name, r.DeltaQ1Pct, r.DeltaQ3Pct, r.BaselineNs, r.NsPerOp)
		}
		if want := SummarizeAB(r.Pairs); r.ABSummary != want {
			return fmt.Errorf("%s: summary %+v is not the summary of its pairs %+v", r.Name, r.ABSummary, want)
		}
		if err := r.GCBracket.validate(); err != nil {
			return fmt.Errorf("%s: %w", r.Name, err)
		}
	}
	for _, sec := range []struct {
		name string
		rows []LegacyABRow
	}{
		{"parallel", b.Parallel}, {"fabric", b.Fabric}, {"advisor", b.Advisor},
		{"ownership", b.Ownership}, {"contention", b.Contention}, {"slab", b.Slab},
	} {
		seen = make(map[string]bool)
		for i, r := range sec.rows {
			if err := checkCell(sec.name, i, r.Name, r.CPU, r.BestOf, r.BaselineNs, r.NsPerOp, seen); err != nil {
				return err
			}
			// Each section's own fields, and only those.
			switch {
			case sec.name == "fabric" && r.LiveRegions <= 0:
				return fmt.Errorf("%s: live_regions = %d, want > 0", r.Name, r.LiveRegions)
			case sec.name == "fabric" && r.Shards < 2:
				return fmt.Errorf("%s: shards = %d, want >= 2 (the baseline side is always 1 shard)", r.Name, r.Shards)
			case sec.name != "fabric" && (r.LiveRegions != 0 || r.Shards != 0),
				sec.name != "advisor" && r.OverheadPct != 0,
				sec.name == "advisor" && r.DeltaPct != 0,
				sec.name != "slab" && r.GCBracket != (GCBracket{}):
				return fmt.Errorf("%s: carries a field the %s section does not have", r.Name, sec.name)
			}
			if err := r.GCBracket.validate(); err != nil {
				return fmt.Errorf("%s: %w", r.Name, err)
			}
		}
	}
	return nil
}

// checkCell holds the rules every A/B row shares.
func checkCell(section string, i int, name string, cpu, rounds int, baseline, variant float64, seen map[string]bool) error {
	switch {
	case name == "":
		return fmt.Errorf("%s cell %d has no name", section, i)
	case seen[name]:
		return fmt.Errorf("%s cell %q appears twice", section, name)
	case cpu <= 0:
		return fmt.Errorf("%s: cpu = %d, want > 0", name, cpu)
	case rounds <= 0:
		return fmt.Errorf("%s: %d rounds (best_of or pairs), want > 0", name, rounds)
	case !(variant > 0):
		return fmt.Errorf("%s: ns_op = %g, want > 0", name, variant)
	case !(baseline > 0):
		return fmt.Errorf("%s: baseline_ns_op = %g, want > 0", name, baseline)
	}
	seen[name] = true
	return nil
}

// validate checks a GC bracket: no negative volume, and a non-zero
// baseline heap whenever anything was recorded — an all-zero baseline
// means the bracket never ran.
func (g GCBracket) validate() error {
	for _, v := range []int64{g.BaselineHeapBytes, g.HeapBytes, g.BaselineGCPauseNs, g.GCPauseNs, g.BaselineNumGC, g.NumGC} {
		if v < 0 {
			return fmt.Errorf("GC bracket %+v has a negative volume", g)
		}
	}
	if g != (GCBracket{}) && g.BaselineHeapBytes == 0 {
		return errors.New("GC bracket recorded no baseline heap bytes")
	}
	return nil
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
