package exp

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// abReport wraps rows in the smallest report Validate accepts.
func abReport(rows ...ABRow) *BenchReport {
	return &BenchReport{
		Schema:  BenchSchema,
		Options: BenchOptions{Reps: 1},
		Workloads: []WorkloadReport{{
			Name: "w", SimNanos: 1, WallNanos: 1, BaselineSimNanos: 1, Allocs: 1, SameChecks: 1,
		}},
		AB: rows,
	}
}

func TestSummarizeAB(t *testing.T) {
	for _, tc := range []struct {
		name  string
		pairs [][2]float64
		want  ABSummary
	}{
		{"one round", [][2]float64{{100, 80}}, ABSummary{100, 80, 20, 20, 20}},
		// Deltas 10, 20, -10 sort to -10, 10, 20.
		{"odd, variant faster", [][2]float64{{100, 90}, {100, 80}, {100, 110}},
			ABSummary{100, 90, 10, 0, 15}},
		// Deltas -50, -100, -25, -75; an advisor-style row reads negative.
		{"even, variant slower", [][2]float64{{10, 15}, {10, 20}, {20, 25}, {20, 35}},
			ABSummary{15, 22.5, -62.5, -81.25, -43.75}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := SummarizeAB(tc.pairs); got != tc.want {
				t.Fatalf("SummarizeAB(%v) = %+v, want %+v", tc.pairs, got, tc.want)
			}
		})
	}
}

func TestCommittedBenchFilesValidate(t *testing.T) {
	files, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed BENCH_*.json files (err %v)", err)
	}
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ReadBenchReport(fh); err != nil {
			t.Errorf("%s: %v", f, err)
		}
		fh.Close()
	}
}

func TestValidateRejectsContradictoryRows(t *testing.T) {
	// BENCH_pr10_slab.json's slab-alloc medians-as-minima (the variant
	// slower) beside a delta spread that says the variant is faster.
	planted := ABRow{Name: "slab-alloc", CPU: 2, Pairs: [][2]float64{{33.38766, 35.8531725}},
		ABSummary: ABSummary{33.38766, 35.8531725, 19.265900592367995, 12, 25}}
	if err := abReport(planted).Validate(); err == nil || !strings.Contains(err.Error(), "contradicts itself") {
		t.Errorf("planted slab-alloc row: err = %v, want a contradiction", err)
	}
	// Derived exactly from its pairs, and still contradictory: four of
	// five pairs favour the variant, but the per-side medians do not.
	skewed := [][2]float64{{1, 0.5}, {1, 0.5}, {100, 90}, {100, 90}, {1, 1000}}
	row := ABRow{Name: "skewed", CPU: 2, Pairs: skewed, ABSummary: SummarizeAB(skewed)}
	if err := abReport(row).Validate(); err == nil || !strings.Contains(err.Error(), "contradicts itself") {
		t.Errorf("skewed row %+v: err = %v, want a contradiction", row.ABSummary, err)
	}
	// A summary that is not the one its pairs give.
	pairs := [][2]float64{{100, 90}, {100, 80}}
	row = ABRow{Name: "edited", CPU: 2, Pairs: pairs, ABSummary: SummarizeAB(pairs)}
	row.DeltaPct += 1e-9
	if err := abReport(row).Validate(); err == nil || !strings.Contains(err.Error(), "not the summary") {
		t.Errorf("edited row: err = %v, want a summary mismatch", err)
	}
	// A GC bracket without a baseline heap.
	row = ABRow{Name: "gc", CPU: 2, Pairs: pairs, ABSummary: SummarizeAB(pairs), GCBracket: GCBracket{HeapBytes: 1}}
	if err := abReport(row).Validate(); err == nil {
		t.Error("GC bracket with no baseline heap bytes accepted")
	}
}

func TestRunABSelection(t *testing.T) {
	if _, err := RunAB("nonexistent", 2, 1); err == nil {
		t.Error("unknown cell accepted")
	}
	if _, err := RunAB("all", 0, 1); err == nil {
		t.Error("cpu 0 accepted")
	}
	if len(abScenarios) != 13 {
		t.Errorf("%d registered cells, want 13", len(abScenarios))
	}
}

// Every registered scenario, one tiny round at cpu 2, must give a row
// that validates.
func TestABScenariosSpin(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var rows []ABRow
	for _, sc := range abScenarios {
		row, err := runAB(sc, 2, 1, 200)
		if err != nil {
			t.Fatal(err)
		}
		if (row.GCBracket != GCBracket{}) != sc.GC {
			t.Errorf("%s: GC bracket %+v with GC = %v", sc.Name, row.GCBracket, sc.GC)
		}
		rows = append(rows, row)
	}
	if err := abReport(rows...).Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	PrintAB(&buf, rows)
	if !strings.Contains(buf.String(), "contend-handoff") {
		t.Error("rendered table missing a cell")
	}
}

// The legacy sections keep their own rules, including fabric geometry
// and each section's own fields.
func TestValidateLegacyRules(t *testing.T) {
	ok := LegacyABRow{Name: "c", CPU: 2, BestOf: 10, BaselineNs: 2, NsPerOp: 1, DeltaPct: 50}
	for _, tc := range []struct {
		name   string
		mutate func(b *BenchReport)
	}{
		{"fabric shards 1", func(b *BenchReport) {
			r := ok
			r.LiveRegions, r.Shards = 256, 1
			b.Fabric = []LegacyABRow{r}
		}},
		{"fabric no backdrop", func(b *BenchReport) {
			r := ok
			r.Shards = 8
			b.Fabric = []LegacyABRow{r}
		}},
		{"shards outside fabric", func(b *BenchReport) {
			r := ok
			r.Shards = 8
			b.Ownership = []LegacyABRow{r}
		}},
		{"delta_pct in advisor", func(b *BenchReport) { b.Advisor = []LegacyABRow{ok} }},
		{"duplicate cell", func(b *BenchReport) { b.Contention = []LegacyABRow{ok, ok} }},
		{"zero best_of", func(b *BenchReport) {
			r := ok
			r.BestOf = 0
			b.Parallel = []LegacyABRow{r}
		}},
		{"negative slab bracket", func(b *BenchReport) {
			r := ok
			r.GCBracket = GCBracket{BaselineHeapBytes: 1, GCPauseNs: -1}
			b.Slab = []LegacyABRow{r}
		}},
	} {
		b := abReport()
		b.Ownership = []LegacyABRow{ok}
		if err := b.Validate(); err != nil {
			t.Fatalf("valid legacy row rejected: %v", err)
		}
		b.Ownership = nil
		tc.mutate(b)
		if err := b.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
