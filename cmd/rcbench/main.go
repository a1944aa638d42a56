// Command rcbench regenerates the tables and figures of the paper's
// evaluation (Section 5 of Gay & Aiken, "Language Support for Regions",
// PLDI 2001) over the eight workload programs.
//
// Usage:
//
//	rcbench                  # everything
//	rcbench -table 2         # one table (1, 2 or 3)
//	rcbench -figure 8        # one figure (7, 8 or 9)
//	rcbench -scale 50 -reps 5 -workloads moss,tile
//	rcbench -json            # machine-readable report on stdout
//	rcbench -fabric-ab 10 -fabric-cpu 8 -fabric-live 256   # arena fabric A/B
//	rcbench -advisor-ab 10 -advisor-cpu 8   # annotation-advisor gate A/B
//	rcbench -own-ab 10 -own-cpu 2    # ownership fast-path A/B (shared vs Owner token)
//	rcbench -contend-ab 10 -contend-cpu 4   # blocking-acquisition A/B (fast path + hand-off storm)
//	rcbench -slab-ab 10 -slab-cpu 4  # off-heap slab A/B (GC-heap chunks vs slab store, with a GC-pressure cell)
//	rcbench -advise              # profile a deliberately un-annotated
//	                             # grobner-mix replay and print the
//	                             # advisor's upgrade table; exits non-zero
//	                             # if no upgrade candidate is found
//	rcbench -json -workloads grobner -fabric-ab 10   # record a fabric section
//
// With -json the human tables are skipped (-table/-figure/-space/-bars
// are ignored) and a single exp.BenchReport document — schema
// "rcgo.bench/1", see internal/exp/json.go — is written to stdout, for
// recording BENCH_*.json trajectory files and for cmd/benchlint.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"rcgo/internal/exp"
)

func main() {
	table := flag.Int("table", 0, "regenerate only this table (1, 2 or 3)")
	space := flag.Bool("space", false, "also report peak heap footprint per backend")
	figure := flag.Int("figure", 0, "regenerate only this figure (7, 8 or 9)")
	scale := flag.Int("scale", 0, "override workload scale (0 = default)")
	reps := flag.Int("reps", 3, "timed repetitions per cell (best is reported)")
	names := flag.String("workloads", "", "comma-separated workload subset")
	bars := flag.Bool("bars", false, "also render figures as bar charts")
	jsonOut := flag.Bool("json", false, "emit a machine-readable report (rcgo.bench/1) instead of tables")
	fabricAB := flag.Int("fabric-ab", 0, "run the arena fabric A/B benchmarks (1 shard vs GOMAXPROCS-wide), best of N interleaved runs per side (0 = skip)")
	fabricCPU := flag.Int("fabric-cpu", 8, "GOMAXPROCS for the -fabric-ab benchmarks")
	fabricLive := flag.Int("fabric-live", 256, "live-region backdrop population for the -fabric-ab benchmarks")
	advisorAB := flag.Int("advisor-ab", 0, "run the annotation-advisor gate A/B benchmarks (disarmed vs armed), best of N interleaved runs per side (0 = skip)")
	advisorCPU := flag.Int("advisor-cpu", 8, "GOMAXPROCS for the -advisor-ab benchmarks")
	ownAB := flag.Int("own-ab", 0, "run the ownership fast-path A/B benchmarks (shared path vs Owner token), best of N interleaved runs per side (0 = skip)")
	ownCPU := flag.Int("own-cpu", 2, "GOMAXPROCS for the -own-ab benchmarks")
	contendAB := flag.Int("contend-ab", 0, "run the blocking-acquisition A/B benchmarks (TryAcquire cycle vs AcquireContext, uncontended and under a hand-off storm), best of N interleaved runs per side (0 = skip)")
	contendCPU := flag.Int("contend-cpu", 4, "GOMAXPROCS (and contender count) for the -contend-ab benchmarks")
	slabAB := flag.Int("slab-ab", 0, "run the off-heap slab A/B benchmarks (GC-heap chunks vs the slab backing store, plus a GC-pressure cell), best of N interleaved runs per side (0 = skip)")
	slabCPU := flag.Int("slab-cpu", 4, "GOMAXPROCS for the -slab-ab benchmarks")
	advise := flag.Bool("advise", false, "replay the grobner op mix un-annotated through an advisor-armed arena and print the upgrade table; exit non-zero if no upgrade candidate is found")
	adviseAllocs := flag.Int("advise-allocs", 0, "allocation count for the -advise replay (0 = default)")
	flag.Parse()

	o := exp.Options{Scale: *scale, Reps: *reps}
	if *names != "" {
		o.Workloads = strings.Split(*names, ",")
	}

	all := *table == 0 && *figure == 0
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "rcbench:", err)
		os.Exit(1)
	}

	if *jsonOut {
		report, err := exp.BenchJSON(o)
		if err != nil {
			fail(err)
		}
		if *fabricAB > 0 {
			report.Fabric, err = exp.FabricAB(*fabricCPU, *fabricAB, *fabricLive)
			if err != nil {
				fail(err)
			}
		}
		if *advisorAB > 0 {
			report.Advisor, err = exp.AdvisorAB(*advisorCPU, *advisorAB)
			if err != nil {
				fail(err)
			}
		}
		if *ownAB > 0 {
			report.Ownership, err = exp.OwnAB(*ownCPU, *ownAB)
			if err != nil {
				fail(err)
			}
		}
		if *contendAB > 0 {
			report.Contention, err = exp.ContendAB(*contendCPU, *contendAB)
			if err != nil {
				fail(err)
			}
		}
		if *slabAB > 0 {
			report.Slab, err = exp.SlabAB(*slabCPU, *slabAB)
			if err != nil {
				fail(err)
			}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fail(err)
		}
		return
	}

	if *advise {
		rep, err := exp.AdviseReplay(*adviseAllocs)
		if err != nil {
			fail(err)
		}
		rep.WriteTable(os.Stdout)
		if rep.UpgradeCandidates == 0 {
			fail(fmt.Errorf("advise replay found no upgrade candidates — the advisor lost the flavour lattice"))
		}
		if *fabricAB == 0 && *advisorAB == 0 && *ownAB == 0 && *contendAB == 0 && *slabAB == 0 && *table == 0 && *figure == 0 {
			return
		}
		fmt.Println()
	}

	if *fabricAB > 0 {
		cells, err := exp.FabricAB(*fabricCPU, *fabricAB, *fabricLive)
		if err != nil {
			fail(err)
		}
		exp.PrintFabricAB(os.Stdout, cells)
		if *advisorAB == 0 && *ownAB == 0 && *contendAB == 0 && *slabAB == 0 && *table == 0 && *figure == 0 {
			return
		}
		fmt.Println()
	}

	if *advisorAB > 0 {
		cells, err := exp.AdvisorAB(*advisorCPU, *advisorAB)
		if err != nil {
			fail(err)
		}
		exp.PrintAdvisorAB(os.Stdout, cells)
		if *ownAB == 0 && *contendAB == 0 && *slabAB == 0 && *table == 0 && *figure == 0 {
			return
		}
		fmt.Println()
	}

	if *ownAB > 0 {
		cells, err := exp.OwnAB(*ownCPU, *ownAB)
		if err != nil {
			fail(err)
		}
		exp.PrintOwnAB(os.Stdout, cells)
		if *contendAB == 0 && *slabAB == 0 && *table == 0 && *figure == 0 {
			return
		}
		fmt.Println()
	}

	if *contendAB > 0 {
		cells, err := exp.ContendAB(*contendCPU, *contendAB)
		if err != nil {
			fail(err)
		}
		exp.PrintContendAB(os.Stdout, cells)
		if *slabAB == 0 && *table == 0 && *figure == 0 {
			return
		}
		fmt.Println()
	}

	if *slabAB > 0 {
		cells, err := exp.SlabAB(*slabCPU, *slabAB)
		if err != nil {
			fail(err)
		}
		exp.PrintSlabAB(os.Stdout, cells)
		if *table == 0 && *figure == 0 {
			return
		}
		fmt.Println()
	}

	if all || *table == 1 {
		rows, err := exp.Table1(o)
		if err != nil {
			fail(err)
		}
		exp.PrintTable1(os.Stdout, rows)
		fmt.Println()
	}
	if all || *figure == 7 {
		rows, err := exp.Figure7(o)
		if err != nil {
			fail(err)
		}
		exp.PrintFigure7(os.Stdout, rows)
		if *bars {
			exp.PrintFigure7Bars(os.Stdout, rows)
		}
		fmt.Println()
	}
	if all || *table == 2 {
		rows, err := exp.Table2(o)
		if err != nil {
			fail(err)
		}
		exp.PrintTable2(os.Stdout, rows)
		fmt.Println()
	}
	if all || *table == 3 {
		rows, err := exp.Table3(o)
		if err != nil {
			fail(err)
		}
		exp.PrintTable3(os.Stdout, rows)
		fmt.Println()
	}
	if all || *figure == 8 {
		rows, err := exp.Figure8(o)
		if err != nil {
			fail(err)
		}
		exp.PrintFigure8(os.Stdout, rows)
		if *bars {
			exp.PrintFigure8Bars(os.Stdout, rows)
		}
		fmt.Println()
	}
	if all || *figure == 9 {
		rows, err := exp.Figure9(o)
		if err != nil {
			fail(err)
		}
		exp.PrintFigure9(os.Stdout, rows)
		if *bars {
			exp.PrintFigure9Bars(os.Stdout, rows)
		}
	}
	if *space {
		fmt.Println()
		rows, err := exp.TableSpace(o)
		if err != nil {
			fail(err)
		}
		exp.PrintTableSpace(os.Stdout, rows)
	}
}
