// Command benchlint validates an rcbench -json report read from stdin:
//
//	go run rcgo/cmd/rcbench -json | go run rcgo/cmd/benchlint
//
// The rules are exp.BenchReport.Validate's: the schema tag, sane
// workload cells, and A/B rows that do not contradict themselves. It
// exits non-zero with a message naming the first violation. `make
// smoke` runs a tiny report through it, and `make benchlint-files`
// every committed BENCH_*.json.
package main

import (
	"fmt"
	"os"

	"rcgo/internal/exp"
)

func main() {
	report, err := exp.ReadBenchReport(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchlint:", err)
		os.Exit(1)
	}
	legacy := len(report.Parallel) + len(report.Fabric) + len(report.Advisor) +
		len(report.Ownership) + len(report.Contention) + len(report.Slab)
	fmt.Printf("benchlint: ok (%d workloads, %d ab cells, %d legacy A/B cells)\n",
		len(report.Workloads), len(report.AB), legacy)
}
