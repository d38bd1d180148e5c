// SPEC overhead: reproduce one row of the paper's Table II — a pair of
// SPEC2006 workload models time-sharing one core — and print the measured
// normalized execution time and LLC MPKI next to the paper's numbers.
//
//	go run ./examples/spec_overhead            # 2Xwrf
//	go run ./examples/spec_overhead 2Xlbm
//	go run ./examples/spec_overhead perl+wrf
//	go run ./examples/spec_overhead 2Xzeusmp   # 2X<profile> for any SPEC profile
package main

import (
	"fmt"
	"log"
	"os"

	"timecache"
)

func main() {
	label := "2Xwrf"
	if len(os.Args) > 1 {
		label = os.Args[1]
	}
	opts := timecache.ExperimentOptions{InstrsPerProc: 300_000, WarmupInstrs: 250_000}
	fmt.Printf("running %s (%d measured instructions per process after %d warmup)...\n\n",
		label, opts.InstrsPerProc, opts.WarmupInstrs)
	tab, err := timecache.RunJob(timecache.Job{Experiment: "table2", Pairs: []string{label}}, opts)
	if err != nil {
		log.Fatal(err)
	}
	// One row: workload, normalized, mpki-base, mpki-tc, fa-l1i, fa-l1d, fa-llc.
	row := tab.Rows[0]
	paper, ok := timecache.PaperReference(label)

	fmt.Printf("%-22s %12s %12s\n", "", "measured", "paper")
	for i, name := range []string{"normalized exec time", "LLC MPKI (baseline)", "LLC MPKI (timecache)"} {
		ref := "-"
		if ok {
			ref = fmt.Sprintf("%.4f", []float64{paper.Normalized, paper.MPKIBase, paper.MPKITimeCache}[i])
		}
		fmt.Printf("%-22s %12s %12s\n", name, row[i+1], ref)
	}
	fmt.Println()
	fmt.Printf("delayed first accesses: L1I %s, L1D %s, LLC %s MPKI\n", row[4], row[5], row[6])
}
