// Command benchmark is the repository's performance ledger: four
// workloads, six end-to-end metrics, per-layer timings taken from
// outside the program. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	// One process, two cores' worth of scheduler: the load generator
	// never asks for more than the host has.
	runtime.GOMAXPROCS(2)

	var (
		name      = flag.String("workload", "", "workload to run: point-read, scan-drain, scatter-agg, neworder")
		seed      = flag.Uint64("seed", 1, "every input is generated from this seed")
		seconds   = flag.Float64("seconds", 20, "how long the measured rounds run for, both twins together")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics and a span file")
		strict    = flag.Bool("strict", false, "fail the run when bench.round_drift is outside 0.90–1.10")
		corrupt   = flag.Bool("corrupt", false, "flip a bit in every expectation (the command must then fail)")
		outDir    = flag.String("out", "benchmark/out", "directory for span files, calibration data and temporary data")
		calibrate = flag.Int("calibrate", 0, "run N full sets and write CALIBRATION.md")
		compare   = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.Parse()

	switch {
	case *compare:
		os.Exit(compareMain(flag.Args()))
	case *calibrate > 0:
		os.Exit(calibrateMain(*calibrate, *seconds, *outDir))
	}
	w := workloadByName(*name)
	if w == nil {
		warnf("benchmark: unknown workload %q", *name)
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		warnf("benchmark: %v", err)
		os.Exit(2)
	}
	c := config{seed: *seed, corrupt: *corrupt, strict: *strict, tmpDir: *outDir}

	var res result
	var det any
	var err error
	if *trace == 0 {
		var d detail
		res, d, err = runEndToEnd(w, c, *seconds)
		det = d
	} else {
		var td traceDetail
		res, td, err = runTraced(w, c, *seconds, *outDir)
		det = td
	}
	if err != nil {
		warnf("benchmark: %v", err)
		os.Exit(1)
	}
	if b, jerr := json.Marshal(det); jerr == nil {
		warnf("%s", b)
	}
	line, err := json.Marshal(res)
	if err != nil {
		warnf("benchmark: %v", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
