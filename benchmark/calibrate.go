package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// The calibration and A/A tools. -calibrate N runs N full sets (every
// workload once per set, each run a fresh process with its own seed,
// as the driver runs them), saves every result, and writes
// CALIBRATION.md: per metric × workload the medians of the two halves
// of the sets, their relative gap, and the spread of all runs.
// -compare a.json b.json applies BENCHMARK.json's bounds to two saved
// result files and exits non-zero on a breach.

// savedRun is one run as the tools keep it.
type savedRun struct {
	Set    int    `json:"set"`
	Failed bool   `json:"failed,omitempty"` // the command exited non-zero
	Result result `json:"result"`
	Detail detail `json:"detail"`
}

// benchSpec is the part of BENCHMARK.json the tools read.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadSpec() (*benchSpec, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// runOnce runs one workload in a fresh process and parses what it
// printed: the result line on standard output, the detail line on
// standard error.
func runOnce(name string, seed uint64, seconds float64, outDir string) (savedRun, error) {
	self, err := os.Executable()
	if err != nil {
		return savedRun{}, err
	}
	cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", "0", "-out", outDir)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	var run savedRun
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &run.Result); err != nil {
		return run, fmt.Errorf("%s seed %d: no result (%v): %s", name, seed, runErr, stderr.String())
	}
	for _, l := range strings.Split(stderr.String(), "\n") {
		if strings.HasPrefix(l, "{") {
			_ = json.Unmarshal([]byte(l), &run.Detail) // diagnostics only
		}
	}
	if runErr != nil {
		run.Failed = true
		warnf("calibrate: %s seed %d failed: %v", name, seed, run.Detail.Failures)
	}
	return run, nil
}

func calibrateMain(sets int, seconds float64, outDir string) int {
	spec, err := loadSpec()
	if err != nil {
		warnf("calibrate: %v", err)
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		warnf("calibrate: %v", err)
		return 2
	}
	var runs []savedRun
	start := time.Now()
	for set := 0; set < sets; set++ {
		for wi, w := range spec.Workloads {
			run, err := runOnce(w.Name, uint64(1000+set*10+wi), seconds, outDir)
			if err != nil {
				warnf("calibrate: %v", err)
				return 1
			}
			run.Set = set
			runs = append(runs, run)
			warnf("set %d/%d %-12s ops/s %.1f  drift %.3f  round IQR %.3f  (%.0fs elapsed)", set+1, sets, w.Name,
				run.Result.Metrics["ops_per_s"].Value, run.Detail.RoundDrift, run.Detail.RoundIQR, time.Since(start).Seconds())
		}
	}
	saved := filepath.Join(outDir, "calibration.json")
	if b, err := json.MarshalIndent(runs, "", " "); err != nil || os.WriteFile(saved, b, 0o644) != nil {
		warnf("calibrate: cannot write %s", saved)
		return 1
	}
	md := filepath.Join(filepath.Dir(filepath.Clean(outDir)), "CALIBRATION.md")
	report, breaches := calibrationReport(spec, runs, sets, seconds)
	if err := os.WriteFile(md, []byte(report), 0o644); err != nil {
		warnf("calibrate: %v", err)
		return 1
	}
	warnf("wrote %s and %s", md, saved)
	if breaches > 0 {
		warnf("calibrate: %d breaches (metric × workload pairs over their bound, failed runs)", breaches)
		return 1
	}
	return 0
}

// values collects one metric of one workload from a list of runs.
func values(runs []savedRun, workload, metricName string) []float64 {
	var xs []float64
	for _, r := range runs {
		if r.Detail.Workload == workload {
			xs = append(xs, r.Result.Metrics[metricName].Value)
		}
	}
	return xs
}

// worseBy is how much worse b is than a, as a share of a, in the
// metric's own direction (negative: b is better).
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func calibrationReport(spec *benchSpec, runs []savedRun, sets int, seconds float64) (string, int) {
	var sb strings.Builder
	breaches := 0
	fmt.Fprintf(&sb, "# Calibration\n\n")
	fmt.Fprintf(&sb, "%d sets × %d workloads, `--seconds %g`, one fresh process and one seed per run, GOMAXPROCS 2.\n", sets, len(spec.Workloads), seconds)
	fmt.Fprintf(&sb, "Written by `-calibrate %d`; the raw runs are in `out/calibration.json` (not committed).\n\n", sets)
	fmt.Fprintf(&sb, "`ops_per_s`, `p50_us`, `p90_us` and `ttfr_p50_us` are host-adjusted (see README.md, Run shape).\n")
	fmt.Fprintf(&sb, "`half A` / `half B` are the medians of the first and the second half of the sets — two\ndisjoint A/A samples of the same code. `gap` is how much worse B is than A in the metric's\ndirection; `spread` is (Q3 − Q1) ÷ median over all runs, with the quartiles of Python's\n`statistics.quantiles(n=4)`. A pair passes when |gap| and spread are within the bound.\n\n")
	var first, second []savedRun
	for _, r := range runs {
		if r.Set < sets/2 {
			first = append(first, r)
		} else {
			second = append(second, r)
		}
	}
	for _, w := range spec.Workloads {
		fmt.Fprintf(&sb, "## %s\n\n", w.Name)
		fmt.Fprintf(&sb, "| metric | unit | half A | half B | gap | spread | bound | |\n|---|---|---|---|---|---|---|---|\n")
		for _, m := range spec.EndToEnd {
			a, b := median(values(first, w.Name, m.Name)), median(values(second, w.Name, m.Name))
			gap, spread := worseBy(a, b, m.Better), iqrShare(values(runs, w.Name, m.Name))
			verdict := "ok"
			// The spread of setup_s is reported but not judged (the
			// contract judges only its medians).
			if gap > m.Bound || -gap > m.Bound || (spread > m.Bound && m.Name != "setup_s") {
				verdict = "**over**"
				breaches++
			}
			fmt.Fprintf(&sb, "| `%s` | %s | %.5g | %.5g | %+.1f %% | %.1f %% | %.0f %% | %s |\n",
				m.Name, m.Unit, a, b, 100*gap, 100*spread, 100*m.Bound, verdict)
		}
		var iqr, drift, work, factor, rawOps []float64
		outside := 0
		for _, r := range runs {
			if r.Detail.Workload == w.Name {
				iqr, drift = append(iqr, r.Detail.RoundIQR), append(drift, r.Detail.RoundDrift)
				work, factor = append(work, r.Detail.WorkDrift), append(factor, r.Detail.HostFactor)
				rawOps = append(rawOps, r.Detail.Raw["ops_per_s"].Value)
				if !stationary(r.Detail.RoundDrift) {
					outside++
				}
			}
		}
		fmt.Fprintf(&sb, "\nHost factor (median reference slice ÷ nominal) %.2f … %.2f; `ops_per_s` as the clock saw it: median %.5g, spread %.1f %%. Rounds' IQR (median over runs) %.1f %%; `bench.round_drift` %.3f … %.3f (median %.3f), outside %.2f–%.2f in %d of %d runs; `bench.work_drift` %.3f … %.3f.\n\n",
			quantile(factor, 0), quantile(factor, 1), median(rawOps), 100*iqrShare(rawOps),
			100*median(iqr), quantile(drift, 0), quantile(drift, 1), median(drift), driftLo, driftHi, outside, len(drift), quantile(work, 0), quantile(work, 1))
	}
	failed := 0
	for _, r := range runs {
		if r.Failed {
			failed++
		}
	}
	fmt.Fprintf(&sb, "%d of %d runs exited non-zero.\n", failed, len(runs))
	return sb.String(), breaches + failed
}

// compareMain is -compare a.json b.json: b must not be worse than a by
// more than the bound on any end-to-end metric × workload.
func compareMain(args []string) int {
	if len(args) != 2 {
		warnf("usage: -compare a.json b.json (files written by -calibrate)")
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		warnf("compare: %v", err)
		return 2
	}
	var sides [2][]savedRun
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &sides[i])
		}
		if err != nil {
			warnf("compare: %s: %v", path, err)
			return 2
		}
	}
	breaches := 0
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			a, b := values(sides[0], w.Name, m.Name), values(sides[1], w.Name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				warnf("compare: %s %s: missing on one side", w.Name, m.Name)
				return 2
			}
			gap := worseBy(median(a), median(b), m.Better)
			verdict := "ok"
			if gap > m.Bound {
				verdict = "REGRESSION"
				breaches++
			}
			fmt.Printf("%-12s %-15s a %-12.5g b %-12.5g worse by %+6.1f %%  (bound %.0f %%, spreads %.1f %% / %.1f %%)  %s\n",
				w.Name, m.Name, median(a), median(b), 100*gap, 100*m.Bound, 100*iqrShare(a), 100*iqrShare(b), verdict)
		}
	}
	if breaches > 0 {
		return 1
	}
	return 0
}
