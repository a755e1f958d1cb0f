// Command perfbench is the repository's end-to-end benchmark. It drives
// the simulator from outside, through the same public constructors a
// user calls, and reports two kinds of numbers for one workload:
//
//   - sim: what the modelled A100 serving system achieved, in virtual time
//     (TTFT, TPOT, SLO attainment, goodput, SM utilisation);
//   - host: what producing those numbers cost this machine (wall time,
//     allocations, memory, set-up time).
//
// Usage:
//
//	perfbench --workload chat-steady --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 1 a separate traced
// run reports the per-layer split instead. --workload all runs every
// workload in turn, each report ending in its own JSON line; --manifest
// prints BENCHMARK.json. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: "+workloadNames()+", or all")
		seed    = fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = fs.Float64("seconds", runSeconds, "how long to keep repeating passes after the first")
		traced  = fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
		outDir  = fs.String("out", ".bench_build/perfbench-trace", "directory for the traced run's span and report files")
		manif   = fs.Bool("manifest", false, "print BENCHMARK.json for the workload and metric tables, then exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *manif {
		stdout.Write(manifest())
		return 0
	}
	workloads := Workloads
	if *name != "all" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		workloads = []Workload{w}
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, traced: *traced == 1, workers: runtime.NumCPU(), outDir: *outDir}
	code := 0
	for _, w := range workloads {
		res := measure(w, cfg)
		report(stdout, w, cfg, res)
		if cfg.traced {
			if err := res.write(cfg.outDir); err != nil {
				fmt.Fprintln(stderr, "perfbench:", err)
				code = 1
			}
		}
		for _, e := range res.errors {
			fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", w.Name, e)
		}
		if !res.correct() {
			code = 1
		}
	}
	return code
}

func workloadNames() string {
	var names []string
	for _, w := range Workloads {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}

// report prints the host block, every metric by name with its unit and
// kind, the fingerprint, and last the JSON result line.
func report(out io.Writer, w Workload, cfg config, res *result) {
	h := res.Host
	fmt.Fprintf(out, "host        cpu=%q nproc=%d gomaxprocs=%d go=%s\n", h.CPU, h.NumCPU, h.GOMAXPROCS, h.Go)
	fmt.Fprintf(out, "workload    %s seed=%d traces=%dx%d requests rate=%g req/s passes=%d workers=%d\n",
		w.Name, cfg.seed, w.Traces, w.N, w.Rate, res.Passes, cfg.workers)
	fmt.Fprintf(out, "fingerprint %s\n", res.Fingerprint)
	for _, group := range []struct {
		title string
		list  []metric
	}{{"end-to-end", res.EndToEnd}, {"per-layer", res.PerLayer}, {"per-layer (this workload only)", res.Extra}} {
		if len(group.list) == 0 {
			continue
		}
		fmt.Fprintf(out, "-- %s\n", group.title)
		for _, m := range group.list {
			fmt.Fprintf(out, "%-34s %16.6g %-10s %-4s %s\n", m.Name, m.Value, m.Unit, m.Kind, m.Note)
		}
	}
	metrics := map[string]jsonMetric{}
	list := res.EndToEnd
	if cfg.traced {
		list = res.PerLayer
	}
	for _, m := range list {
		metrics[m.Name] = jsonMetric{Value: m.Value, Unit: m.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{res.correct(), res.Attempted, res.Failed, metrics})
	fmt.Fprintln(out, string(line))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
