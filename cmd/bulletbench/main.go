// Command bulletbench regenerates the paper's tables and figures as text
// tables (see DESIGN.md §3 for the experiment index and §6 for the
// extension studies; TestListMatchesDESIGN pins -list to those tables).
//
// Usage:
//
//	bulletbench                 # run everything (the fig11 sweep is large)
//	bulletbench -exp table1
//	bulletbench -exp fig11 -quick
//	bulletbench -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/prof"
	"repro/internal/workload"
)

var order = []string{
	"table1", "fig2", "fig4", "fig7", "fig10", "fig11", "fig12", "table3",
	"fig13", "fig14", "fig15", "ext-knobs", "ext-disagg", "ext-device", "ext-prefix", "ext-cluster", "ext-knee", "ext-tp", "ext-faults", "ext-pressure", "ext-fidelity", "ext-chaos",
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bulletbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "all", "experiment id (see -list)")
		quick    = fs.Bool("quick", false, "reduced request counts / sweeps")
		list     = fs.Bool("list", false, "list experiment ids, then exit")
		traceOut = fs.String("trace-out", "", "write a deterministic timeline trace of a representative run, then exit")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a post-GC heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *cpuProf != "" || *memProf != "" {
		stop, err := prof.Start(*cpuProf, *memProf)
		if err != nil {
			fmt.Fprintln(stderr, "bulletbench:", err)
			return 1
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(stderr, "bulletbench:", err)
			}
		}()
	}

	if *traceOut != "" {
		// The representative scenario most tables share: bullet on
		// azure-code at 4 req/s, seed 42.
		n := 300
		if *quick {
			n = 100
		}
		if err := experiments.WriteTrace(stdout, *traceOut, "bullet", workload.AzureCode, 4, n, 42); err != nil {
			fmt.Fprintln(stderr, "bulletbench:", err)
			return 1
		}
		return 0
	}

	if *list {
		fmt.Fprintln(stdout, "experiments:", strings.Join(order, ", "))
		return 0
	}

	runOne := func(id string) {
		fmt.Fprintf(stdout, "===== %s =====\n", id)
		fmt.Fprintln(stdout, render(id, *quick))
	}
	if *exp == "all" {
		for _, id := range order {
			runOne(id)
		}
		return 0
	}
	for _, id := range strings.Split(*exp, ",") {
		if !known(id) {
			fmt.Fprintf(stderr, "bulletbench: unknown experiment %q (have %s)\n", id, strings.Join(order, ", "))
			return 1
		}
		runOne(id)
	}
	return 0
}

func known(id string) bool {
	for _, k := range order {
		if k == id {
			return true
		}
	}
	return false
}

func render(id string, quick bool) string {
	n := 300
	if quick {
		n = 100
	}
	switch id {
	case "table1":
		return experiments.RenderTable1(experiments.Table1())
	case "fig2":
		rows, sums := experiments.Figure2()
		return experiments.RenderFigure2(rows, sums)
	case "fig4":
		return experiments.RenderFigure4(experiments.Figure4())
	case "fig7":
		return experiments.RenderFigure7(experiments.Figure7())
	case "fig10":
		return experiments.RenderFigure10(experiments.Figure10(4000, 42))
	case "fig11":
		cfg := experiments.DefaultE2EConfig()
		if quick {
			cfg = experiments.QuickE2EConfig()
		}
		return experiments.RenderFigure11(experiments.Figure11(cfg))
	case "fig12":
		return experiments.RenderFigure12(experiments.Figure12(3.5, n, 42, 48))
	case "fig13":
		return experiments.RenderFigure13(experiments.Figure13(workload.AzureCode, 5, n, 42))
	case "fig14":
		return experiments.RenderFigure14(experiments.Figure14(experiments.DefaultFigure14Rates(), n, 42))
	case "fig15":
		return experiments.RenderFigure15(experiments.Figure15(n, 42))
	case "table3":
		return experiments.RenderTable3(experiments.Table3(2000, func() float64 {
			return float64(time.Now().UnixNano()) / 1e9
		}))
	case "ext-knobs":
		var sb strings.Builder
		sb.WriteString(experiments.RenderKnobRows("Extension: prefill layer-group sweep (Azure-Code @ 4 req/s)",
			experiments.AblationLayerGroup(workload.AzureCode, 4, n, 42)))
		sb.WriteByte('\n')
		sb.WriteString(experiments.RenderKnobRows("Extension: SM partition granularity sweep",
			experiments.AblationSMStep(workload.AzureCode, 4, n, 42)))
		sb.WriteByte('\n')
		sb.WriteString(experiments.RenderKnobRows("Extension: metadata latency sensitivity",
			experiments.AblationMetadataLatency(workload.AzureCode, 4, n, 42)))
		sb.WriteByte('\n')
		sb.WriteString(experiments.RenderKnobRows("Extension: estimator configuration",
			experiments.AblationEstimator(workload.AzureCode, 4, n, 42)))
		sb.WriteByte('\n')
		sb.WriteString(experiments.RenderKnobRows("Extension: arrival burstiness (gamma CV)",
			experiments.AblationBurstiness(workload.AzureCode, 4, n, 42)))
		return sb.String()
	case "ext-disagg":
		return experiments.RenderExtDisagg(experiments.ExtDisagg(workload.AzureCode, []float64{3, 4, 5}, n, 42))
	case "ext-device":
		return experiments.RenderExtCrossDevice(experiments.ExtCrossDevice(workload.ShareGPT, 12, n, 42))
	case "ext-prefix":
		return experiments.RenderExtPrefixCache(
			experiments.ExtPrefixCache(workload.AzureCode, 4, n, 42, []float64{0, 0.5, 0.9}))
	case "ext-cluster":
		return experiments.RenderExtCluster(experiments.ExtCluster(workload.AzureCode, 9, n, 42))
	case "ext-tp":
		return experiments.RenderExtTensorParallel(experiments.ExtTensorParallel(workload.AzureCode, 4, n, 42))
	case "ext-knee":
		kneeN := n / 2
		rows := experiments.ExtKnees(workload.AzureCode, 0.9, kneeN, 42, 2, 10, experiments.SystemNames)
		return experiments.RenderExtKnees("azure-code", 0.9, rows)
	case "ext-faults":
		return experiments.RenderExtFaults(experiments.ExtFaults(
			workload.AzureCode, 4, n, 42, []float64{0, 0.05, 0.1, 0.2}, experiments.FaultSystems))
	case "ext-pressure":
		pn := n
		if quick {
			pn = 80
		} else {
			pn = 200
		}
		return experiments.RenderExtPressure(experiments.ExtPressure(
			workload.AzureCode, []float64{4, 8, 12}, pn, 42, true))
	case "ext-fidelity":
		fn := n
		if quick {
			fn = 120
		}
		return experiments.RenderExtFidelity(
			experiments.ExtFidelity(workload.AzureCode, 5, fn, 42),
			experiments.ExtFidelityCluster(workload.AzureCode, 8, fn, 42, 0))
	case "ext-chaos":
		cn := n
		if quick {
			cn = 120
		}
		return experiments.RenderExtChaos(experiments.ExtChaos(workload.AzureCode, 10, cn, 7, 0))
	}
	panic(fmt.Sprintf("bulletbench: experiment %q listed in order but not dispatched", id))
}
