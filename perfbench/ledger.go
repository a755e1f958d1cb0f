package main

import (
	"encoding/json"
	"fmt"
)

// spec is one metric the benchmark publishes in BENCHMARK.json.
type spec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end-to-end only
}

func bound(b float64) *float64 { return &b }

// endToEndSpecs are the metrics of --trace 0, with the share of the
// parent's median by which each may worsen before a change is refused.
// Each bound sits above the interquartile spread over ten seeds that
// README.md records; host time gets the widest bound because a shared
// machine moves it most.
var endToEndSpecs = []spec{
	{"host_ns_per_req", "ns/req", "lower", bound(0.25)},
	{"allocs_per_req", "allocs/req", "lower", bound(0.15)},
	{"alloc_bytes_per_req", "B/req", "lower", bound(0.15)},
	{"peak_rss_mb", "MB", "lower", bound(0.25)},
	{"setup_s", "s", "lower", bound(0.25)},
	{"ttft_p50_s", "s", "lower", bound(0.15)},
	{"ttft_p99_s", "s", "lower", bound(0.25)},
	{"tpot_p50_ms", "ms", "lower", bound(0.2)},
	{"tpot_p99_ms", "ms", "lower", bound(0.2)},
	{"slo_attainment", "ratio", "higher", bound(0.15)},
	{"goodput_rps", "req/s", "higher", bound(0.15)},
	{"served_frac", "ratio", "higher", bound(0.1)},
	{"gpu_sm_util", "ratio", "higher", bound(0.15)},
}

// perLayerSpecs are the metrics of --trace 1 that every workload
// observes; workload-only ones are printed beside them.
var perLayerSpecs = []spec{
	{"setup.trace_s", "s", "lower", nil},
	{"setup.fit_s", "s", "lower", nil},
	{"setup.env_s", "s", "lower", nil},
	{"setup.system_s", "s", "lower", nil},
	{"sim.self_s", "s", "lower", nil},
	{"gpusim.self_s", "s", "lower", nil},
	{"smmask.self_s", "s", "lower", nil},
	{"model.self_s", "s", "lower", nil},
	{"estimator.self_s", "s", "lower", nil},
	{"sched.self_s", "s", "lower", nil},
	{"resource.self_s", "s", "lower", nil},
	{"engine.self_s", "s", "lower", nil},
	{"kvcache.self_s", "s", "lower", nil},
	{"runtime.gc_self_s", "s", "lower", nil},
	{"runtime.malloc_self_s", "s", "lower", nil},
	{"runtime.gc_cycles", "count", "lower", nil},
	{"gpusim.compute_util", "ratio", "higher", nil},
	{"gpusim.bw_util", "ratio", "higher", nil},
	{"trace.overhead_s", "s", "lower", nil},
}

// runSeconds is how long one run keeps repeating passes.
const runSeconds = 20

// manifest renders BENCHMARK.json from the tables above.
func manifest() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var ws []wl
	for _, w := range Workloads {
		ws = append(ws, wl{w.Name, w.Why})
	}
	b, err := json.MarshalIndent(struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []spec   `json:"end_to_end"`
		PerLayer   []spec   `json:"per_layer"`
	}{[]string{"bash", "perfbench/run.sh"}, []string{"perfbench"}, runSeconds, ws, endToEndSpecs, perLayerSpecs}, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal BENCHMARK.json: %v", err)) // static tables always marshal
	}
	return append(b, '\n')
}
