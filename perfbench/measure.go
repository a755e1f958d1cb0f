package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/qos"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	traced  bool
	workers int // fork/join width of the cluster workload
	outDir  string
}

// Each run sets up this many extra instances before measuring, so that
// setup_s is a median over many set-ups even when runs are long.
const extraSetups = 40

// profileHz is the CPU profile's sampling rate in the traced pass.
const profileHz = 500

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Kind  string  `json:"kind"` // "sim" (virtual time of the modelled GPU) or "host"
	Note  string  `json:"note,omitempty"`
}

// hostInfo describes the machine a result was measured on.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

// result is everything one invocation measured.
type result struct {
	Workload    string   `json:"workload"`
	Seed        int64    `json:"seed"`
	Host        hostInfo `json:"host"`
	Passes      int      `json:"passes"`
	Fingerprint string   `json:"fingerprint"`
	Attempted   int      `json:"attempted"`
	Failed      int      `json:"failed"`
	EndToEnd    []metric `json:"end_to_end"`
	PerLayer    []metric `json:"per_layer"`
	Extra       []metric `json:"extra,omitempty"`
	Spans       *spans   `json:"trace,omitempty"`
	errors      []string
}

func (r *result) correct() bool { return r.Failed == 0 && len(r.errors) == 0 }

func (r *result) fail(format string, args ...any) {
	r.errors = append(r.errors, fmt.Sprintf(format, args...))
}

// add appends a metric to a list; a value that is not finite cannot be
// reported and fails the run.
func (r *result) add(list *[]metric, m metric) {
	if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
		r.fail("metric %s is %v", m.Name, m.Value)
		m.Value = 0
	}
	*list = append(*list, m)
}

// write saves the result, spans included, as JSON in dir.
func (r *result) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", r.Workload, r.Seed))
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// measure runs one workload: extra set-ups, then untraced passes over
// its traces until the time is up, then (traced only) one traced pass
// and, on the cluster workload, one serial pass.
func measure(w Workload, cfg config) *result {
	res := &result{Workload: w.Name, Seed: cfg.seed, Host: host()}
	sp := newSpans(fmt.Sprintf("%s-seed%d-%d", w.Name, cfg.seed, time.Now().UnixNano()))

	// The benchmark fits the estimator itself on every set-up; check once
	// that the fit is the one core.New would use, so the simulated system
	// is the default one.
	spec, mcfg := experiments.Platform()
	if _, rep := estimator.Profile(mcfg, spec, estimator.QuickProfileOptions(spec)); rep.Params != core.FittedParams(mcfg, spec) {
		res.fail("estimator fit differs from core.FittedParams")
	}

	// Set-ups start from a collected heap, so that they do not pay for the
	// garbage of the run before them.
	var setups []float64
	for k := 0; k < extraSetups; k++ {
		runtime.GC()
		root := sp.begin("setup", 0)
		w.setup(cfg.seed, k%w.Traces, cfg.workers, sp, root)
		setups = append(setups, sp.end(root))
	}

	// pass runs every trace of the workload once.
	pass := func(name string, workers int, traced bool) []outcome {
		outs := make([]outcome, w.Traces)
		for i := range outs {
			runtime.GC()
			root := sp.begin(name, 0)
			su := sp.begin("setup", root)
			in := w.setup(cfg.seed, i, workers, sp, su)
			setups = append(setups, sp.end(su))
			if traced {
				in.hooks = &hooks{}
				in.hooks.attach(in)
			}
			id := sp.begin("run", root)
			outs[i] = in.run()
			sp.end(id)
			sp.end(root)
			res.Attempted += len(in.trace.Requests)
			if err := outs[i].err; err != nil {
				res.Failed += len(in.trace.Requests)
				res.fail("%s trace %d: %v", name, i, err)
			}
		}
		return outs
	}

	// One pass, then more while another fits in the time given. Later
	// passes only add host samples; their outputs must repeat the first.
	var passes [][]outcome
	start := time.Now()
	for last := 0.0; len(passes) == 0 || time.Since(start).Seconds()+last <= cfg.seconds; {
		t := time.Now()
		passes = append(passes, pass("pass", cfg.workers, false))
		last = time.Since(t).Seconds()
		if n := len(passes); n > 1 {
			for i := range passes[n-1] {
				checkSame(res, "repeated pass", passes[0][i], passes[n-1][i], i)
				passes[n-1][i].completed = nil
			}
		}
	}
	res.Passes = len(passes)
	first := passes[0]
	var fps []string
	for _, o := range first {
		fps = append(fps, fmt.Sprintf("%016x", o.fingerprint))
	}
	res.Fingerprint = strings.Join(fps, "-")

	endToEnd(res, w, first, passes, setups)
	if cfg.traced {
		perLayer(res, w, cfg, sp, first, passes, pass)
		res.Spans = sp
	}
	return res
}

// checkSame fails the run unless two runs of the same trace produced
// the same simulated outputs.
func checkSame(res *result, what string, a, b outcome, i int) {
	if a.err == nil && b.err == nil && a.fingerprint != b.fingerprint {
		res.Failed += len(a.completed) + len(a.shedIDs)
		res.fail("%s: trace %d fingerprint %016x, first pass %016x", what, i, b.fingerprint, a.fingerprint)
	}
}

// endToEnd computes the end-to-end metrics: simulated serving figures
// from the first pass, host costs as medians over every trace run.
func endToEnd(res *result, w Workload, first []outcome, passes [][]outcome, setups []float64) {
	var cpu, wall, allocs, bytes []float64
	for _, p := range passes {
		for _, o := range p {
			cpu = append(cpu, o.cpuNs/float64(w.N))
			wall = append(wall, o.wallNs/float64(w.N))
			allocs = append(allocs, o.mallocs/float64(w.N))
			bytes = append(bytes, o.allocBytes/float64(w.N))
		}
	}
	note := fmt.Sprintf("median of %d trace runs of %d requests", len(cpu), w.N)
	e := &res.EndToEnd
	// Host time is the process's CPU time: the kernel leaves out time the
	// hypervisor stole from the VM, which swings wall time by 2x between
	// runs on a shared host. Wall time is printed beside it.
	res.add(e, metric{"host_ns_per_req", median(cpu), "ns/req", "host", note + ", CPU time of all threads"})
	res.add(e, metric{"allocs_per_req", median(allocs), "allocs/req", "host", note})
	res.add(e, metric{"alloc_bytes_per_req", median(bytes), "B/req", "host", note})
	res.add(e, metric{"peak_rss_mb", peakRSSMB(), "MB", "host", "peak resident set of the process"})
	res.add(e, metric{"setup_s", median(setups), "s", "host", fmt.Sprintf("median of %d set-ups", len(setups))})

	// Simulated: from the traces of the first pass.
	sloFor := sloFunc(w.Dataset, w.Tenants)
	ttft := make([][]float64, len(first))
	tpot := make([][]float64, len(first))
	var tally served
	var smBusy, smCap float64
	for i, o := range first {
		tally.attempted += len(o.completed) + len(o.shedIDs)
		tally.shed += len(o.shedIDs)
		tally.makespan += o.makespan
		for _, r := range o.completed {
			ttft[i] = append(ttft[i], r.TTFT().Float())
			if r.OutputTokens > 1 {
				tpot[i] = append(tpot[i], r.TPOTMs())
			}
			if r.MeetsSLO(sloFor(r.Tenant)) {
				tally.met++
			}
		}
		smBusy += o.smBusy
		smCap += float64(o.numSMs) * o.makespan
	}
	pct := func(name string, xs [][]float64, p float64, unit string) {
		v, note, err := meanPercentile(xs, p)
		if err != nil {
			res.fail("%s: %v", name, err)
		}
		res.add(e, metric{name, v, unit, "sim", note})
	}
	pct("ttft_p50_s", ttft, 0.50, "s")
	pct("ttft_p99_s", ttft, 0.99, "s")
	pct("tpot_p50_ms", tpot, 0.50, "ms")
	pct("tpot_p99_ms", tpot, 0.99, "ms")
	over := fmt.Sprintf("%d attempted, %d shed", tally.attempted, tally.shed)
	res.add(e, metric{"slo_attainment", tally.sloAttainment(), "ratio", "sim", over})
	res.add(e, metric{"goodput_rps", tally.goodput(), "req/s", "sim", fmt.Sprintf("over %.1f simulated s", tally.makespan)})
	res.add(e, metric{"served_frac", tally.servedFrac(), "ratio", "sim", over})
	res.add(e, metric{"gpu_sm_util", smBusy / smCap, "ratio", "sim", "SM-busy time / (SMs x makespan), all replicas"})
	res.add(&res.Extra, metric{"host_wall_ns_per_req", median(wall), "ns/req", "host", note})
	res.add(&res.Extra, metric{"shed_frac", ratio(tally.shed, tally.attempted), "ratio", "sim", over})
}

// sloFunc returns the SLO each request is judged against: the dataset's
// targets, scaled per class for tenant-tagged traffic.
func sloFunc(dataset string, tenants bool) func(string) metrics.SLO {
	base := metrics.SLOFor(dataset)
	if !tenants {
		return func(string) metrics.SLO { return base }
	}
	q := qos.DefaultConfig()
	return func(t string) metrics.SLO { return q.SLOFor(qos.ClassOf(t), base) }
}

// perLayer runs the traced pass (and the serial pass on the cluster
// workload) and computes the per-layer metrics.
func perLayer(res *result, w Workload, cfg config, sp *spans, first []outcome, passes [][]outcome,
	pass func(string, int, bool) []outcome) {
	untracedWall := 0.0
	for i := range first {
		var walls []float64
		for _, p := range passes {
			walls = append(walls, p[i].wallNs/1e9)
		}
		untracedWall += median(walls)
	}

	// runtime/pprof samples at 100 Hz; setting the rate first raises it
	// (the runtime prints a warning that the later 100 Hz request was
	// ignored), so that small layers still collect samples.
	var prof bytes.Buffer
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		res.fail("cpu profile: %v", err)
		return
	}
	cpu0 := cpuSeconds()
	traced := pass("traced", cfg.workers, true)
	cpu := cpuSeconds() - cpu0
	pprof.StopCPUProfile()
	tracedWall := 0.0
	for i, o := range traced {
		checkSame(res, "traced pass", first[i], o, i)
		tracedWall += o.wallNs / 1e9
	}
	layers := map[string]float64{}
	if p, err := parseCPUProfile(prof.Bytes()); err != nil {
		res.fail("%v", err)
	} else {
		layers = p.splitByLayer(cpu)
	}

	l := &res.PerLayer
	for _, step := range []string{"trace", "fit", "env", "system"} {
		res.add(l, metric{"setup." + step + "_s", median(sp.seconds("setup." + step)), "s", "host", "median over set-ups"})
	}
	for _, layer := range commonLayers {
		res.add(l, metric{layer + ".self_s", layers[layer], "s", "host", "CPU seconds in the traced pass"})
	}
	res.add(l, metric{"runtime.gc_self_s", layers[bucketGC], "s", "host", "CPU seconds in the traced pass"})
	res.add(l, metric{"runtime.malloc_self_s", layers[bucketMalloc], "s", "host", "CPU seconds in the traced pass"})
	var gc []float64
	for _, p := range passes {
		n := 0.0
		for _, o := range p {
			n += o.gcCycles
		}
		gc = append(gc, n)
	}
	res.add(l, metric{"runtime.gc_cycles", median(gc), "count", "host", "per pass, median"})
	var flops, bw, cap float64
	spec, _ := experiments.Platform()
	for _, o := range first {
		flops += o.flops
		bw += o.bytes
		cap += float64(o.numSMs/spec.NumSMs) * o.makespan
	}
	res.add(l, metric{"gpusim.compute_util", flops / (spec.PeakFLOPS.Float() * cap), "ratio", "sim", "achieved / peak FLOPs"})
	res.add(l, metric{"gpusim.bw_util", bw / (spec.PeakBW.Float() * cap), "ratio", "sim", "achieved / peak HBM bytes"})
	res.add(l, metric{"trace.overhead_s", tracedWall - untracedWall, "s", "host", "traced pass wall minus untraced median"})

	extraLayers(res, w, sp, traced, layers, tracedWall)
	if w.Kind == "chaos" {
		serial := pass("serial", 1, false)
		serialWall := 0.0
		for i, o := range serial {
			checkSame(res, "serial pass (workers=1)", first[i], o, i)
			serialWall += o.wallNs / 1e9
		}
		res.add(&res.Extra, metric{"forkjoin.speedup", serialWall / untracedWall, "ratio", "host",
			fmt.Sprintf("serial wall / wall at %d workers", cfg.workers)})
	}
}

// extraLayers adds the per-layer metrics only some workloads can observe
// from outside.
func extraLayers(res *result, w Workload, sp *spans, traced []outcome, layers map[string]float64, tracedWall float64) {
	x := &res.Extra
	var h hooks
	var sum counters
	attempted, generated, shed := 0, 0, 0
	for _, o := range traced {
		attempted += len(o.completed) + len(o.shedIDs)
		for _, r := range o.completed {
			generated += r.OutputTokens
		}
		shed += len(o.shedIDs)
		sum.add(o.counters)
		h.add(o.hooks)
	}
	per := func(v int) float64 { return ratio(v, attempted) }
	if h.completions+h.sheds != attempted {
		res.fail("hooks saw %d completions + %d sheds, %d attempted", h.completions, h.sheds, attempted)
	}
	if h.replica {
		res.add(x, metric{"sim.events_per_req", float64(sum.events) / float64(attempted), "events/req", "sim", ""})
		res.add(x, metric{"gpusim.kernels_per_req", per(h.kernels), "kernels/req", "sim", "GPU.Trace"})
		res.add(x, metric{"gpusim.recomputes_per_req", per(h.recomputes), "count/req", "sim", "GPU.Sampler"})
		res.add(x, metric{"sched.decisions_per_req", per(h.decisions), "count/req", "sim", "OnDecision"})
		for _, arm := range branchArms {
			res.add(x, metric{"sched.branch_share." + arm, ratio(h.branches[arm], h.decisions), "ratio", "sim", ""})
		}
		res.add(x, metric{"resource.repartitions_per_req", per(h.repartitions), "count/req", "sim", "decisions that change the SM split"})
		res.add(x, metric{"engine.prefill_batches_per_req", per(h.batches), "count/req", "sim", "OnBatchStart"})
		res.add(x, metric{"engine.prefill_tokens_per_batch", ratio(h.batchTokens, h.batches), "tokens", "sim", ""})
		res.add(x, metric{"kvcache.peak_occupancy", sum.peakOccupancy, "ratio", "sim", "peak used / provisioned KV blocks"})
	}
	if w.Kind == "pressure" {
		p := sum.pressure
		res.add(x, metric{"pressure.deferred", float64(p.AdmissionsDeferred), "count", "sim", ""})
		res.add(x, metric{"pressure.preemptions", float64(p.Preemptions), "count", "sim", ""})
		res.add(x, metric{"pressure.retransfers", float64(p.Retransfers), "count", "sim", ""})
		res.add(x, metric{"pressure.kv_shrinks", float64(p.KVShrinks), "count", "sim", ""})
		res.add(x, metric{"pressure.shed", float64(p.Shed), "count", "sim", ""})
		res.add(x, metric{"pressure.recomputed_token_frac", ratio(p.RecomputedTokens, generated), "ratio", "sim", "recomputed / generated tokens"})
		q := sum.qos
		res.add(x, metric{"qos.decisions", float64(q.Decisions), "count", "sim", ""})
		res.add(x, metric{"qos.increases", float64(q.Increases), "count", "sim", ""})
		res.add(x, metric{"qos.decreases", float64(q.Decreases), "count", "sim", ""})
		res.add(x, metric{"qos.final_decode_cap", float64(q.FinalDecodeCap), "slots", "sim", "summed over traces"})
	}
	if w.Kind == "chaos" {
		r := sum.resilience
		res.add(x, metric{"cluster.dispatch_useful_ratio", ratio(attempted-shed, attempted+r.Retried), "ratio", "sim", "completions / (requests + retries)"})
		res.add(x, metric{"cluster.dispatch_timeouts", float64(sum.timeouts), "count", "sim", ""})
		res.add(x, metric{"resilience.breaker_opens", float64(r.BreakerOpens), "count", "sim", ""})
		res.add(x, metric{"resilience.hedges", float64(r.Hedges), "count", "sim", ""})
		res.add(x, metric{"resilience.hedge_win_ratio", ratio(r.HedgeWins, r.Hedges), "ratio", "sim", ""})
		res.add(x, metric{"resilience.rate_limited", float64(r.RateLimited), "count", "sim", ""})
		res.add(x, metric{"resilience.drains", float64(r.Drains), "count", "sim", ""})
	}
	if w.Kind != "bullet" {
		res.add(x, metric{"faults.injected", float64(sum.injected), "count", "sim", "sanity count"})
		res.add(x, metric{"setup.faults_s", median(sp.seconds("setup.faults")), "s", "host", "median over set-ups"})
	}
	var names []string
	for k := range layers {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if !slices.Contains(commonLayers, k) && k != bucketGC && k != bucketMalloc {
			res.add(x, metric{k + ".self_s", layers[k], "s", "host", "CPU seconds in the traced pass"})
		}
	}
	res.add(x, metric{"trace.wall_s", tracedWall, "s", "host", "traced pass"})
}

// branchArms are the Algorithm-1 arms a scheduling decision reports.
var branchArms = []string{"idle", "prefill-only", "decode-only", "reduce-decode", "balance",
	"reduce-prefill", "pause-decode", "handover"}

// commonLayers are the layers every workload runs, whose self times
// the per-layer list reports.
var commonLayers = []string{"sim", "gpusim", "smmask", "model", "estimator", "sched", "resource", "engine", "kvcache"}

// peakRSSMB returns the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSeconds returns the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// host describes this machine.
func host() hostInfo {
	h := hostInfo{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}
