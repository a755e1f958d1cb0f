package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/gpusim"
	"repro/internal/metrics"
	"repro/internal/pressure"
	"repro/internal/qos"
	"repro/internal/resilience"
	"repro/internal/serving"
	"repro/internal/units"
	"repro/internal/workload"
)

// Workload is one named traffic mix. Every run replays Traces Poisson
// traces of N requests, each generated from its own sub-seed of --seed,
// open loop in virtual time.
type Workload struct {
	Name    string
	Why     string
	Dataset string
	Rate    float64 // offered load, requests per simulated second
	N       int     // requests per trace
	Traces  int     // traces per run
	// FaultSeed seeds the fault schedule of trace slot 0 (slot i uses
	// FaultSeed+i). Schedules are part of the workload, not of --seed:
	// the seed varies only the traffic, so that one storm's severity does
	// not swing every figure between seeds.
	FaultSeed int64
	// Tenants tags requests with the default tenant mix; each class is
	// judged against its own scaled SLO.
	Tenants bool
	// Kind selects the serving stack: "bullet" (one replica), "pressure"
	// (one replica with pressure + QoS and a fault schedule) or "chaos"
	// (a four-replica cluster under a link-failure storm).
	Kind string
}

// Workloads are the benchmark's workloads, in run order.
var Workloads = []Workload{
	{
		Name:    "chat-steady",
		Why:     "decode-dominated ShareGPT at 8 req/s on one healthy replica: gpusim, sim queue, smmask and GC; bypasses router, fork/join, pressure and the estimator backlog",
		Dataset: "sharegpt", Rate: 8, N: 2000, Traces: 14, Kind: "bullet",
	},
	{
		Name:    "code-pressure",
		Why:     "Azure-Code tenant mix at 5 req/s with pressure+QoS under KV shrink, SM degrade and stalls: degraded gpusim path, kvcache shed/defer, live QoS caps",
		Dataset: "azure-code", Rate: 5, N: 3000, Traces: 12, Tenants: true, Kind: "pressure",
		FaultSeed: 43,
	},
	{
		Name:    "chaos-cluster",
		Why:     "4 replicas under the ext-chaos link storm at 10 req/s: the only workload running cluster, resilience, fork/join and link faults; estimator backlog dominates",
		Dataset: "azure-code", Rate: 10, N: 1200, Traces: 4, Tenants: true, Kind: "chaos",
		FaultSeed: 42,
	},
}

// workloadByName finds a workload.
func workloadByName(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// subSeed derives the seed of trace i of a run from the run's seed
// (splitmix64), so that traces of one run are independent.
func subSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// instance is one built scenario, ready to run once.
type instance struct {
	trace    *workload.Trace
	env      *serving.Env
	sys      serving.System
	bullet   *core.Bullet     // single-replica workloads
	cluster  *cluster.Cluster // chaos-cluster
	inj      *faults.Injector // nil on a healthy run
	numSMs   int              // SMs over every replica
	kvBlocks int              // KV blocks provisioned (single replica)
	hooks    *hooks           // nil unless traced
}

// setup builds trace i of a run through the public constructors, timing
// each step as a span under parent.
func (w Workload) setup(seed int64, i, workers int, sp *spans, parent int) *instance {
	spec, cfg := experiments.Platform()
	d, err := workload.ByName(w.Dataset)
	if err != nil {
		panic(fmt.Sprintf("perfbench: workload %s: %v", w.Name, err)) // the table names only known datasets
	}
	s := subSeed(seed, i)
	in := &instance{numSMs: spec.NumSMs}

	sp.do("setup.trace", parent, func() {
		if w.Tenants {
			in.trace = workload.GenerateTenantMix(d, w.Rate, w.N, s, workload.DefaultTenantMix())
		} else {
			in.trace = workload.Generate(d, w.Rate, w.N, s)
		}
	})
	// The fit is the cold offline profiling core.New would memoize per
	// process; running it here charges it to every set-up.
	var params estimator.Params
	sp.do("setup.fit", parent, func() {
		_, rep := estimator.Profile(cfg, spec, estimator.QuickProfileOptions(spec))
		params = rep.Params
	})
	sp.do("setup.env", parent, func() {
		in.env = serving.NewEnv(spec, cfg, d.Name)
		in.env.MaxShed = w.N // keep every shed request for the checks
		in.kvBlocks = in.env.KV.TotalBlocks()
	})
	opts := core.Options{Mode: core.ModeFull, Params: params}
	sp.do("setup.system", parent, func() {
		switch w.Kind {
		case "bullet":
			in.bullet = core.New(in.env, opts)
			in.sys = in.bullet
		case "pressure":
			opts.Pressure = &pressure.Config{}
			opts.QoS = &qos.Config{}
			in.bullet = core.New(in.env, opts)
			in.sys = in.bullet
		case "chaos":
			rcfg := resilience.DefaultConfig()
			rcfg.BucketRate = 12000
			rcfg.BucketBurst = 90000
			in.cluster = cluster.New(in.env, cluster.Config{
				Replicas: chaosReplicas, Policy: cluster.RoundRobin,
				Options: opts, Workers: workers, Resilience: &rcfg,
			})
			in.sys = in.cluster
			in.numSMs *= chaosReplicas
		}
	})
	switch w.Kind {
	case "pressure":
		sp.do("setup.faults", parent, func() {
			// The ext-pressure KV-shrink mix plus the default SM-degrade
			// and engine-stall rates, over the arrival span and drain slack.
			horizon := units.Scale(units.Over(units.Seconds(float64(w.N)), w.Rate), 1.5)
			fcfg := faults.DefaultConfig(spec.NumSMs, horizon)
			fcfg.Seed = w.FaultSeed + int64(i)
			fcfg.KVShrinkRate = 0.05
			fcfg.MeanKVShrinkFraction = 0.55
			fcfg.MeanKVShrinkDuration = units.Seconds(10)
			in.inj = faults.NewInjector(in.env.Sim, faults.Generate(fcfg))
			in.bullet.AttachFaults(in.inj, core.DefaultWatchdog())
			in.inj.Arm()
		})
	case "chaos":
		sp.do("setup.faults", parent, func() {
			// The ext-chaos storm parameters.
			horizon := units.Scale(units.Seconds(float64(w.N)/w.Rate), 1.25)
			storm := faults.DefaultChaosConfig(chaosReplicas, horizon)
			storm.Seed = w.FaultSeed + int64(i)
			storm.StormEnter = 0.6
			storm.StormExit = 0.1
			storm.StormLinkRate = 2
			storm.LossProb = 0.9
			storm.MeanLinkDuration = units.Seconds(10)
			storm.CascadeProb = 0.6
			in.inj = faults.NewInjector(in.env.Sim, faults.GenerateChaos(storm))
			in.cluster.AttachFaults(in.inj, core.DefaultWatchdog())
			in.inj.Arm()
		})
	}
	return in
}

const chaosReplicas = 4

// outcome is what one run of an instance produced.
type outcome struct {
	wallNs     float64 // wall time of the run phase
	cpuNs      float64 // process CPU time of the run phase, all threads
	mallocs    float64 // heap objects allocated in the run phase
	allocBytes float64 // heap bytes allocated in the run phase
	gcCycles   float64

	completed   []metrics.Request
	shedIDs     []string
	makespan    float64 // simulated seconds
	numSMs      int     // SMs over every replica
	smBusy      float64 // SM·seconds over every replica
	flops       float64
	bytes       float64
	counters    counters
	hooks       *hooks // nil unless traced
	fingerprint uint64
	err         error // a failed correctness check
}

// counters are the program's own exported accounting after a run.
type counters struct {
	events        uint64  // events of the outer simulation
	peakOccupancy float64 // single replica: peak used / provisioned KV blocks
	pressure      metrics.Pressure
	qos           qos.Metrics
	resilience    metrics.Resilience
	timeouts      int
	injected      int
}

// add accumulates another trace's counters (peak occupancy takes the max).
func (c *counters) add(o counters) {
	c.events += o.events
	c.peakOccupancy = max(c.peakOccupancy, o.peakOccupancy)
	c.pressure.Add(o.pressure)
	c.qos.Decisions += o.qos.Decisions
	c.qos.Increases += o.qos.Increases
	c.qos.Decreases += o.qos.Decreases
	c.qos.FinalDecodeCap += o.qos.FinalDecodeCap
	c.resilience.Add(o.resilience)
	c.timeouts += o.timeouts
	c.injected += o.injected
}

// run executes the instance once: the run phase is timed, then the
// outputs are checked.
func (in *instance) run() (out outcome) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	start := time.Now()
	var res serving.Result
	err := catch(func() {
		res = in.env.Run(in.sys, in.trace)
		if in.cluster != nil {
			in.cluster.Quiesce()
		}
	})
	out.wallNs = float64(time.Since(start).Nanoseconds())
	out.cpuNs = (cpuSeconds() - cpu0) * 1e9
	runtime.ReadMemStats(&m1)
	out.mallocs = float64(m1.Mallocs - m0.Mallocs)
	out.allocBytes = float64(m1.TotalAlloc - m0.TotalAlloc)
	out.gcCycles = float64(m1.NumGC - m0.NumGC)
	if err != nil {
		out.err = err
		return out
	}
	if in.cluster != nil {
		if err := catch(in.cluster.CheckDrained); err != nil {
			out.err = err
			return out
		}
	}
	out.completed = in.env.Completed()
	for _, r := range in.env.ShedRequests() {
		out.shedIDs = append(out.shedIDs, r.ID)
	}
	sort.Strings(out.shedIDs)
	out.makespan = res.Makespan.Float()
	out.numSMs = in.numSMs
	out.hooks = in.hooks
	c := &out.counters
	c.events = in.env.Sim.Processed()
	if in.inj != nil {
		c.injected = in.inj.Injected()
	}
	if b := in.bullet; b != nil {
		c.peakOccupancy = ratio(in.env.KV.PeakUsedBlocks(), in.kvBlocks)
		c.pressure = b.Pressure()
		c.qos = b.QoS()
	}
	if cl := in.cluster; cl != nil {
		c.resilience = cl.Resilience()
		c.timeouts = cl.DispatchTimeouts()
	}
	addGPU := func(st gpusim.Stats) {
		out.smBusy += st.SMBusyTime.Float()
		out.flops += st.FLOPs.Float()
		out.bytes += st.Bytes.Float()
	}
	if in.cluster != nil {
		for _, st := range in.cluster.GPUStats() {
			addGPU(st)
		}
	} else {
		addGPU(res.GPUStats)
	}
	out.err = checkRun(in.trace, out.completed, out.shedIDs, in.env.ShedCount())
	out.fingerprint = fingerprint(out.completed, out.shedIDs)
	return out
}

// catch runs fn and turns a panic (the program's own invariant checks,
// such as Env.Run's KV drain check) into an error.
func catch(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	fn()
	return nil
}
