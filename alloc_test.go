// Steady-state allocation assertions for the //bullet:hotpath contract
// (DESIGN.md §13). BenchmarkHotPaths measures these paths; this file
// *pins* them, so an allocation regression fails `go test` (and the ci.sh
// alloc gate) rather than silently drifting a BENCH_hotpath.json number.
//
// Each assertion warms the path first so pools and scratch buffers reach
// steady state; AllocsPerRun then reports the per-operation average.
package repro

import (
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gpusim"
	"repro/internal/kvcache"
	"repro/internal/metrics"
	"repro/internal/qos"
	"repro/internal/resilience"
	"repro/internal/sched"
	"repro/internal/serving"
	"repro/internal/sim"
	"repro/internal/timeline"
	"repro/internal/units"
	"repro/internal/workload"
)

// pinAllocs asserts an exact steady-state allocation count.
func pinAllocs(t *testing.T, name string, want float64, fn func()) {
	t.Helper()
	fn() // warm: pools, scratch buffers, lazy growth
	if got := testing.AllocsPerRun(100, fn); got != want {
		t.Errorf("%s: %v allocs/op, want %v", name, got, want)
	}
}

// TestSimEventQueueZeroAlloc pins the event-loop steady state at zero:
// a pooled Post/PostAfter plus the Step that fires it must reuse arena
// storage, never touch the heap.
func TestSimEventQueueZeroAlloc(t *testing.T) {
	s := sim.New()
	fn := func() {}
	for i := 0; i < 256; i++ { // grow the arena and the heap slice once
		s.PostAfter(1e-6, fn)
	}
	for s.Step() {
	}
	pinAllocs(t, "sim post+step", 0, func() {
		s.PostAfter(1e-6, fn)
		s.Step()
	})
}

// TestSimHandleEventOneAlloc pins the handle-returning path at exactly
// one allocation — the escaping *Event the caller retains (the
// documented exception to the pooled path).
func TestSimHandleEventOneAlloc(t *testing.T) {
	s := sim.New()
	fn := func() {}
	pinAllocs(t, "sim at+cancel", 1, func() {
		e := s.After(1e-6, fn)
		s.Cancel(e)
		s.Step()
	})
}

// TestGPULaunchFinishZeroAlloc pins the simulator's kernel cycle at
// zero: launches come from the GPU's free list with their callbacks
// already bound, each completion event is moved with Reschedule or
// re-armed after it fires, and the re-rate's water-filling rows and SM
// cover bitsets are GPU-owned scratch.
func TestGPULaunchFinishZeroAlloc(t *testing.T) {
	pinAllocs(t, "gpusim launch+finish", 0, gpuLaunchFinishCycle())
}

// TestBufferSnapshotZeroAlloc pins the scheduler's status fetch at zero
// mid-run, with a prefill batch in flight, requests waiting and a decode
// batch running: both engines fill the snapshot from their own scratch.
func TestBufferSnapshotZeroAlloc(t *testing.T) {
	env, b := newBulletEnv()
	d, err := workload.ByName("sharegpt")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range workload.Generate(d, 40, 200, 3).Requests {
		r := r
		env.Sim.Post(r.Arrival, func() { b.Submit(r) })
	}
	for !(b.Decode.BatchSize() > 0 && b.Prefill.Running() && b.Prefill.QueueDepth() > 0) {
		if !env.Sim.Step() {
			t.Fatal("run drained before prefill, waiting and decode overlapped")
		}
	}
	pinAllocs(t, "engine buffer snapshot", 0, func() { _ = b.Buffer.Snapshot() })
}

// newBulletEnv builds one healthy single-replica Bullet system on the
// default platform through the public constructors.
func newBulletEnv() (*serving.Env, *core.Bullet) {
	spec, cfg := experiments.Platform()
	env := serving.NewEnv(spec, cfg, "sharegpt")
	return env, core.New(env, core.Options{Mode: core.ModeFull})
}

// e2eAllocCeiling bounds the heap allocations per request of a
// 300-request ShareGPT run on one healthy Bullet replica, about 10%
// above the measured value. Only ever lower it: a rise means a
// per-event or per-request path started allocating again.
const e2eAllocCeiling = 6

// TestE2EAllocsPerRequestSteadyState is the end-to-end allocation
// ceiling: the whole serving run, not one hot path, divided by the
// requests it served.
func TestE2EAllocsPerRequestSteadyState(t *testing.T) {
	d, err := workload.ByName("sharegpt")
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	trace := workload.Generate(d, 8, n, 1)
	env, b := newBulletEnv() // fits the estimator outside the measured run
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := env.Run(b, trace)
	runtime.ReadMemStats(&after)
	if len(res.Requests) != n {
		t.Fatalf("%d of %d requests completed", len(res.Requests), n)
	}
	perReq := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("%.1f allocs/request (ceiling %d)", perReq, e2eAllocCeiling)
	if perReq > e2eAllocCeiling {
		t.Errorf("%.1f allocs/request, ceiling %d", perReq, e2eAllocCeiling)
	}
}

// clusterAllocCeiling bounds the heap allocations per request of a
// 300-request AzureCode run on four round-robin Bullet replicas, about
// 10% above the measured value. Only ever lower it: a rise means the
// router's window or pump path started allocating again.
const clusterAllocCeiling = 7

// TestClusterAllocsPerRequestSteadyState is the cluster's end-to-end
// allocation ceiling: windows advance replicas inline without a fork,
// and the pump re-arms one event instead of allocating a handle per
// window.
func TestClusterAllocsPerRequestSteadyState(t *testing.T) {
	const n = 300
	trace := workload.Generate(workload.AzureCode, 10, n, 1)
	spec, cfg := experiments.Platform()
	env := serving.NewEnv(spec, cfg, "azure-code")
	// New builds every replica, so the estimator fit runs outside the
	// measured run.
	c := cluster.New(env, cluster.Config{Replicas: 4, Policy: cluster.RoundRobin, Options: core.Options{Mode: core.ModeFull}})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := env.Run(c, trace)
	runtime.ReadMemStats(&after)
	if len(res.Requests) != n {
		t.Fatalf("%d of %d requests completed", len(res.Requests), n)
	}
	perReq := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("%.1f allocs/request (ceiling %d)", perReq, clusterAllocCeiling)
	if perReq > clusterAllocCeiling {
		t.Errorf("%.1f allocs/request, ceiling %d", perReq, clusterAllocCeiling)
	}
}

// TestTimelineDisabledCallSiteZeroAlloc pins the cost of a fully
// decorated recording call site when tracing is off — the price every
// production hot loop pays — at zero: the variadic arg slice must stay
// on the caller's stack.
func TestTimelineDisabledCallSiteZeroAlloc(t *testing.T) {
	var rec *timeline.Recorder
	pinAllocs(t, "timeline disabled span", 0, func() {
		rec.Span("prefill", "chunk", 0.001, 0.002,
			timeline.I("tokens", 512), timeline.F("sms", 48), timeline.S("req", "r1"))
	})
	pinAllocs(t, "timeline disabled instant", 0, func() {
		rec.Instant("sched", "re-rate", 0.001,
			timeline.I("prefill_sms", 48), timeline.I("decode_sms", 60))
	})
	pinAllocs(t, "timeline disabled counter", 0, func() {
		rec.Counter("kv", "occupancy", 0.001, timeline.F("frac", 0.7))
	})
	pinAllocs(t, "timeline disabled async", 0, func() {
		rec.AsyncSpan("req", "decode", "id1", 0.001, 0.002, timeline.I("tokens", 1))
	})
}

// TestTimelineEnabledSteadyState bounds the live-recorder append: args
// are copied into the shared arena, so past occasional amortized buffer
// growth a recorded span performs no per-event allocation.
func TestTimelineEnabledSteadyState(t *testing.T) {
	rec := timeline.New(1 << 20)
	record := func() {
		rec.Span("prefill", "chunk", 0.001, 0.002,
			timeline.I("tokens", 512), timeline.F("sms", 48))
	}
	for i := 0; i < 4096; i++ { // push the event and arg buffers past small-cap growth
		record()
	}
	if got := testing.AllocsPerRun(100, record); got >= 1 {
		t.Errorf("timeline enabled span: %v allocs/op, want amortized < 1", got)
	}
}

// TestSchedDecideZeroAlloc pins the full water-filling re-rate —
// percentile predictions, level search, decision — at zero steady-state
// allocations.
func TestSchedDecideZeroAlloc(t *testing.T) {
	s, st := benchScheduler()
	pinAllocs(t, "sched decide", 0, func() { _ = s.Decide(st) })
	backlog := backlogState()
	pinAllocs(t, "sched decide backlog", 0, func() { _ = s.Decide(backlog) })
}

// TestSchedSortWaitingZeroAlloc pins the deadline reorder at zero: the
// insertion sort compares in place with no comparator closure.
func TestSchedSortWaitingZeroAlloc(t *testing.T) {
	s, st := benchScheduler()
	reqs := make([]sched.WaitingReq, len(st.Waiting))
	pinAllocs(t, "sched sort-waiting", 0, func() {
		copy(reqs, st.Waiting)
		s.SortWaiting(reqs)
	})
}

// TestKVAllocFreeSteadyState pins sequence churn at exactly one
// allocation per request — the Sequence header handed to the caller —
// with block tables recycled through the pool.
func TestKVAllocFreeSteadyState(t *testing.T) {
	p := kvcache.NewPool(4096, 16)
	pinAllocs(t, "kvcache alloc+free", 1, func() {
		s, err := p.Allocate("r", 2048, "decode")
		if err != nil {
			t.Fatal(err)
		}
		p.MustFree(s)
	})
}

// TestSampledLookupZeroAlloc pins the sampled backend's per-launch
// latency lookup — token-support binary search plus two inverse-CDF
// interpolations — at zero: it runs once per kernel launch on the
// simulator's event path (the manual search exists because a sort.Search
// closure would allocate).
func TestSampledLookupZeroAlloc(t *testing.T) {
	table := &gpusim.LatencyTable{
		RefSMs: 108,
		Ops: map[string][]gpusim.OpSupport{
			"gemm": {
				{Tokens: 64, Q: []units.Seconds{1e-4, 2e-4, 3e-4}},
				{Tokens: 256, Q: []units.Seconds{2e-4, 4e-4, 6e-4}},
				{Tokens: 1024, Q: []units.Seconds{8e-4, 1.6e-3, 2.4e-3}},
			},
		},
	}
	tokens, u := 60, 0.0
	pinAllocs(t, "sampled latency lookup", 0, func() {
		tokens = (tokens + 97) % 1500
		u += 0.013
		if u > 1 {
			u -= 1
		}
		if _, ok := table.Sample("gemm", tokens, u); !ok {
			t.Fatal("gemm missing from table")
		}
	})
}

// TestMetricsPercentileInPlaceZeroAlloc pins the scheduler's percentile
// read (reused scratch + in-place select) at zero.
func TestMetricsPercentileInPlaceZeroAlloc(t *testing.T) {
	xs := make([]float64, 64)
	for i := range xs {
		xs[i] = float64((i * 37) % 64)
	}
	scratch := make([]float64, 0, len(xs))
	pinAllocs(t, "metrics percentile", 0, func() {
		scratch = append(scratch[:0], xs...)
		_ = metrics.PercentileInPlace(scratch, 0.9)
	})
}

// TestPressureAdmitZeroAlloc pins the admission gate (without a
// timeline attached, its production default) at zero.
func TestPressureAdmitZeroAlloc(t *testing.T) {
	ctrl, _ := benchPressure()
	now := 0.0
	pinAllocs(t, "pressure admit+deficit", 0, func() {
		now += 1e-6
		_ = ctrl.Admit(units.Seconds(now), "r", 2048, 0)
		_ = ctrl.Deficit(2048)
	})
}

// TestQoSControllerZeroAlloc pins the whole SLO-feedback loop (without a
// timeline attached, its production default) at zero: the per-step
// observation, the window-boundary AIMD decision, the per-completion
// observation, and the cap/weight reads the engines issue every cycle.
func TestQoSControllerZeroAlloc(t *testing.T) {
	c := benchQoS()
	now := 0.0
	done := metrics.Request{
		ID: "r", Tenant: "premium", InputTokens: 1024, OutputTokens: 64,
		Arrival: 0, PrefillStart: 0, FirstToken: 0.02, Finish: 0.5,
	}
	pinAllocs(t, "qos observe+decide", 0, func() {
		now += 0.05 // five observations per 250ms window: decisions fire too
		c.ObserveStep(units.Seconds(now), 64, units.FromMs(25), 0.5)
		c.ObserveCompletion(units.Seconds(now), done, 0.5)
		c.AddPrefill(qos.Premium, 512)
		c.AddDecode(qos.Premium)
		_ = c.DecodeCap()
		_ = c.PrefillTokenBudget()
		_ = c.WeightOf(qos.Standard)
	})
}

// TestResilienceHotPathZeroAlloc pins the router's per-dispatch fast
// path (DESIGN.md §16) at zero: the bucket admission check, the pure
// breaker readiness read, the mutating breaker gate, and the hedge
// budget check all run once per dispatch under storm load.
func TestResilienceHotPathZeroAlloc(t *testing.T) {
	cfg := resilience.DefaultConfig()
	// A bucket that never rejects: exercise the admit path.
	bucket := resilience.NewBucket(resilience.BucketConfig{Rate: 1e9, Burst: 1e9})
	breaker := resilience.NewBreaker(cfg.Breaker)
	hedger := resilience.NewHedger(cfg.Hedge)
	now := units.Seconds(0)
	pinAllocs(t, "resilience bucket+breaker+hedge", 0, func() {
		now += 1e-4
		_ = bucket.Allow(now, 512)
		_ = breaker.Ready(now)
		if breaker.Allow(now) {
			breaker.ReportSuccess()
		}
		hedger.NoteDispatch()
		_ = hedger.CanHedge()
	})
}
