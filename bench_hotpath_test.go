// Steady-state microbenchmarks for every //bullet:hotpath root. Unlike
// the table/figure benchmarks in bench_test.go these measure single
// inner-loop operations, so -benchmem allocs/op numbers here are the
// ground truth behind BENCH_hotpath.json and the allocation contract in
// DESIGN.md §13. Run with:
//
//	go test -bench BenchmarkHotPaths -benchmem -benchtime 100000x .
package repro

import (
	"testing"

	"repro/internal/estimator"
	"repro/internal/gpusim"
	"repro/internal/kvcache"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/pressure"
	"repro/internal/qos"
	"repro/internal/resource"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/smmask"
	"repro/internal/timeline"
	"repro/internal/units"
)

// BenchmarkHotPaths groups one steady-state sub-benchmark per annotated
// hot path so the whole contract is measured with a single -bench
// selector.
func BenchmarkHotPaths(b *testing.B) {
	b.Run("sim/post-step", benchSimPostStep)
	b.Run("sim/at-cancel", benchSimAtCancel)
	b.Run("gpusim/launch-finish", benchGPULaunchFinish)
	b.Run("sched/decide", benchSchedDecide)
	b.Run("sched/sort-waiting", benchSchedSortWaiting)
	b.Run("resource/rebuild", benchResourceRebuild)
	b.Run("resource/stream", benchResourceStream)
	b.Run("timeline/span-enabled", benchTimelineSpanEnabled)
	b.Run("timeline/span-disabled", benchTimelineSpanDisabled)
	b.Run("kvcache/alloc-free", benchKVAllocFree)
	b.Run("kvcache/extend", benchKVExtend)
	b.Run("pressure/admit", benchPressureAdmit)
	b.Run("metrics/percentile", benchMetricsPercentile)
	b.Run("qos/observe-decide", benchQoSObserve)
}

// benchSimPostStep measures the pooled schedule+fire cycle: one event
// posted and consumed per iteration, the event-loop steady state.
func benchSimPostStep(b *testing.B) {
	s := sim.New()
	fn := func() {}
	// Warm the arena so the measured loop sees only reuse.
	for i := 0; i < 256; i++ {
		s.PostAfter(1e-6, fn)
	}
	for s.Step() {
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.PostAfter(1e-6, fn)
		s.Step()
	}
}

// benchSimAtCancel measures the handle-returning schedule path plus a
// cancel, the pattern of handle owners that drop a pending event.
func benchSimAtCancel(b *testing.B) {
	s := sim.New()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := s.After(1e-6, fn)
		s.Cancel(e)
		s.Step()
	}
}

// gpuLaunchFinishCycle returns one launch → re-rate → finish round on
// two streams with overlapping masks: a compute-bound GEMM and a
// memory-bound graph-launched decode step, both resident at once, each
// launch and finish re-rating the pair, then run to completion.
func gpuLaunchFinishCycle() func() {
	s := sim.New()
	g := gpusim.New(s, gpusim.A100())
	a := g.NewStream(smmask.Range(0, 72))
	d := g.NewStream(smmask.Range(36, 108))
	gemm := gpusim.Kernel{Name: "gateup", Tag: "prefill", FLOPs: 4e12, Bytes: 6e7,
		Grid: 256, Efficiency: 0.92}
	step := gpusim.Kernel{Name: "decode-step", Tag: "decode", FLOPs: 2e10, Bytes: 4e9,
		Graph: true, GraphHead: true}
	steps := 0
	done := func(gpusim.KernelRecord) { steps++ }
	return func() {
		g.Launch(a, gemm, nil)
		g.Launch(d, step, done)
		for s.Step() {
		}
	}
}

// benchGPULaunchFinish measures the simulator's kernel cycle: two
// launches, their residency and completion events, and the four SM-share
// re-rates they trigger.
func benchGPULaunchFinish(b *testing.B) {
	cycle := gpuLaunchFinishCycle()
	cycle() // warm the launch pool, completion events and scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

func benchScheduler() (*sched.Scheduler, sched.State) {
	spec := gpusim.A100()
	cfg := model.Llama31_8B()
	est := estimator.New(cfg, spec, estimator.DefaultParams())
	res := resource.NewManager(gpusim.New(sim.New(), spec), 6)
	s := sched.New(est, metrics.SLOFor("azure-code"), sched.Config{
		TotalLayers: cfg.NumLayers, LayerGroup: 4,
		NumSMs: spec.NumSMs, Levels: res.Levels(),
	})
	st := sched.State{
		Now: 1.0,
		Prefill: sched.PrefillStatus{
			Active: true, Tokens: 4352, LayersDone: 16, StartTime: 0.98,
			Arrivals:    []sim.Time{0.97, 0.975, 0.98, 0.98},
			InputTokens: []int{512, 1024, 768, 2048},
		},
		Decode: sched.DecodeStatus{
			Batch: 8, AvgCtx: 900,
			Elapsed:   []units.Seconds{0.4, 0.3, 0.5, 0.2, 0.6, 0.1, 0.35, 0.45},
			Generated: []int{40, 30, 50, 20, 60, 10, 35, 45},
		},
		PrefillSMs: 48, DecodeSMs: 60,
	}
	for i := 0; i < 6; i++ {
		st.Waiting = append(st.Waiting, sched.WaitingReq{
			Arrival:     units.Seconds(1.0 + float64(i)*0.01),
			InputTokens: 512 + 128*i,
		})
	}
	return s, st
}

// benchSchedDecide measures one full Algorithm 1 evaluation — the
// water-filling re-rate that runs every scheduling cycle.
func benchSchedDecide(b *testing.B) {
	s, st := benchScheduler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Decide(st)
	}
}

// benchSchedSortWaiting measures the deadline reorder of a
// representative pending queue (Algorithm 1 line 7).
func benchSchedSortWaiting(b *testing.B) {
	s, st := benchScheduler()
	reqs := make([]sched.WaitingReq, len(st.Waiting))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(reqs, st.Waiting)
		s.SortWaiting(reqs)
	}
}

// benchResourceRebuild measures the SM-partition table rebuild that runs
// on every fault/recovery transition.
func benchResourceRebuild(b *testing.B) {
	g := gpusim.New(sim.New(), gpusim.A100())
	m := resource.NewManager(g, 6)
	full := smmask.Full(g.Spec.NumSMs)
	degraded := full
	for i := 0; i < 12; i++ {
		degraded.Clear(i * 7)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			m.Rebuild(degraded)
		} else {
			m.Rebuild(full)
		}
	}
}

// benchResourceStream measures the per-cycle stream lookup + quantize.
func benchResourceStream(b *testing.B) {
	g := gpusim.New(sim.New(), gpusim.A100())
	m := resource.NewManager(g, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Stream(resource.Prefill, 40+i%30)
		_ = m.Stream(resource.Decode, 70-i%30)
	}
}

// benchTimelineSpanEnabled measures one recorded span with typical args
// against a live bounded recorder.
func benchTimelineSpanEnabled(b *testing.B) {
	rec := timeline.New(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Span("prefill", "chunk", 0.001, 0.002,
			timeline.I("tokens", 512), timeline.F("sms", 48))
	}
}

// benchTimelineSpanDisabled measures the same call site with a nil
// recorder — the cost every hot loop pays when tracing is off, which the
// allocation contract pins at zero.
func benchTimelineSpanDisabled(b *testing.B) {
	var rec *timeline.Recorder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Span("prefill", "chunk", 0.001, 0.002,
			timeline.I("tokens", 512), timeline.F("sms", 48))
	}
}

// benchKVAllocFree measures the block pool's steady-state churn: one
// sequence allocated and freed per iteration.
func benchKVAllocFree(b *testing.B) {
	p := kvcache.NewPool(4096, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := p.Allocate("r", 2048, "decode")
		if err != nil {
			b.Fatal(err)
		}
		p.MustFree(s)
	}
}

// benchKVExtend measures the per-token-boundary block append of a live
// decode sequence.
func benchKVExtend(b *testing.B) {
	p := kvcache.NewPool(1<<20, 16)
	s, err := p.Allocate("r", 16, "decode")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Extend(16); err != nil {
			b.StopTimer()
			p.MustFree(s)
			s, err = p.Allocate("r", 16, "decode")
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

// benchPressure builds the admission controller the pressure paths
// share (no timeline attached, its production default).
func benchPressure() (*pressure.Controller, *kvcache.Pool) {
	spec := gpusim.A100()
	cfg := model.Llama31_8B()
	est := estimator.New(cfg, spec, estimator.DefaultParams())
	pool := kvcache.NewPool(4096, 16)
	return pressure.New(pool, est, cfg.KVBytesPerToken(), pressure.DefaultConfig()), pool
}

// benchPressureAdmit measures the admission gate check that guards every
// request entry under memory pressure.
func benchPressureAdmit(b *testing.B) {
	ctrl, _ := benchPressure()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ctrl.Admit(units.Seconds(float64(i)*1e-6), "r", 2048, 0)
		_ = ctrl.Deficit(2048)
	}
}

// benchMetricsPercentile measures the P90 read the scheduler issues at
// least twice per Decide, via the in-place variant it now uses.
func benchMetricsPercentile(b *testing.B) {
	xs := make([]float64, 64)
	for i := range xs {
		xs[i] = float64((i * 37) % 64)
	}
	scratch := make([]float64, 0, len(xs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = append(scratch[:0], xs...)
		_ = metrics.PercentileInPlace(scratch, 0.9)
	}
}

// benchQoS builds a controller in its production default shape: no
// timeline, engine-scale caps, default AIMD constants.
func benchQoS() *qos.Controller {
	return qos.New(metrics.SLOFor("azure-code"), qos.DefaultConfig(), 256, 16384)
}

// benchQoSObserve measures the per-decode-step feedback call — the
// controller's hottest entry point: one observation folded into the
// window accumulator, the boundary check, and (every ~250 simulated ms)
// one AIMD decision, plus the cap reads the engines issue per cycle.
func benchQoSObserve(b *testing.B) {
	c := benchQoS()
	now := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 1e-4
		c.ObserveStep(units.Seconds(now), 64, units.FromMs(25), 0.5)
		_ = c.DecodeCap()
		_ = c.PrefillTokenBudget()
	}
}
