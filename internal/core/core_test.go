package core

import (
	"math"
	"testing"

	"repro/internal/estimator"
	"repro/internal/gpusim"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/serving"
	"repro/internal/sim"
	"repro/internal/workload"
)

func runBullet(t testing.TB, mode Mode, dataset workload.Dataset, rate float64, n int, seed int64, opts Options) serving.Result {
	t.Helper()
	env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), dataset.Name)
	opts.Mode = mode
	if opts.Params == (estimator.Params{}) {
		opts.Params = estimator.DefaultParams() // keep unit tests fast
	}
	b := New(env, opts)
	trace := workload.Generate(dataset, rate, n, seed)
	return b.RunTrace(trace)
}

func TestFullSystemCompletesAllRequests(t *testing.T) {
	res := runBullet(t, ModeFull, workload.ShareGPT, 4, 40, 1, Options{})
	if res.Summary.Requests != 40 {
		t.Fatalf("completed %d/40", res.Summary.Requests)
	}
	if res.Summary.MeanTTFT <= 0 || res.Summary.MeanTPOTMs <= 0 {
		t.Fatalf("degenerate summary: %+v", res.Summary)
	}
	// At modest load Bullet should comfortably meet SLOs.
	if res.Summary.SLOAttainment < 0.6 {
		t.Fatalf("SLO attainment = %v at light load", res.Summary.SLOAttainment)
	}
}

func TestDeterminism(t *testing.T) {
	a := runBullet(t, ModeFull, workload.AzureCode, 2, 25, 7, Options{})
	b := runBullet(t, ModeFull, workload.AzureCode, 2, 25, 7, Options{})
	if a.Summary != b.Summary {
		t.Fatalf("non-deterministic summaries:\n%+v\n%+v", a.Summary, b.Summary)
	}
	if a.Makespan != b.Makespan {
		t.Fatalf("non-deterministic makespan: %v vs %v", a.Makespan, b.Makespan)
	}
}

func TestAllModesRun(t *testing.T) {
	for _, mode := range []Mode{ModeFull, ModeNaive, ModePartitionOnly, ModeSchedulerOnly} {
		mode := mode
		t.Run(string(mode), func(t *testing.T) {
			res := runBullet(t, mode, workload.ShareGPT, 3, 20, 3, Options{})
			if res.Summary.Requests != 20 {
				t.Fatalf("%s completed %d/20", mode, res.Summary.Requests)
			}
		})
	}
}

func TestStaticModeRuns(t *testing.T) {
	res := runBullet(t, ModeStatic, workload.AzureCode, 2, 20, 5, Options{FixedPrefillSMs: 84})
	if res.Summary.Requests != 20 {
		t.Fatalf("completed %d/20", res.Summary.Requests)
	}
	if res.System != "bullet-sm84" {
		t.Fatalf("name = %s", res.System)
	}
}

func TestStaticModeRequiresPrefillSMs(t *testing.T) {
	env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "sharegpt")
	defer func() {
		if recover() == nil {
			t.Fatal("ModeStatic without FixedPrefillSMs accepted")
		}
	}()
	New(env, Options{Mode: ModeStatic, Params: estimator.DefaultParams()})
}

func TestUnknownModePanics(t *testing.T) {
	env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "sharegpt")
	defer func() {
		if recover() == nil {
			t.Fatal("unknown mode accepted")
		}
	}()
	New(env, Options{Mode: "nope", Params: estimator.DefaultParams()})
}

// TestTimelineRecording checks that observing a run through the engine
// hooks (what the Fig. 12 timeline is built from) leaves it unchanged:
// the hooks are pure observers.
func TestTimelineRecording(t *testing.T) {
	run := func(observe bool) serving.Result {
		env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "azure-code")
		b := New(env, Options{Mode: ModeFull, Params: estimator.DefaultParams()})
		if observe {
			decide := func(sim.Time, sched.Decision) {}
			b.Prefill.OnDecision = decide
			b.Decode.OnDecision = decide
			b.Prefill.OnBatchStart = func(sim.Time, int, int, int) {}
		}
		return b.RunTrace(workload.Generate(workload.AzureCode, 3, 25, 11))
	}
	plain, observed := run(false), run(true)
	if observed.Summary.Requests != 25 {
		t.Fatalf("completed %d/25 with hooks set", observed.Summary.Requests)
	}
	if plain.Summary != observed.Summary || plain.Makespan != observed.Makespan {
		t.Fatalf("hooks changed the run:\n%+v\n%+v", plain.Summary, observed.Summary)
	}
}

// TestTimelineSeriesPopulated checks that Bullet's engines report what
// the Fig. 12 series are sampled from: every Algorithm 1 decision (with
// its branch) and every prefill batch start, and that the prefill SM
// allocation moves under load.
func TestTimelineSeriesPopulated(t *testing.T) {
	env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "azure-code")
	b := New(env, Options{Mode: ModeFull, Params: estimator.DefaultParams()})
	var prefillSMs []float64
	branches := map[string]int{}
	batches := 0
	decide := func(_ sim.Time, d sched.Decision) {
		prefillSMs = append(prefillSMs, float64(d.PrefillSMs))
		branches[d.Branch]++
	}
	b.Prefill.OnDecision = decide
	b.Decode.OnDecision = decide
	b.Prefill.OnBatchStart = func(_ sim.Time, tokens, _, _ int) {
		if tokens <= 0 {
			t.Errorf("batch started with %d tokens", tokens)
		}
		batches++
	}
	b.RunTrace(workload.Generate(workload.AzureCode, 3, 25, 11))

	if len(prefillSMs) == 0 || batches == 0 {
		t.Fatalf("hooks not called: %d decisions, %d batch starts", len(prefillSMs), batches)
	}
	if len(branches) == 0 || branches[""] != 0 {
		t.Fatalf("scheduling branches not reported: %v", branches)
	}
	// SM allocations must vary under dynamic provisioning at load.
	minSM, maxSM := math.Inf(1), math.Inf(-1)
	for _, v := range prefillSMs {
		minSM = math.Min(minSM, v)
		maxSM = math.Max(maxSM, v)
	}
	if minSM == maxSM {
		t.Fatalf("prefill SMs never changed (always %v)", minSM)
	}
}

func TestConcurrencyBeatsNothing(t *testing.T) {
	// The full system must beat Naive on TTFT tails under load: Naive
	// lets decode hog bandwidth while prefill queues pile up.
	full := runBullet(t, ModeFull, workload.AzureCode, 4, 40, 13, Options{})
	naive := runBullet(t, ModeNaive, workload.AzureCode, 4, 40, 13, Options{})
	if full.Summary.P90NormTTFT > naive.Summary.P90NormTTFT*1.5 {
		t.Fatalf("full P90 norm TTFT %v much worse than naive %v",
			full.Summary.P90NormTTFT, naive.Summary.P90NormTTFT)
	}
}

func TestOutputTokenConservation(t *testing.T) {
	trace := workload.Generate(workload.ShareGPT, 3, 30, 17)
	env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), trace.Dataset)
	b := New(env, Options{Mode: ModeFull, Params: estimator.DefaultParams()})
	res := b.RunTrace(trace)
	want := trace.TotalOutputTokens()
	got := 0
	for _, r := range res.Requests {
		got += r.OutputTokens
	}
	if got != want {
		t.Fatalf("output tokens %d != trace %d", got, want)
	}
}

func TestFittedParamsCached(t *testing.T) {
	a := FittedParams(model.Llama31_8B(), gpusim.A100())
	b := FittedParams(model.Llama31_8B(), gpusim.A100())
	if a != b {
		t.Fatal("FittedParams not cached")
	}
	if a.DC <= 0 || a.DB <= 0 {
		t.Fatalf("bad fitted params: %+v", a)
	}
}

func TestSingleOutputTokenRequestCompletesAtPrefill(t *testing.T) {
	env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "azure-code")
	b := New(env, Options{Mode: ModeFull, Params: estimator.DefaultParams()})
	trace := &workload.Trace{Dataset: "azure-code", Rate: 1, Requests: []workload.Request{
		{ID: "one", Arrival: 0.001, InputTokens: 1024, OutputTokens: 1, Dataset: "azure-code"},
	}}
	res := b.RunTrace(trace)
	r := res.Requests[0]
	if r.FirstToken != r.Finish {
		t.Fatalf("single-token request should finish at first token: %+v", r)
	}
	if b.Decode.Steps() != 0 {
		t.Fatal("decode engine ran for a single-token request")
	}
}

func BenchmarkFullSystemShareGPT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runBullet(b, ModeFull, workload.ShareGPT, 5, 50, 1, Options{})
	}
}

func TestPrefixCacheEndToEnd(t *testing.T) {
	env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "azure-code")
	b := New(env, Options{Mode: ModeFull, EnablePrefixCache: true, Params: estimator.DefaultParams()})
	if b.Name() != "bullet+prefix" {
		t.Fatalf("name = %s", b.Name())
	}
	trace := workload.GenerateShared(workload.AzureCode, 3, 40, 19, 2, 512, 0.9)
	res := b.RunTrace(trace)
	if res.Summary.Requests != 40 {
		t.Fatalf("completed %d/40", res.Summary.Requests)
	}
	st := b.PrefixCache.Stats()
	if st.Hits == 0 || st.HitTokens == 0 {
		t.Fatalf("no prefix hits: %+v", st)
	}
	// The harness already asserts the pool drained (EvictAll via OnDrain).
}

func TestTPModelThroughCore(t *testing.T) {
	env := serving.NewEnv(gpusim.A100(), model.Llama31_8B().TP(2), "sharegpt")
	b := New(env, Options{Mode: ModeFull, Params: estimator.DefaultParams()})
	trace := workload.Generate(workload.ShareGPT, 4, 20, 23)
	res := b.RunTrace(trace)
	if res.Summary.Requests != 20 {
		t.Fatalf("completed %d/20", res.Summary.Requests)
	}
	// TP2 halves per-rank work: latencies should beat TP1 on the same trace.
	env1 := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "sharegpt")
	b1 := New(env1, Options{Mode: ModeFull, Params: estimator.DefaultParams()})
	res1 := b1.RunTrace(workload.Generate(workload.ShareGPT, 4, 20, 23))
	if res.Summary.MeanTTFT >= res1.Summary.MeanTTFT {
		t.Fatalf("TP2 TTFT %.3f not below TP1 %.3f", res.Summary.MeanTTFT, res1.Summary.MeanTTFT)
	}
}

func TestModeNames(t *testing.T) {
	for mode, want := range map[Mode]string{
		ModeFull:          "bullet",
		ModeNaive:         "bullet-naive",
		ModePartitionOnly: "bullet-partition",
		ModeSchedulerOnly: "bullet-scheduler",
	} {
		env := serving.NewEnv(gpusim.A100(), model.Llama31_8B(), "sharegpt")
		b := New(env, Options{Mode: mode, Params: estimator.DefaultParams()})
		if b.Name() != want {
			t.Fatalf("mode %s name = %s", mode, b.Name())
		}
	}
}
