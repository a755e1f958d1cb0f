package main

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/units"
	"repro/internal/workload"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // reversed: the function must sort
		}
		return out
	}
	if v, ok := tailPercentile(xs(1000), 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, reportable", v, ok)
	}
	if beyond(1000, 0.99) != 10 {
		t.Errorf("beyond(1000, .99) = %d, want 10", beyond(1000, 0.99))
	}
	if _, ok := tailPercentile(xs(999), 0.99); ok {
		t.Error("p99 of 999 samples has only 9 beyond it, yet was reportable")
	}
	if v, ok := tailPercentile(xs(20), 0.5); !ok || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10, reportable", v, ok)
	}
	if _, ok := tailPercentile(nil, 0.5); ok {
		t.Error("percentile of no samples was reportable")
	}
	if v, _, err := meanPercentile([][]float64{xs(1000), xs(2000)}, 0.99); err != nil || v != (990+1980)/2 {
		t.Errorf("mean p99 of two traces = %v, %v; want 1485", v, err)
	}
	if _, _, err := meanPercentile([][]float64{xs(2000), xs(999)}, 0.99); err == nil {
		t.Error("a trace with 9 samples beyond p99 passed")
	}
}

func TestShedRequestsCountAsMissesOverAttempted(t *testing.T) {
	s := served{attempted: 100, met: 80, shed: 10, makespan: 20}
	if got := s.sloAttainment(); got != 0.8 {
		t.Errorf("slo attainment %v, want 0.8", got)
	}
	if got := s.goodput(); got != 4 {
		t.Errorf("goodput %v, want 4", got)
	}
	if got := s.servedFrac(); got != 0.9 {
		t.Errorf("served fraction %v, want 0.9", got)
	}

	// Through the end-to-end pipeline: two of four attempted requests meet
	// the SLO, one misses it and one is shed.
	req := func(id string, ttft, tpotMs float64) metrics.Request {
		return metrics.Request{ID: id, Arrival: 0, PrefillStart: 0,
			FirstToken: units.Seconds(ttft), Finish: units.Seconds(ttft + 9*tpotMs/1000),
			InputTokens: 1000, OutputTokens: 10}
	}
	o := outcome{
		completed: []metrics.Request{req("a", 0.1, 10), req("b", 0.2, 10), req("c", 60, 10)},
		shedIDs:   []string{"d"},
		makespan:  2, numSMs: 100, smBusy: 50,
	}
	w := Workload{Dataset: "sharegpt", N: 4, Traces: 1}
	res := &result{}
	endToEnd(res, w, []outcome{o}, [][]outcome{{o}}, []float64{1})
	got := map[string]float64{}
	for _, m := range res.EndToEnd {
		got[m.Name] = m.Value
	}
	for name, want := range map[string]float64{
		"slo_attainment": 0.5, "goodput_rps": 1, "served_frac": 0.75, "gpu_sm_util": 0.25,
	} {
		if math.Abs(got[name]-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
	if res.correct() {
		t.Error("three samples cannot support a p99, yet the run was correct")
	}
}

func TestClassifyInnermostLayerAndRuntimeSplit(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"repro/internal/smmask.Mask.Count", "repro/internal/gpusim.(*GPU).effectiveSMs", "repro/internal/sim.(*Simulation).Step"}, "smmask"},
		{[]string{"sort.insertionSort", "sort.Slice", "repro/internal/gpusim.(*GPU).recompute"}, "gpusim"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "runtime.newobject", "repro/internal/gpusim.(*GPU).Launch"}, bucketMalloc},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, bucketGC},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/engine.(*DecodeEngine).step"}, bucketGC},
		{[]string{"runtime.memmove", "runtime.growslice"}, bucketRuntime},
		{[]string{"main.(*hooks).attach.func3", "repro/internal/gpusim.(*GPU).finish"}, bucketBench},
		{[]string{"repro/internal/baselines/chunked.(*System).Submit"}, "baselines"},
		{[]string{"syscall.Syscall"}, bucketOther},
		{nil, bucketOther},
	} {
		if got := classify(c.frames); got != c.want {
			t.Errorf("classify(%q) = %q, want %q", c.frames, got, c.want)
		}
	}
}

//go:noinline
func burn(d time.Duration) float64 {
	x := 0.0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	return x
}

func TestParseCPUProfileReadsRuntimeOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	burn(300 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, st := range p.stacks {
		for _, f := range st {
			if strings.HasSuffix(f, ".burn") {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no sample in burn among %d samples", len(p.stacks))
	}
	total := 0.0
	for _, v := range p.splitByLayer(2) {
		total += v
	}
	if math.Abs(total-2) > 1e-9 {
		t.Errorf("split sums to %v, want the 2 CPU seconds given", total)
	}
	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}

func TestCheckRunCatchesLostAndDuplicatedRequests(t *testing.T) {
	tr := &workload.Trace{Requests: []workload.Request{
		{ID: "a", InputTokens: 5, OutputTokens: 3},
		{ID: "b", InputTokens: 5, OutputTokens: 3},
		{ID: "c", InputTokens: 5, OutputTokens: 3},
	}}
	done := func(id string) metrics.Request {
		return metrics.Request{ID: id, InputTokens: 5, OutputTokens: 3}
	}
	if err := checkRun(tr, []metrics.Request{done("a"), done("b")}, []string{"c"}, 1); err != nil {
		t.Errorf("a valid run failed: %v", err)
	}
	for name, c := range map[string]struct {
		completed []metrics.Request
		shed      []string
	}{
		"lost":         {[]metrics.Request{done("a"), done("b")}, nil},
		"duplicated":   {[]metrics.Request{done("a"), done("a"), done("b")}, []string{"c"}},
		"both ends":    {[]metrics.Request{done("a"), done("b"), done("c")}, []string{"c"}},
		"unknown":      {[]metrics.Request{done("a"), done("b"), done("z")}, nil},
		"short":        {[]metrics.Request{done("a"), done("b"), {ID: "c", InputTokens: 5, OutputTokens: 2}}, nil},
		"unknown shed": {[]metrics.Request{done("a"), done("b")}, []string{"z"}},
	} {
		if err := checkRun(tr, c.completed, c.shed, len(c.shed)); err == nil {
			t.Errorf("%s: check passed", name)
		}
	}
}

// small returns a workload at a test-sized request count.
func small(t *testing.T, name string, n int) Workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	w.N = n
	return w
}

func TestSameSeedSameInputs(t *testing.T) {
	w := small(t, "code-pressure", 50)
	a := w.setup(7, 0, 1, newSpans("a"), 0)
	b := w.setup(7, 0, 1, newSpans("b"), 0)
	c := w.setup(8, 0, 1, newSpans("c"), 0)
	d := w.setup(7, 1, 1, newSpans("d"), 0)
	if len(a.trace.Requests) != 50 {
		t.Fatalf("trace has %d requests, want 50", len(a.trace.Requests))
	}
	for i := range a.trace.Requests {
		if a.trace.Requests[i] != b.trace.Requests[i] {
			t.Fatalf("seed 7 gave two traces: %+v vs %+v", a.trace.Requests[i], b.trace.Requests[i])
		}
	}
	if a.trace.Requests[0] == c.trace.Requests[0] || a.trace.Requests[0] == d.trace.Requests[0] {
		t.Error("another seed or trace index gave the same first request")
	}
}

func TestChaosFingerprintSameSerialAndParallel(t *testing.T) {
	w := small(t, "chaos-cluster", 300)
	serial := w.setup(3, 0, 1, newSpans("s"), 0).run()
	parallel := w.setup(3, 0, runtime.NumCPU(), newSpans("p"), 0).run()
	if serial.err != nil || parallel.err != nil {
		t.Fatalf("checks failed: serial %v, parallel %v", serial.err, parallel.err)
	}
	if serial.fingerprint != parallel.fingerprint {
		t.Errorf("workers=1 fingerprint %016x, workers=%d %016x", serial.fingerprint, runtime.NumCPU(), parallel.fingerprint)
	}
}

func TestTracedFingerprintMatchesUntraced(t *testing.T) {
	for _, name := range []string{"chat-steady", "code-pressure", "chaos-cluster"} {
		w := small(t, name, 200)
		plain := w.setup(5, 0, 1, newSpans("u"), 0).run()
		in := w.setup(5, 0, 1, newSpans("t"), 0)
		in.hooks = &hooks{}
		in.hooks.attach(in)
		traced := in.run()
		if plain.err != nil || traced.err != nil {
			t.Fatalf("%s: checks failed: untraced %v, traced %v", name, plain.err, traced.err)
		}
		if plain.fingerprint != traced.fingerprint {
			t.Errorf("%s: traced fingerprint %016x, untraced %016x", name, traced.fingerprint, plain.fingerprint)
		}
		if h := in.hooks; h.completions+h.sheds != 200 {
			t.Errorf("%s: hooks saw %d completions + %d sheds, want 200", name, h.completions, h.sheds)
		}
		if h := in.hooks; h.replica != (in.bullet != nil) || (h.replica && (h.kernels == 0 || h.decisions == 0)) {
			t.Errorf("%s: replica hooks %+v", name, h)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "chat-steady", "--seconds", "0"},
		{"--workload", "chat-steady", "--trace", "2"},
		{"--bogus"},
	} {
		if code := run(args, io.Discard, io.Discard); code == 0 {
			t.Errorf("run(%q) exited 0", args)
		}
	}
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(manifest()) {
		t.Error("BENCHMARK.json is stale; regenerate it with: bash perfbench/run.sh --manifest > BENCHMARK.json")
	}
}

func TestReportedMetricsMatchTables(t *testing.T) {
	same := func(what string, got []metric, want []spec) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: %s %s, want %s %s", what, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	for _, name := range []string{"chat-steady", "chaos-cluster"} {
		w := small(t, name, 150)
		w.Traces = 1
		res := measure(w, config{seed: 1, seconds: 0.001, traced: true, workers: runtime.NumCPU()})
		same(name+" end-to-end", res.EndToEnd, endToEndSpecs)
		same(name+" per-layer", res.PerLayer, perLayerSpecs)
		if res.Failed != 0 {
			t.Errorf("%s: %d failed", name, res.Failed)
		}
	}
}
