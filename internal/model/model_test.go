package model

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/gpusim"
	"repro/internal/units"
)

func TestValidatePresets(t *testing.T) {
	for _, c := range []Config{Llama31_8B(), Qwen2_7B(), Tiny()} {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	c := Llama31_8B()
	c.HeadDim = 100 // heads*headDim != hidden
	if c.Validate() == nil {
		t.Error("mismatched head dim accepted")
	}
	c = Llama31_8B()
	c.NumKVHeads = 5 // not a divisor of 32
	if c.Validate() == nil {
		t.Error("non-divisor KV heads accepted")
	}
	c = Llama31_8B()
	c.NumLayers = 0
	if c.Validate() == nil {
		t.Error("zero layers accepted")
	}
}

func TestLlama8BParamCount(t *testing.T) {
	c := Llama31_8B()
	params := c.ParamCount()
	// Llama-3.1-8B has ~8.03B parameters.
	if params < 7.9e9 || params > 8.2e9 {
		t.Fatalf("param count = %.3g, want ≈ 8.03e9", params)
	}
	if w := c.WeightBytes(); units.Abs(w-units.Bytes(2*params)) > 1 {
		t.Fatalf("weight bytes = %v, want 2x params", w)
	}
}

func TestKVBytes(t *testing.T) {
	c := Llama31_8B()
	// 2 (K,V) * 8 kv-heads * 128 dim * 2 bytes = 4096 B/token/layer.
	if got := c.KVBytesPerTokenLayer(); got != 4096 {
		t.Fatalf("KV bytes/token/layer = %v, want 4096", got)
	}
	// 131072 B/token across 32 layers.
	if got := c.KVBytesPerToken(); got != 131072 {
		t.Fatalf("KV bytes/token = %v, want 131072", got)
	}
}

// Table 1 of the paper, exactly reproducible columns: QKV, Attn, OProj
// idle ratios on a 108-SM A100 from our grid model.
func TestTable1GridSizes(t *testing.T) {
	c := Llama31_8B()
	cases := []struct {
		seq      int
		op       string
		wantIdle float64 // percent
	}{
		{1024, "qkv", 11.1}, {2048, "qkv", 11.1}, {4096, "qkv", 11.1}, {16384, "qkv", 1.9},
		{1024, "attn", 21.0}, {2048, "attn", 5.2}, {4096, "attn", 5.2}, {16384, "attn", 0.2},
		{1024, "oproj", 40.7}, {2048, "oproj", 21.0}, {4096, "oproj", 5.2}, {16384, "oproj", 0.2},
	}
	for _, cs := range cases {
		ks := c.PrefillLayerKernels(cs.seq, 0, "t")
		var grid int
		for _, k := range ks {
			if k.Name == cs.op {
				grid = k.Grid
			}
		}
		got := 100 * gpusim.WaveIdleRatio(grid, 108)
		if math.Abs(got-cs.wantIdle) > 0.15 {
			t.Errorf("%s@%d: idle = %.1f%%, want %.1f%% (grid %d)", cs.op, cs.seq, got, cs.wantIdle, grid)
		}
	}
}

func TestPrefillFLOPsScale(t *testing.T) {
	c := Llama31_8B()
	w := c.PrefillWork(2048, 0)
	// Dense transformer prefill ≈ 2 * params * tokens (attention adds a
	// little, embeddings excluded). Expect within ~15% of 2*7B*2048 for
	// the layer stack (8B minus 1.05B embedding params).
	approx := units.FLOPs(2 * (c.ParamCount() - 2*float64(c.VocabSize*c.HiddenSize)) * 2048)
	if w.FLOPs < approx*0.95 || w.FLOPs > approx*1.25 {
		t.Fatalf("prefill FLOPs = %.3g, want ≈ %.3g", w.FLOPs, approx)
	}
}

func TestChunkHistoryInflatesAttention(t *testing.T) {
	c := Llama31_8B()
	fresh := c.PrefillLayerKernels(1024, 0, "t")
	late := c.PrefillLayerKernels(1024, 15360, "t") // last 1k chunk of 16k
	var freshAttn, lateAttn gpusim.Kernel
	for i, k := range fresh {
		if k.Name == "attn" {
			freshAttn, lateAttn = k, late[i]
		}
	}
	if lateAttn.FLOPs <= freshAttn.FLOPs*10 {
		t.Fatalf("late chunk attention FLOPs %.3g not ≫ fresh %.3g", lateAttn.FLOPs, freshAttn.FLOPs)
	}
	if lateAttn.Bytes <= freshAttn.Bytes {
		t.Fatal("late chunk attention bytes not inflated by KV reload")
	}
	// Non-attention kernels are unchanged by history.
	for i, k := range fresh {
		if k.Name != "attn" && (late[i].FLOPs != k.FLOPs || late[i].Bytes != k.Bytes) {
			t.Fatalf("operator %s changed with history", k.Name)
		}
	}
}

func TestDecodeLayerMemoryBound(t *testing.T) {
	c := Llama31_8B()
	spec := gpusim.A100()
	for _, k := range c.DecodeLayerKernels(32, 1024, "d") {
		ct := k.FLOPs.Div(spec.PeakFLOPS)
		bt := k.Bytes.Div(spec.PeakBW)
		if ct > bt {
			t.Errorf("decode kernel %s compute-bound (ct=%.3g bt=%.3g)", k.Name, ct, bt)
		}
	}
}

func TestDecodeStepKernelAggregates(t *testing.T) {
	c := Llama31_8B()
	step := c.DecodeStepKernel(64, 2048, "d")
	layer := Aggregate(c.DecodeLayerKernels(64, 2048, "d"))
	head := c.LMHeadKernel(64, "d")
	if units.Abs(step.FLOPs-(layer.FLOPs*32+head.FLOPs)) > 1 {
		t.Fatal("step FLOPs mismatch")
	}
	if units.Abs(step.Bytes-(layer.Bytes*32+head.Bytes)) > 1 {
		t.Fatal("step bytes mismatch")
	}
	if !step.Graph || !step.GraphHead {
		t.Fatal("decode step not marked as graph launch")
	}
	// Sanity: a 64-batch 2048-ctx decode step on A100 should take
	// 10-30ms (weights 16GB + KV ~17GB at ~2TB/s, with inefficiency).
	dur := step.Bytes.Div(gpusim.A100().PeakBW)
	if dur < 0.008 || dur > 0.08 {
		t.Fatalf("decode step raw byte time = %v, outside sanity window", dur)
	}
}

func TestOperatorNamesMatchKernels(t *testing.T) {
	c := Tiny()
	ks := c.PrefillLayerKernels(64, 0, "t")
	if len(ks) != len(OperatorNames) {
		t.Fatalf("got %d kernels, want %d", len(ks), len(OperatorNames))
	}
	for i, k := range ks {
		if k.Name != OperatorNames[i] {
			t.Fatalf("kernel %d = %s, want %s", i, k.Name, OperatorNames[i])
		}
	}
	dk := c.DecodeLayerKernels(4, 16, "t")
	for i, k := range dk {
		if k.Name != OperatorNames[i] {
			t.Fatalf("decode kernel %d = %s, want %s", i, k.Name, OperatorNames[i])
		}
	}
}

// Property: prefill work is monotone in chunk size and history.
func TestPropertyPrefillMonotone(t *testing.T) {
	c := Tiny()
	f := func(aU, bU uint16, histU uint16) bool {
		a := int(aU%2048) + 1
		b := a + int(bU%2048) + 1
		hist := int(histU % 4096)
		wa := c.PrefillWork(a, hist)
		wb := c.PrefillWork(b, hist)
		if wb.FLOPs < wa.FLOPs || wb.Bytes < wa.Bytes {
			return false
		}
		wh := c.PrefillWork(a, hist+512)
		return wh.FLOPs >= wa.FLOPs && wh.Bytes >= wa.Bytes
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: decode step work is monotone in batch and context.
func TestPropertyDecodeMonotone(t *testing.T) {
	c := Tiny()
	f := func(bU, cU uint16) bool {
		b := int(bU%256) + 1
		cl := units.Tokens(cU%8192) + 1
		k1 := c.DecodeStepKernel(b, cl, "d")
		k2 := c.DecodeStepKernel(b+1, cl, "d")
		k3 := c.DecodeStepKernel(b, cl+64, "d")
		return k2.FLOPs >= k1.FLOPs && k2.Bytes >= k1.Bytes &&
			k3.FLOPs >= k1.FLOPs && k3.Bytes >= k1.Bytes
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPrefillLayerPanicsOnZeroTokens(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Tiny().PrefillLayerKernels(0, 0, "t")
}

func BenchmarkPrefillLayerKernels(b *testing.B) {
	c := Llama31_8B()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.PrefillLayerKernels(2048, 0, "p")
	}
}

func BenchmarkDecodeStepKernel(b *testing.B) {
	c := Llama31_8B()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.DecodeStepKernel(64, 2048, "d")
	}
}

// TestAppendPrefillBatchLayerKernels: the scratch-backed builder emits
// exactly the batch-wide layer with its attention replaced by each
// sequence's own single-sequence attention kernel, keeps whatever dst
// already held, and reuses warm scratch without allocating.
func TestAppendPrefillBatchLayerKernels(t *testing.T) {
	tp := Llama31_8B()
	tp.TPDegree = 2
	seqLens := []int{512, 7, 2048, 130}
	histLens := []int{0, 64, 1024, 0}
	for _, c := range []Config{Llama31_8B(), Qwen2_7B(), tp} {
		total := 0
		for _, n := range seqLens {
			total += n
		}
		var want []gpusim.Kernel
		for _, k := range c.PrefillLayerKernels(total, 0, "prefill") {
			if k.Name != "attn" {
				want = append(want, k)
				continue
			}
			for i, n := range seqLens {
				for _, pk := range c.PrefillLayerKernels(n, histLens[i], "prefill") {
					if pk.Name == "attn" {
						want = append(want, pk)
					}
				}
			}
		}
		prefix := c.DecodeLayerKernels(4, 100, "decode")
		got := c.AppendPrefillBatchLayerKernels(append([]gpusim.Kernel(nil), prefix...), seqLens, histLens, "prefill")
		if len(got) != len(prefix)+len(want) {
			t.Fatalf("%s: %d kernels, want %d", c.Name, len(got), len(prefix)+len(want))
		}
		for i := range prefix {
			if got[i] != prefix[i] {
				t.Errorf("%s: prefix kernel %d overwritten: %+v", c.Name, i, got[i])
			}
		}
		for i, k := range got[len(prefix):] {
			if k != want[i] {
				t.Errorf("%s: kernel %d = %+v, want %+v", c.Name, i, k, want[i])
			}
		}
		scratch := make([]gpusim.Kernel, 0, len(want))
		if a := testing.AllocsPerRun(50, func() {
			scratch = c.AppendPrefillBatchLayerKernels(scratch[:0], seqLens, histLens, "prefill")
		}); a != 0 {
			t.Errorf("%s: %v allocs per warm append, want 0", c.Name, a)
		}
	}
}
