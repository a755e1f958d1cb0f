package experiments

import (
	"fmt"
	"strings"

	"repro/internal/baselines/chunked"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/serving"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/workload"
)

// ScheduleSeries is the Fig. 12 instrumentation: step series of Bullet's
// serving status, sampled at its scheduling decisions and prefill batch
// starts.
type ScheduleSeries struct {
	PrefillSMs    metrics.Series
	DecodeSMs     metrics.Series
	PrefillTokens metrics.Series // tokens in the running prefill batch
	DecodeBatch   metrics.Series
	Waiting       metrics.Series // requests pending prefill
	Branches      map[string]int // Algorithm 1 arm frequencies
}

// RecordSchedule sets b's Prefill/Decode OnDecision and Prefill
// OnBatchStart hooks, replacing any already set, to fill the returned
// series as the run proceeds. The engine hooks carry what the timeline
// does not: the decode batch size and the queue depth at decision time.
func RecordSchedule(b *core.Bullet) *ScheduleSeries {
	s := &ScheduleSeries{Branches: map[string]int{}}
	record := func(t sim.Time, d sched.Decision) {
		s.PrefillSMs.Add(t, float64(d.PrefillSMs))
		s.DecodeSMs.Add(t, float64(d.DecodeSMs))
		s.Waiting.Add(t, float64(b.Prefill.QueueDepth()))
		s.DecodeBatch.Add(t, float64(b.Decode.BatchSize()))
		s.Branches[d.Branch]++
	}
	b.Prefill.OnDecision = record
	b.Decode.OnDecision = record
	b.Prefill.OnBatchStart = func(t sim.Time, tokens, reqs, waiting int) {
		s.PrefillTokens.Add(t, float64(tokens))
		s.Waiting.Add(t, float64(waiting))
	}
	return s
}

// Figure12Result is the timeline view of §4.3.1: Bullet's dynamic SM
// provisioning, in-flight tokens/batch and pending queue over time, next
// to SGLang-2048's hybrid-batch budget occupancy, on the Azure-Code
// workload.
type Figure12Result struct {
	// Sampled at SampleTimes (unit-typed seconds).
	SampleTimes   []units.Seconds
	PrefillSMs    []float64
	DecodeSMs     []float64
	PrefillTokens []float64
	DecodeBatch   []float64
	Waiting       []float64

	// SGLang-2048 comparison.
	HybridDecodeTokens []float64
	HybridChunkTokens  []float64
	HybridWaiting      []float64

	BulletQueueMean float64
	SGLangQueueMean float64

	BulletSummary metrics.Summary
	SGLangSummary metrics.Summary
}

// Figure12 runs both systems on the same bursty Azure-Code trace and
// samples their internal state on a uniform grid.
func Figure12(rate float64, n int, seed int64, samples int) Figure12Result {
	spec, cfg := Platform()
	d := workload.AzureCode
	trace := workload.GenerateBursty(d, rate, 3, 8, n, seed)

	// Bullet with its serving status recorded.
	envB := serving.NewEnv(spec, cfg, d.Name)
	b := core.New(envB, core.Options{Mode: core.ModeFull})
	tl := RecordSchedule(b)
	resB := envB.Run(b, trace)

	// SGLang-2048 with hybrid batch sampling.
	envS := serving.NewEnv(spec, cfg, d.Name)
	sg := chunked.New(envS, chunked.SGLang2048())
	var hybrid metrics.Series
	var hybridChunk, hybridWait metrics.Series
	sg.OnIteration = func(s chunked.HybridBatchSample) {
		hybrid.Add(s.T, float64(s.DecodeTokens))
		hybridChunk.Add(s.T, float64(s.ChunkTokens))
		hybridWait.Add(s.T, float64(s.Waiting))
	}
	resS := envS.Run(sg, trace)

	horizon := resB.Makespan
	if resS.Makespan > horizon {
		horizon = resS.Makespan
	}
	out := Figure12Result{
		BulletSummary: resB.Summary,
		SGLangSummary: resS.Summary,
	}
	for i := 0; i < samples; i++ {
		out.SampleTimes = append(out.SampleTimes, units.Over(units.Scale(horizon, float64(i)), float64(samples-1)))
	}
	for _, t := range out.SampleTimes {
		out.PrefillSMs = append(out.PrefillSMs, tl.PrefillSMs.At(t))
		out.DecodeSMs = append(out.DecodeSMs, tl.DecodeSMs.At(t))
		out.PrefillTokens = append(out.PrefillTokens, tl.PrefillTokens.At(t))
		out.DecodeBatch = append(out.DecodeBatch, tl.DecodeBatch.At(t))
		out.Waiting = append(out.Waiting, tl.Waiting.At(t))
		out.HybridDecodeTokens = append(out.HybridDecodeTokens, hybrid.At(t))
		out.HybridChunkTokens = append(out.HybridChunkTokens, hybridChunk.At(t))
		out.HybridWaiting = append(out.HybridWaiting, hybridWait.At(t))
	}
	out.BulletQueueMean = resB.Summary.MeanQueue.Float()
	out.SGLangQueueMean = resS.Summary.MeanQueue.Float()
	return out
}

// RenderFigure12 prints the two timelines and the queueing comparison.
func RenderFigure12(r Figure12Result) string {
	header := []string{"t(s)", "pSMs", "dSMs", "pTokens", "dBatch", "waiting", "sg-dec", "sg-chunk", "sg-wait"}
	var cells [][]string
	for i, t := range r.SampleTimes {
		cells = append(cells, []string{
			f1(t.Float()), f1(r.PrefillSMs[i]), f1(r.DecodeSMs[i]), f1(r.PrefillTokens[i]),
			f1(r.DecodeBatch[i]), f1(r.Waiting[i]),
			f1(r.HybridDecodeTokens[i]), f1(r.HybridChunkTokens[i]), f1(r.HybridWaiting[i]),
		})
	}
	var sb strings.Builder
	sb.WriteString("Figure 12: serving status timeline, Azure-Code (Bullet vs SGLang-2048)\n")
	sb.WriteString(table(header, cells))
	ratio := func(a, b float64) float64 {
		if a == 0 {
			return 0
		}
		return b / a
	}
	fmt.Fprintf(&sb, "\nQueue delay: bullet %.3fs, sglang-2048 %.3fs (%.2fx longer)\n",
		r.BulletQueueMean, r.SGLangQueueMean, ratio(r.BulletQueueMean, r.SGLangQueueMean))
	fmt.Fprintf(&sb, "TTFT: bullet %.3fs vs sglang-2048 %.3fs (%.2fx); TPOT %.1fms vs %.1fms (%.2fx)\n",
		r.BulletSummary.MeanTTFT, r.SGLangSummary.MeanTTFT,
		ratio(r.BulletSummary.MeanTTFT.Float(), r.SGLangSummary.MeanTTFT.Float()),
		r.BulletSummary.MeanTPOTMs, r.SGLangSummary.MeanTPOTMs,
		ratio(r.BulletSummary.MeanTPOTMs, r.SGLangSummary.MeanTPOTMs))
	return sb.String()
}
