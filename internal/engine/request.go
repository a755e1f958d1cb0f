package engine

import (
	"math"

	"repro/internal/kvcache"
	"repro/internal/metrics"
	"repro/internal/qos"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/timeline"
	"repro/internal/workload"
)

// Req is the engine-side state of one request across its lifecycle.
type Req struct {
	W   workload.Request
	Seq *kvcache.Sequence

	// Class is the QoS tenant class derived from W.Tenant at submission
	// (Standard for untagged requests), cached so hot paths never
	// re-parse the tag.
	Class qos.Class

	PrefillStart sim.Time
	FirstToken   sim.Time
	// DecodeStart is when the decode engine first stepped the request —
	// zero until then; the gap after FirstToken is the KV-transfer /
	// hand-off delay.
	DecodeStart sim.Time
	Finish      sim.Time
	// Generated counts emitted output tokens (the prefill's first token
	// included).
	Generated int

	// PrefixHit is how many input tokens were served from the shared
	// prefix cache (0 without a cache or on a miss); PrefixRelease
	// unpins the cached prefix and must run exactly once at completion.
	PrefixHit     int
	PrefixRelease func()

	// Retries counts watchdog-initiated re-executions after aborted
	// prefill batches; the core sheds the request once it exceeds the
	// watchdog's budget.
	Retries int

	// Preemptions counts memory-pressure evictions from the decode
	// engine; the pressure policy sheds the request once it exceeds K.
	Preemptions int
	// Deferrals counts admissions pushed back by the pressure gate.
	Deferrals int
	// Trail is the request's pre-preemption history: the lifecycle phases
	// it completed before each eviction, in order, so EmitLifecycle can
	// replay the full queued→prefill→…→preempted→…→decode chain. Empty
	// for requests never preempted (the common case keeps the original
	// emission path, byte for byte).
	Trail []TrailSpan
}

// TrailSpan is one completed lifecycle phase of a preempted request.
type TrailSpan struct {
	Name       string
	Start, End sim.Time
	// Open marks the in-progress "preempted" phase; CloseTrail seals it.
	Open bool
}

// ReleasePrefix unpins the request's cached prefix, if any.
func (r *Req) ReleasePrefix() {
	if r.PrefixRelease != nil {
		r.PrefixRelease()
		r.PrefixRelease = nil
	}
}

// NewTokens returns the prefill tokens actually computed (input minus the
// cached prefix).
func (r *Req) NewTokens() int { return r.W.InputTokens - r.PrefixHit }

// AppendTrail records a completed lifecycle phase, clamping its start to
// the trail's current end so replayed spans always abut; spans that clamp
// to nothing are dropped.
func (r *Req) AppendTrail(name string, start, end sim.Time) {
	if n := len(r.Trail); n > 0 && start < r.Trail[n-1].End {
		start = r.Trail[n-1].End
	}
	if end <= start {
		return
	}
	r.Trail = append(r.Trail, TrailSpan{Name: name, Start: start, End: end})
}

// RecordPreemption snapshots the phases completed so far into the trail
// and opens a "preempted" phase at now. The recovery path must seal it
// with CloseTrail when the request re-enters service (the recompute
// prefill launches, or the KV retransfer begins).
func (r *Req) RecordPreemption(now sim.Time) {
	r.AppendTrail("queued", r.W.Arrival, r.PrefillStart)
	r.AppendTrail("prefill", r.PrefillStart, r.FirstToken)
	if r.DecodeStart > 0 {
		r.AppendTrail("kv-transfer", r.FirstToken, r.DecodeStart)
		r.AppendTrail("decode", r.DecodeStart, now)
	}
	r.Trail = append(r.Trail, TrailSpan{Name: "preempted", Start: now, End: now, Open: true})
	r.Preemptions++
}

// CloseTrail seals an open "preempted" phase at t (no-op otherwise), so
// the preempted span abuts the phase that follows it.
func (r *Req) CloseTrail(t sim.Time) {
	n := len(r.Trail)
	if n == 0 || !r.Trail[n-1].Open {
		return
	}
	if t > r.Trail[n-1].Start {
		r.Trail[n-1].End = t
	}
	r.Trail[n-1].Open = false
}

// Ctx returns the request's current context length (input plus generated
// output), the quantity decode attention reads.
func (r *Req) Ctx() int { return r.W.InputTokens + r.Generated }

// Record converts the request to its metrics record.
func (r *Req) Record() metrics.Request {
	return metrics.Request{
		ID:           r.W.ID,
		Dataset:      r.W.Dataset,
		Arrival:      r.W.Arrival,
		PrefillStart: r.PrefillStart,
		FirstToken:   r.FirstToken,
		DecodeStart:  r.DecodeStart,
		Finish:       r.Finish,
		InputTokens:  r.W.InputTokens,
		OutputTokens: r.W.OutputTokens,
		Tenant:       r.W.Tenant,
	}
}

// EmitLifecycle records the request's phases — queued → prefill →
// kv-transfer → decode — as async spans correlated by request ID on the
// "requests" lane. Called once at completion; Recorder.Events() folds
// the retrospective spans back into timeline order. No-op on a nil
// recorder.
func (r *Req) EmitLifecycle(tl *timeline.Recorder) {
	if tl == nil {
		return
	}
	id := r.W.ID
	if len(r.Trail) == 0 {
		// The tenant tag rides on the queued span only when present, so
		// single-tenant traces keep their golden timelines byte for byte.
		if r.W.Tenant != "" {
			tl.AsyncSpan("requests", "queued", id, r.W.Arrival, r.PrefillStart,
				timeline.S("dataset", r.W.Dataset),
				timeline.I("inputTokens", r.W.InputTokens),
				timeline.S("tenant", r.W.Tenant))
		} else {
			tl.AsyncSpan("requests", "queued", id, r.W.Arrival, r.PrefillStart,
				timeline.S("dataset", r.W.Dataset),
				timeline.I("inputTokens", r.W.InputTokens))
		}
		tl.AsyncSpan("requests", "prefill", id, r.PrefillStart, r.FirstToken,
			timeline.I("prefixHit", r.PrefixHit),
			timeline.I("retries", r.Retries))
		if 0 < r.DecodeStart {
			tl.AsyncSpan("requests", "kv-transfer", id, r.FirstToken, r.DecodeStart)
			tl.AsyncSpan("requests", "decode", id, r.DecodeStart, r.Finish,
				timeline.I("outputTokens", r.W.OutputTokens))
		}
		return
	}
	// Preempted at least once: replay the recorded history, then the final
	// run from where the trail left off. AppendTrail's clamping plus the
	// CloseTrail seal guarantee the chain abuts span to span.
	for i, s := range r.Trail {
		if i == 0 && s.Name == "queued" {
			if r.W.Tenant != "" {
				tl.AsyncSpan("requests", s.Name, id, s.Start, s.End,
					timeline.S("dataset", r.W.Dataset),
					timeline.I("inputTokens", r.W.InputTokens),
					timeline.S("tenant", r.W.Tenant))
			} else {
				tl.AsyncSpan("requests", s.Name, id, s.Start, s.End,
					timeline.S("dataset", r.W.Dataset),
					timeline.I("inputTokens", r.W.InputTokens))
			}
			continue
		}
		if s.Name == "preempted" {
			tl.AsyncSpan("requests", s.Name, id, s.Start, s.End,
				timeline.I("preemptions", r.Preemptions))
			continue
		}
		tl.AsyncSpan("requests", s.Name, id, s.Start, s.End)
	}
	last := r.Trail[len(r.Trail)-1].End
	if r.PrefillStart >= last && r.FirstToken > r.PrefillStart {
		// Recompute recovery: the request re-ran prefill after the trail.
		tl.AsyncSpan("requests", "prefill", id, r.PrefillStart, r.FirstToken,
			timeline.I("prefixHit", r.PrefixHit),
			timeline.I("retries", r.Retries))
		if 0 < r.DecodeStart {
			tl.AsyncSpan("requests", "kv-transfer", id, r.FirstToken, r.DecodeStart)
			tl.AsyncSpan("requests", "decode", id, r.DecodeStart, r.Finish,
				timeline.I("outputTokens", r.W.OutputTokens))
		}
		return
	}
	if r.DecodeStart >= last && r.Finish > r.DecodeStart {
		// Retransfer recovery: decode resumed directly on the restored KV.
		tl.AsyncSpan("requests", "decode", id, r.DecodeStart, r.Finish,
			timeline.I("outputTokens", r.W.OutputTokens))
	}
}

// emitDecision records one Algorithm-1 scheduling decision: an instant
// named after the branch taken plus an allocation counter. The P90
// predictions the decision was based on are attached only when finite
// (the scheduler reports NaN when it had no candidates to predict).
//
//bullet:hotpath-ignore runs only with a timeline recorder attached, which allocates its export by design
func emitDecision(tl *timeline.Recorder, now sim.Time, d sched.Decision) {
	args := make([]timeline.Arg, 0, 5)
	args = append(args,
		timeline.I("prefillSMs", d.PrefillSMs),
		timeline.I("decodeSMs", d.DecodeSMs),
		timeline.B("pauseDecode", d.PauseDecode))
	if !math.IsNaN(d.PredNormTTFT) && !math.IsInf(d.PredNormTTFT, 0) {
		args = append(args, timeline.F("predNormTTFT", d.PredNormTTFT))
	}
	if !math.IsNaN(d.PredTPOTMs) && !math.IsInf(d.PredTPOTMs, 0) {
		args = append(args, timeline.F("predTPOTMs", d.PredTPOTMs))
	}
	tl.Instant("sched", d.Branch, now, args...)
	tl.Counter("sched", "alloc", now,
		timeline.I("prefillSMs", d.PrefillSMs),
		timeline.I("decodeSMs", d.DecodeSMs))
}
