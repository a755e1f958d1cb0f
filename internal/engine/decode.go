package engine

import (
	"fmt"
	"sort"

	"repro/internal/gpusim"

	"repro/internal/estimator"
	"repro/internal/qos"
	"repro/internal/resource"
	"repro/internal/sched"
	"repro/internal/serving"
	"repro/internal/sim"
	"repro/internal/timeline"
	"repro/internal/units"
)

// DecodeConfig shapes the decode engine. The flags are the ablation
// switches of §4.5.1.
type DecodeConfig struct {
	// DynamicSM applies the scheduler's SM decision; otherwise FixedSMs.
	DynamicSM bool
	FixedSMs  int
	// AllowPause lets the scheduler delay a decode iteration to rescue
	// TTFT (Fig. 8 ❷).
	AllowPause bool
	// MaxBatch caps the decode batch size.
	MaxBatch int
	// CycleOverhead is the CPU cost per iteration (graph launch path).
	CycleOverhead sim.Time
	// MaxPause is the failsafe bound on one pause (the engine normally
	// resumes at the next prefill layer-group sync).
	MaxPause sim.Time
}

// DefaultDecodeConfig returns Bullet's full configuration.
func DefaultDecodeConfig(numSMs int) DecodeConfig {
	return DecodeConfig{
		DynamicSM:     true,
		FixedSMs:      numSMs,
		AllowPause:    true,
		MaxBatch:      256,
		CycleOverhead: 100e-6,
		MaxPause:      20e-3,
	}
}

// DecodeEngine batches decode requests and runs one CUDA-graph step per
// scheduling cycle (§3.3.1), re-deciding its SM allocation each iteration.
type DecodeEngine struct {
	env  *serving.Env
	res  *resource.Manager
	schd *sched.Scheduler
	est  *estimator.Estimator
	buf  *Buffer
	cfg  DecodeConfig

	batch   []*Req
	pending []*Req
	active  bool
	pauses  int
	steps   int

	// stalledUntil holds the iteration chain while a fault-injected hang
	// is in force; stalls counts injected hangs.
	stalledUntil sim.Time
	stalls       int

	// OnDecision observes every scheduling decision.
	OnDecision func(t sim.Time, d sched.Decision)
	// OnStep observes each completed iteration.
	OnStep func(t sim.Time, batch int, stepDur units.Seconds)

	// QoS, when non-nil, is the SLO-feedback controller: it supplies the
	// live decode batch cap (never above MaxBatch), prioritizes batch
	// admission and preemption-victim choice by tenant class, and
	// receives the per-step latency observations that drive the AIMD
	// loop. Nil keeps the legacy behaviour byte for byte.
	QoS *qos.Controller

	// TL, when non-nil, records step spans, pause/decision instants and
	// request lifecycle spans on the shared timeline.
	TL *timeline.Recorder

	// elapsed and generated back the slices of the status snapshot,
	// resliced to [:0] on every call (see Buffer.Snapshot).
	elapsed   []units.Seconds
	generated []int
}

// NewDecodeEngine wires a decode engine.
func NewDecodeEngine(env *serving.Env, res *resource.Manager, schd *sched.Scheduler,
	est *estimator.Estimator, buf *Buffer, cfg DecodeConfig) *DecodeEngine {
	if cfg.MaxBatch <= 0 {
		panic(fmt.Sprintf("engine: invalid decode config %+v", cfg))
	}
	d := &DecodeEngine{env: env, res: res, schd: schd, est: est, buf: buf, cfg: cfg}
	buf.RegisterDecode(d.status)
	return d
}

// Accept receives migrated requests from the prefill engine (via the
// metadata buffer); they join the batch at the next iteration boundary
// (continuous batching).
func (d *DecodeEngine) Accept(reqs []*Req) {
	now := d.env.Sim.Now()
	for _, r := range reqs {
		if r.DecodeStart <= 0 {
			r.DecodeStart = now
		}
	}
	d.pending = append(d.pending, reqs...)
	if !d.active {
		d.active = true
		d.cycle()
	}
}

// BatchSize returns the current decode batch size (joined requests only).
func (d *DecodeEngine) BatchSize() int { return len(d.batch) }

// Pauses returns how many iterations were deliberately delayed.
func (d *DecodeEngine) Pauses() int { return d.pauses }

// Steps returns how many decode iterations completed.
func (d *DecodeEngine) Steps() int { return d.steps }

// Stall hangs the iteration chain for dur of virtual time: the step
// already on the GPU finishes, but no new one launches until the stall
// expires. Requests keep their batch slots and KV.
func (d *DecodeEngine) Stall(dur sim.Time) {
	if dur < 0 {
		panic(fmt.Sprintf("engine: negative decode stall %v", dur))
	}
	d.stalls++
	until := d.env.Sim.Now() + dur
	if until > d.stalledUntil {
		d.stalledUntil = until
	}
}

// Stalls returns how many hangs were injected.
func (d *DecodeEngine) Stalls() int { return d.stalls }

// Preempt evicts decode sequences until at least blocksNeeded KV blocks
// have been freed, choosing victims latest-arrival-first (the request
// that has waited least loses the least work; ID order breaks ties so
// the choice is deterministic). Only sequences that arrived strictly
// after `after` are candidates — older work never yields to newer, which
// makes the preempt/readmit cycle livelock-free: a victim's re-admission
// can never evict the request it was displaced for, it waits for it
// instead. Victims are removed from the batch and
// pending queues, their KV is released back to the pool, and their trail
// records the phases completed so far; the caller owns recovery (re-run,
// retransfer, or shed). Returns the victims, newest first (nil when the
// engine holds nothing).
func (d *DecodeEngine) Preempt(blocksNeeded int, after sim.Time) []*Req {
	if blocksNeeded <= 0 {
		return nil
	}
	cands := make([]*Req, 0, len(d.batch)+len(d.pending))
	for _, r := range d.batch {
		if r.W.Arrival > after {
			cands = append(cands, r)
		}
	}
	for _, r := range d.pending {
		if r.W.Arrival > after {
			cands = append(cands, r)
		}
	}
	// All-or-nothing: if evicting every eligible sequence still cannot
	// cover the deficit, the stuck admission is waiting on older work
	// that preemption may not touch — evicting anything now would destroy
	// in-flight decode progress without unblocking anyone.
	evictable := 0
	for _, r := range cands {
		if r.Seq != nil {
			evictable += r.Seq.Blocks()
		}
	}
	if evictable < blocksNeeded {
		return nil
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if d.QoS != nil && cands[i].Class != cands[j].Class {
			// Tenant-aware victim order: evict best-effort before
			// standard before premium, regardless of arrival.
			return cands[i].Class < cands[j].Class
		}
		if cands[i].W.Arrival > cands[j].W.Arrival {
			return true
		}
		if cands[i].W.Arrival < cands[j].W.Arrival {
			return false
		}
		return cands[i].W.ID > cands[j].W.ID
	})
	now := d.env.Sim.Now()
	victims := make([]*Req, 0, 4)
	freed := 0
	for _, r := range cands {
		if freed >= blocksNeeded {
			break
		}
		if r.Seq == nil {
			continue
		}
		blocks := r.Seq.Blocks()
		if err := d.env.KV.Free(r.Seq); err != nil {
			// Already released by a concurrent recovery path; skip.
			continue
		}
		r.Seq = nil
		freed += blocks
		r.RecordPreemption(now)
		if d.TL != nil {
			d.TL.Instant("decode", "preempt", now,
				timeline.S("req", r.W.ID),
				timeline.I("blocks", blocks),
				timeline.I("generated", r.Generated))
		}
		victims = append(victims, r)
	}
	if len(victims) == 0 {
		return nil
	}
	evicted := func(r *Req) bool {
		for _, v := range victims {
			if v == r {
				return true
			}
		}
		return false
	}
	keepB := d.batch[:0]
	for _, r := range d.batch {
		if !evicted(r) {
			keepB = append(keepB, r)
		}
	}
	d.batch = keepB
	keepP := d.pending[:0]
	for _, r := range d.pending {
		if !evicted(r) {
			keepP = append(keepP, r)
		}
	}
	d.pending = keepP
	d.buf.PublishKVRelease()
	return victims
}

// status is the buffer's decode state provider. The returned slices
// alias engine scratch that the next call overwrites.
func (d *DecodeEngine) status() sched.DecodeStatus {
	now := d.env.Sim.Now()
	ds := sched.DecodeStatus{Batch: len(d.batch)}
	d.elapsed, d.generated = d.elapsed[:0], d.generated[:0]
	ctx := 0
	for _, r := range d.batch {
		d.elapsed = append(d.elapsed, now-r.FirstToken)
		d.generated = append(d.generated, r.Generated)
		ctx += r.Ctx()
	}
	ds.Elapsed, ds.Generated = d.elapsed, d.generated
	if len(d.batch) > 0 {
		ds.AvgCtx = units.Tokens(float64(ctx) / float64(len(d.batch)))
	}
	return ds
}

func (d *DecodeEngine) avgCtx() units.Tokens {
	if len(d.batch) == 0 {
		return 0
	}
	ctx := 0
	for _, r := range d.batch {
		ctx += r.Ctx()
	}
	return units.Tokens(float64(ctx) / float64(len(d.batch)))
}

// decide runs one scheduling cycle with the engine's overrides applied.
func (d *DecodeEngine) decide() sched.Decision {
	dec := d.schd.Decide(d.buf.Snapshot())
	if !d.cfg.DynamicSM {
		dec.DecodeSMs = d.cfg.FixedSMs
		pm, _ := d.buf.Allocation()
		if pm > 0 {
			dec.PrefillSMs = pm
		}
	}
	if !d.cfg.AllowPause {
		dec.PauseDecode = false
	}
	d.buf.SetAllocation(dec.PrefillSMs, dec.DecodeSMs)
	if d.OnDecision != nil {
		d.OnDecision(d.env.Sim.Now(), dec)
	}
	if d.TL != nil {
		emitDecision(d.TL, d.env.Sim.Now(), dec)
	}
	return dec
}

// cycle runs one decode iteration: admit, decide, (maybe pause), launch.
func (d *DecodeEngine) cycle() {
	if wait := d.stalledUntil - d.env.Sim.Now(); wait > 0 {
		// The chain stays active (exactly one pending continuation) and
		// resumes when the stall expires.
		d.env.Sim.PostAfter(wait, d.cycle)
		return
	}
	maxBatch := d.cfg.MaxBatch
	if d.QoS != nil {
		if c := d.QoS.DecodeCap(); c < maxBatch {
			maxBatch = c
		}
		// Admit premium classes first when the controller's cap forces a
		// choice (stable insertion sort: arrival order within a class is
		// preserved, and queues are admission-bounded and short).
		for i := 1; i < len(d.pending); i++ {
			r := d.pending[i]
			j := i - 1
			for j >= 0 && d.pending[j].Class < r.Class {
				d.pending[j+1] = d.pending[j]
				j--
			}
			d.pending[j+1] = r
		}
	}
	for len(d.pending) > 0 && len(d.batch) < maxBatch {
		d.batch = append(d.batch, d.pending[0])
		d.pending = d.pending[1:]
	}
	if len(d.batch) == 0 {
		d.active = false
		return
	}
	dec := d.decide()
	if dec.PauseDecode {
		d.pauses++
		if d.TL != nil {
			d.TL.Instant("decode", "pause", d.env.Sim.Now(),
				timeline.I("batch", len(d.batch)))
		}
		woken := false
		wake := func() {
			if woken {
				return
			}
			woken = true
			d.cycle()
		}
		// Resume at the next prefill layer-group sync, or after the
		// failsafe bound, whichever first.
		d.buf.OnPrefillProgress(wake)
		d.env.Sim.PostAfter(d.cfg.MaxPause, wake)
		return
	}

	stream := d.res.Stream(resource.Decode, dec.DecodeSMs)
	dm := stream.Mask().Count()
	bs := len(d.batch)
	ctx := d.avgCtx()
	colocated := true // conservatively assume overlap for the prediction
	predicted := d.est.DecodeStepTime(bs, ctx, dm, colocated)
	step := d.env.Model.DecodeStepKernel(bs, ctx, "decode")
	d.env.GPU.Launch(stream, step, func(rec gpusim.KernelRecord) {
		d.est.ObserveDecode(predicted, rec.Duration())
		d.steps++
		now := d.env.Sim.Now()
		if d.OnStep != nil {
			d.OnStep(now, bs, rec.Duration())
		}
		if d.QoS != nil {
			// Feed the live TPOT signal: this step is the latency every
			// batched request just paid per token.
			d.QoS.ObserveStep(now, bs, rec.Duration(), d.env.KV.Occupancy())
		}
		if d.TL != nil {
			d.TL.Span("decode", "step", rec.Start, rec.End,
				timeline.I("batch", bs),
				timeline.F("avgCtx", ctx.Float()))
		}
		kept := d.batch[:0]
		released := false
		for _, r := range d.batch {
			r.Generated++
			if d.QoS != nil {
				d.QoS.AddDecode(r.Class)
			}
			if r.Generated >= r.W.OutputTokens {
				r.Finish = now
				r.ReleasePrefix()
				d.env.KV.MustFree(r.Seq)
				r.EmitLifecycle(d.TL)
				d.env.Complete(r.Record())
				released = true
				continue
			}
			kept = append(kept, r)
		}
		d.batch = kept
		if released {
			d.buf.PublishKVRelease()
		}
		d.env.Sim.PostAfter(d.cfg.CycleOverhead, d.cycle)
	})
}
