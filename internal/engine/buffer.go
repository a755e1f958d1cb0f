// Package engine implements Bullet's concurrent execution engine (§3.5):
// decentralized prefill and decode engines that schedule independently,
// exchange status and requests through a shared metadata buffer, and hand
// KV cache over copy-free.
//
// In the paper the two engines are separate OS processes sharing an
// OS-managed CPU buffer and a CUDA-IPC GPU memory pool; here they are two
// actors of one deterministic simulation sharing a kvcache.Pool, with the
// buffer modelling the metadata serialization latency the paper measures
// in Table 3.
package engine

import (
	"fmt"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/units"
)

// Buffer is the shared CPU metadata buffer (§3.5.2). Engines publish
// their status through it, receive migrated requests, and subscribe to
// progress/KV-release events.
type Buffer struct {
	sim *sim.Simulation
	// Latency models the serialization and transfer of request metadata
	// between the engines' processes (Table 3: ~0.21 ms mean).
	Latency sim.Time

	// Status providers registered by the engines.
	prefillStatus func() (sched.PrefillStatus, []sched.WaitingReq)
	decodeStatus  func() sched.DecodeStatus

	// extra is transient fault-injected latency added on top of Latency
	// (a slow or contended metadata buffer).
	extra sim.Time

	prefillSMs int
	decodeSMs  int

	// One-shot subscribers. Each list swaps with its spare on publish, so
	// subscribing and publishing reuse two backing arrays.
	progressWaiters, progressSpare []func()
	kvWaiters, kvSpare             []func()
	freeHandoffs                   []*handoff

	// Decisions counts scheduler decisions routed through the buffer.
	Decisions int
	// Handoffs counts prefill→decode request migrations.
	Handoffs int

	// HostBandwidth is the effective host<->device link used by KV
	// retransfers (0 falls back to DefaultHostBandwidth). In the paper's
	// architecture the shared pool makes a host round-trip the cheap
	// alternative to recomputing an evicted sequence's prefill.
	HostBandwidth units.BytesPerSec
	// KVRetransfers / KVRetransferBytes count recovery retransfers routed
	// through the buffer.
	KVRetransfers     int
	KVRetransferBytes units.Bytes
}

// DefaultHostBandwidth is the fallback host link speed (PCIe 4.0 x16
// practical throughput).
const DefaultHostBandwidth = units.BytesPerSec(25e9)

// NewBuffer creates the shared buffer.
func NewBuffer(s *sim.Simulation, latency sim.Time) *Buffer {
	return &Buffer{sim: s, Latency: latency, prefillSMs: 0, decodeSMs: 0}
}

// RegisterPrefill installs the prefill engine's status provider.
func (b *Buffer) RegisterPrefill(status func() (sched.PrefillStatus, []sched.WaitingReq)) {
	b.prefillStatus = status
}

// RegisterDecode installs the decode engine's status provider.
func (b *Buffer) RegisterDecode(status func() sched.DecodeStatus) {
	b.decodeStatus = status
}

// SetAllocation records the SM split currently in force (R_k).
func (b *Buffer) SetAllocation(prefillSMs, decodeSMs int) {
	b.prefillSMs, b.decodeSMs = prefillSMs, decodeSMs
}

// Allocation returns the SM split currently in force.
func (b *Buffer) Allocation() (prefillSMs, decodeSMs int) {
	return b.prefillSMs, b.decodeSMs
}

// Snapshot assembles the global system state S_k for the scheduler,
// corresponding to the status fetch in Figure 9 (❶/❸). The engines'
// providers fill the state's slices from engine-owned scratch, so a
// snapshot is valid only until the next one: consumers read it within
// one decision (sched.Decide keeps nothing of it) and never retain it.
func (b *Buffer) Snapshot() sched.State {
	st := sched.State{
		Now:        b.sim.Now(),
		PrefillSMs: b.prefillSMs,
		DecodeSMs:  b.decodeSMs,
	}
	if b.prefillStatus != nil {
		st.Prefill, st.Waiting = b.prefillStatus()
	}
	if b.decodeStatus != nil {
		st.Decode = b.decodeStatus()
	}
	b.Decisions++
	return st
}

// SetExtraLatency sets the fault-injected latency added to every
// subsequent handoff (0 restores the healthy buffer).
func (b *Buffer) SetExtraLatency(d sim.Time) {
	if d < 0 {
		panic(fmt.Sprintf("engine: negative extra buffer latency %v", d))
	}
	b.extra = d
}

// ExtraLatency returns the fault-injected latency currently in force.
func (b *Buffer) ExtraLatency() sim.Time { return b.extra }

// Handoff migrates requests from prefill to decode after the metadata
// latency. The KV cache does not move (shared pool); only metadata does.
// The request list is copied, so the caller may reuse reqs at once.
func (b *Buffer) Handoff(reqs []*Req, deliver func([]*Req)) {
	if len(reqs) == 0 {
		return
	}
	b.Handoffs += len(reqs)
	var h *handoff
	if n := len(b.freeHandoffs); n > 0 {
		h = b.freeHandoffs[n-1]
		b.freeHandoffs[n-1] = nil
		b.freeHandoffs = b.freeHandoffs[:n-1]
	} else {
		//lint:ignore hotalloc pool miss: handoffs recycle on delivery, so allocation stops at the peak number in flight
		h = &handoff{b: b}
		//lint:ignore hotalloc bound once per pooled handoff and reused for every delivery it carries
		h.fireFn = h.fire
	}
	h.reqs = append(h.reqs[:0], reqs...)
	h.deliver = deliver
	b.sim.PostAfter(b.Latency+b.extra, h.fireFn)
}

// handoff is one in-flight migration, pooled by the buffer with its
// delivery callback bound once.
type handoff struct {
	b       *Buffer
	reqs    []*Req
	deliver func([]*Req)
	fireFn  func()
}

// fire delivers the migrated requests and recycles the handoff. The
// receiver must not retain the slice (DecodeEngine.Accept copies it).
func (h *handoff) fire() {
	h.deliver(h.reqs)
	clear(h.reqs)
	h.reqs, h.deliver = h.reqs[:0], nil
	//lint:ignore hotalloc free-list growth is bounded by the peak number of handoffs in flight
	h.b.freeHandoffs = append(h.b.freeHandoffs, h)
}

// TransferKV moves a preempted sequence's saved KV bytes back to the
// device through the metadata buffer's host link: the delivery callback
// fires after the buffer latency (plus any fault-injected extra) and the
// wire time of the payload. It returns the total transfer duration.
func (b *Buffer) TransferKV(payload units.Bytes, deliver func()) sim.Time {
	if payload < 0 {
		panic(fmt.Sprintf("engine: negative KV retransfer payload %v", payload))
	}
	bw := b.HostBandwidth
	if bw <= 0 {
		bw = DefaultHostBandwidth
	}
	d := b.Latency + b.extra + payload.Div(bw)
	b.KVRetransfers++
	b.KVRetransferBytes += payload
	b.sim.PostAfter(d, deliver)
	return d
}

// OnPrefillProgress registers a one-shot callback fired at the next
// prefill layer-group completion (used to resume paused decode).
func (b *Buffer) OnPrefillProgress(fn func()) {
	//lint:ignore hotalloc grows to the peak subscriber count; publishes swap it with its spare and keep both capacities
	b.progressWaiters = append(b.progressWaiters, fn)
}

// PublishPrefillProgress wakes progress subscribers.
//
//bullet:hotpath
func (b *Buffer) PublishPrefillProgress() {
	b.publish(&b.progressWaiters, &b.progressSpare)
}

// OnKVRelease registers a one-shot callback fired when KV blocks free up
// (used to retry admission).
func (b *Buffer) OnKVRelease(fn func()) {
	b.kvWaiters = append(b.kvWaiters, fn)
}

// PublishKVRelease wakes KV subscribers.
func (b *Buffer) PublishKVRelease() {
	b.publish(&b.kvWaiters, &b.kvSpare)
}

// publish posts every subscriber in *ws as a zero-delay event and swaps
// the emptied list with *spare: subscriptions made while the posted
// callbacks run land in the spare, never in the list being drained.
func (b *Buffer) publish(ws, spare *[]func()) {
	fire := *ws
	*ws = (*spare)[:0]
	for i, w := range fire {
		b.sim.PostAfter(0, w)
		fire[i] = nil
	}
	*spare = fire[:0]
}
