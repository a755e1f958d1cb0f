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

	progressWaiters []func()
	kvWaiters       []func()

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
func (b *Buffer) Handoff(reqs []*Req, deliver func([]*Req)) {
	if len(reqs) == 0 {
		return
	}
	b.Handoffs += len(reqs)
	b.sim.PostAfter(b.Latency+b.extra, func() { deliver(reqs) })
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
	b.progressWaiters = append(b.progressWaiters, fn)
}

// PublishPrefillProgress wakes progress subscribers.
func (b *Buffer) PublishPrefillProgress() {
	ws := b.progressWaiters
	b.progressWaiters = nil
	for _, w := range ws {
		b.sim.PostAfter(0, w)
	}
}

// OnKVRelease registers a one-shot callback fired when KV blocks free up
// (used to retry admission).
func (b *Buffer) OnKVRelease(fn func()) {
	b.kvWaiters = append(b.kvWaiters, fn)
}

// PublishKVRelease wakes KV subscribers.
func (b *Buffer) PublishKVRelease() {
	ws := b.kvWaiters
	b.kvWaiters = nil
	for _, w := range ws {
		b.sim.PostAfter(0, w)
	}
}
