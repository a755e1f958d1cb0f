// Package gpusim is a fluid-rate discrete-event simulator of a modern GPU,
// the hardware substrate this reproduction substitutes for the paper's
// A100 (see DESIGN.md §1).
//
// The model captures exactly the effects Bullet's design reasons about:
//
//   - SM-masked streams (libsmctrl-style): kernels only occupy the SMs of
//     their stream's mask, captured at launch time.
//   - Wave quantization (Eq. 1): a kernel's compute-limited time is
//     inflated by the idle tail of its final wave.
//   - Roofline execution: each kernel is a fluid with FLOPs and bytes;
//     its solo rate is limited by both the compute of its SM allocation
//     and the bandwidth reachable from that many SMs (sub-linear compute,
//     super-linear bandwidth scaling, Fig. 7).
//   - Concurrency: overlapping masks split per-SM compute; total HBM
//     bandwidth is shared max–min fairly among resident kernels; co-runs
//     pay interference factors (p_c, p_b).
//
// Rates are recomputed at every kernel start/finish, and completion events
// rescheduled, so arbitrary spatial-temporal overlap is modelled without
// fixed time steps.
package gpusim

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/sim"
	"repro/internal/smmask"
	"repro/internal/timeline"
	"repro/internal/units"
)

// Kernel describes one unit of GPU work.
type Kernel struct {
	// Name appears in traces ("qkv", "attn-prefill", ...).
	Name string
	// FLOPs is the arithmetic work of the kernel.
	FLOPs units.FLOPs
	// Bytes is the DRAM traffic of the kernel.
	Bytes units.Bytes
	// Grid is the number of thread blocks; it drives wave quantization.
	// Zero means the work has no quantized shape (no tail-wave penalty).
	Grid int
	// Efficiency is the fraction of the device peak FLOPs this kernel
	// can sustain even in the best case (cuBLAS GEMM ≈ 0.92, paged
	// attention much lower). Zero defaults to 1.
	Efficiency float64
	// Tag groups kernels for utilization accounting ("prefill",
	// "decode", ...).
	Tag string
	// Tokens is the operator's size coordinate for profile-driven latency
	// tables (the sampled backend): new tokens for prefill operators,
	// attended context for prefill attention, batch rows for decode.
	// Zero means unindexed; the analytic backend ignores it entirely.
	Tokens int
	// CommBytes is interconnect traffic (tensor-parallel allreduce):
	// it adds a LinkBW-limited term to the kernel's roofline.
	CommBytes units.Bytes
	// Graph marks the kernel as part of a captured CUDA graph: it pays
	// no per-kernel launch overhead (the graph launch is paid by the
	// first kernel carrying GraphHead).
	Graph bool
	// GraphHead marks the first kernel of a graph launch.
	GraphHead bool
}

type launch struct {
	k      Kernel
	done   func(KernelRecord)
	stream *Stream

	// Running state.
	running   bool
	mask      smmask.Mask
	maskCount int
	remaining float64      // fraction of the kernel still to execute, in (0,1]
	rate      units.PerSec // fraction per second under the current regime
	startTime sim.Time
	overhead  sim.Time // launch overhead still to elapse before running
	// complete is the launch's completion event: allocated at its first
	// arming, then moved with Reschedule while pending and re-armed
	// with Rearm after it fires, for every kernel the pooled launch
	// carries.
	complete *sim.Event
	// weight is the kernel's compute intensity in [minComputeWeight, 1]:
	// how much of an SM's issue bandwidth it consumes. Memory-bound
	// kernels stall on DRAM and leave most compute cycles to co-resident
	// compute-bound kernels, which is what makes spatial prefill/decode
	// sharing profitable in the first place (§2.2.2).
	weight float64
	// scale is a backend-owned rate multiplier fixed at Begin time (1 for
	// the analytic model; the ratio of modelled to sampled latency for the
	// sampled backend).
	scale float64

	// meff, ov and occ cache the kernel's compute share (effectiveSMs),
	// SM-overlap fraction (overlapFraction) and health-weighted occupancy
	// (maskHealth of its mask) under the current resident set. recompute
	// refreshes them before anything reads them; they stay valid until
	// the next recompute because residency and SM health change only
	// through recompute (DESIGN.md §4).
	meff units.SMs
	ov   float64
	occ  float64

	// finishFn and beginFn are finish(l) and beginResident(l), bound once
	// when the launch is first allocated and reused every time the pool
	// hands it out again.
	finishFn func()
	beginFn  func()
}

// demand is one resident kernel's bandwidth request in recompute's
// max–min water-filling.
type demand struct {
	l       *launch
	nominal units.PerSec
	bytes   units.BytesPerSec // bytes/s at nominal rate
	volume  units.Bytes       // effective DRAM bytes per execution
}

// demandByBytes orders demands by bandwidth. It reports "less" exactly
// where the comparator `a.bytes < b.bytes` did, so slices.SortFunc (the
// same pdqsort as sort.Slice) resolves ties identically.
func demandByBytes(a, b demand) int {
	switch {
	case a.bytes < b.bytes:
		return -1
	case b.bytes < a.bytes:
		return 1
	}
	return 0
}

// maxCoverKernels is the most resident kernels the per-SM cover bitsets
// can index; beyond it cacheShares falls back to the per-kernel loops.
const maxCoverKernels = 64

// minComputeWeight keeps even pure-copy kernels consuming some issue
// slots.
const minComputeWeight = 0.05

// KernelRecord summarises one executed kernel for tracing and accounting.
type KernelRecord struct {
	Name     string
	Tag      string
	Start    sim.Time
	End      sim.Time
	SMs      int
	FLOPs    units.FLOPs
	Bytes    units.Bytes
	Grid     int
	WaveIdle float64 // idle ratio under the mask it actually ran on
}

// Duration returns the wall-clock execution time of the kernel.
func (r KernelRecord) Duration() sim.Time { return r.End - r.Start }

// Stream is a FIFO queue of kernels bound to an SM mask, the simulated
// equivalent of a CUDA stream with an smctrl mask.
type Stream struct {
	gpu   *GPU
	id    int
	mask  smmask.Mask
	queue []*launch
	// waiters fire when the stream drains.
	waiters []func()
}

// ID returns the stream's identifier on its GPU.
func (st *Stream) ID() int { return st.id }

// Mask returns the mask applied to subsequently launched kernels.
func (st *Stream) Mask() smmask.Mask { return st.mask }

// SetMask changes the mask for subsequently launched kernels. Kernels
// already running keep the mask they started with, matching
// libsmctrl_set_stream_mask semantics.
func (st *Stream) SetMask(m smmask.Mask) {
	if m.IsEmpty() {
		panic("gpusim: empty SM mask")
	}
	st.mask = m
}

// Busy reports whether the stream has queued or running work.
func (st *Stream) Busy() bool { return len(st.queue) > 0 }

// Depth returns the number of queued (including running) kernels.
func (st *Stream) Depth() int { return len(st.queue) }

// GPU is a simulated device. All methods must be called from the owning
// simulation's event loop (single-threaded).
type GPU struct {
	Spec Spec
	sim  *sim.Simulation

	streams []*Stream
	running []*launch

	// backend is the per-kernel latency model (never nil; analytic by
	// default). See backend.go for the contract.
	backend LatencyBackend

	// health is the per-SM speed factor in [0,1]: 1 healthy, 0 dead,
	// between the two throttled (thermal/ECC degradation). nil means the
	// whole device is healthy — the common case keeps its fast paths.
	health []float64

	lastUpdate sim.Time

	// Accounting integrals.
	flopsDone   units.FLOPs
	bytesDone   units.Bytes
	smBusyTime  units.SMSeconds // ∫ Σ_i m_eff_i dt  (SM·seconds of occupancy)
	anyBusyTime sim.Time        // wall time with ≥1 resident kernel
	lastAnyBusy bool
	tagFlops    map[string]units.FLOPs
	tagBytes    map[string]units.Bytes
	tagTime     map[string]units.SMSeconds // SM·seconds per tag

	// Trace receives a record per completed kernel when non-nil.
	Trace func(KernelRecord)

	// Sampler, when non-nil, is called at every rate recomputation with
	// the instantaneous utilization, enabling timeline figures.
	Sampler func(t sim.Time, u Utilization)

	// TL, when non-nil, records per-kernel spans (one lane per stream)
	// and occupancy/throughput counter samples on the shared timeline.
	TL *timeline.Recorder

	// Scratch of the launch → re-rate → finish cycle, owned per GPU (never
	// package-level, so fork/join replicas share nothing) and reused so
	// the steady state allocates nothing: finished launches wait in
	// freeLaunches for the next Launch, demands holds recompute's
	// water-filling rows, and cover[i] is the bitset of resident kernels
	// (indices into running) whose masks contain SM i.
	freeLaunches []*launch
	demands      []demand
	cover        [smmask.MaxSMs]uint64
}

// Utilization is an instantaneous snapshot of device activity.
type Utilization struct {
	// Compute is achieved FLOP rate / peak FLOPs.
	Compute float64
	// Bandwidth is achieved byte rate / peak bandwidth.
	Bandwidth float64
	// BusySMs is the number of SMs occupied by resident kernels.
	BusySMs units.SMs
	// Resident is the number of kernels currently executing.
	Resident int
}

// New creates a GPU attached to the simulation.
func New(s *sim.Simulation, spec Spec) *GPU {
	if spec.NumSMs <= 0 || spec.NumSMs > smmask.MaxSMs {
		panic(fmt.Sprintf("gpusim: invalid NumSMs %d", spec.NumSMs))
	}
	return &GPU{
		Spec:     spec,
		sim:      s,
		backend:  AnalyticBackend{},
		tagFlops: make(map[string]units.FLOPs),
		tagBytes: make(map[string]units.Bytes),
		tagTime:  make(map[string]units.SMSeconds),
	}
}

// Backend returns the active latency backend.
func (g *GPU) Backend() LatencyBackend { return g.backend }

// SetBackend swaps the latency backend. This is a setup-time operation:
// swapping while kernels are resident would re-rate in-flight work under
// a different model, so it panics instead.
func (g *GPU) SetBackend(b LatencyBackend) {
	if b == nil {
		b = AnalyticBackend{}
	}
	if len(g.running) > 0 {
		panic(fmt.Sprintf("gpusim: SetBackend(%s) with %d resident kernels", b.Name(), len(g.running)))
	}
	g.backend = b
}

// Sim returns the owning simulation.
func (g *GPU) Sim() *sim.Simulation { return g.sim }

// FullMask returns the mask covering every SM of the device.
func (g *GPU) FullMask() smmask.Mask { return smmask.Full(g.Spec.NumSMs) }

// deadDrainSMs is the effective compute granted to a kernel whose whole
// mask has failed: in-flight work on dead SMs drains at a trickle (the
// context-save / ECC-retire path) instead of deadlocking the simulation
// with a zero rate.
const deadDrainSMs = 0.5

// SetSMHealth sets the health of SMs [first, first+n) to h: 1 fully
// healthy, 0 dead, values between throttled. Resident kernels see their
// rates change immediately, but keep the masks they launched with — a
// failed SM does not migrate its thread blocks, they crawl (or stall at
// the deadDrainSMs floor) until the kernel retires, which is exactly why
// the layers above must rebuild masks around dead SMs.
func (g *GPU) SetSMHealth(first, n int, h float64) {
	if first < 0 || n <= 0 || first+n > g.Spec.NumSMs {
		panic(fmt.Sprintf("gpusim: SM health range [%d,%d) outside device of %d SMs",
			first, first+n, g.Spec.NumSMs))
	}
	if h < 0 || h > 1 || math.IsNaN(h) {
		panic(fmt.Sprintf("gpusim: SM health %v outside [0,1]", h))
	}
	g.advance()
	if g.health == nil {
		g.health = make([]float64, g.Spec.NumSMs)
		for i := range g.health {
			g.health[i] = 1
		}
	}
	for i := first; i < first+n; i++ {
		g.health[i] = h
	}
	g.recompute()
}

// SMHealth returns the health of SM i.
func (g *GPU) SMHealth(i int) float64 {
	if i < 0 || i >= g.Spec.NumSMs {
		panic(fmt.Sprintf("gpusim: SM index %d outside device of %d SMs", i, g.Spec.NumSMs))
	}
	if g.health == nil {
		return 1
	}
	return g.health[i]
}

// HealthyMask returns the set of SMs with nonzero health.
func (g *GPU) HealthyMask() smmask.Mask {
	if g.health == nil {
		return g.FullMask()
	}
	var m smmask.Mask
	for i, h := range g.health {
		if h > 0 {
			m.Set(i)
		}
	}
	return m
}

// HealthyCapacity returns the summed health of the device — the
// fractional SM count it can actually deliver.
func (g *GPU) HealthyCapacity() units.SMs {
	return units.SMs(g.maskHealth(g.FullMask()))
}

// maskHealth returns the summed health of the SMs in a mask — the
// capacity the mask delivers. With a fully healthy device this is the
// mask's population count, bit for bit.
func (g *GPU) maskHealth(m smmask.Mask) float64 {
	if g.health == nil {
		return float64(m.Count())
	}
	total := 0.0
	for w, word := range m {
		for ; word != 0; word &= word - 1 {
			total += g.health[w<<6|bits.TrailingZeros64(word)]
		}
	}
	return total
}

// NewStream creates a stream with the given mask. Stream creation is a
// setup-time operation: steady-state rebuilds retarget existing streams
// via SetMask, so the allocations here run at most once per
// (phase, level) pair.
//
//bullet:hotpath-ignore stream creation is setup-time; rebuilds retarget existing streams in place
func (g *GPU) NewStream(mask smmask.Mask) *Stream {
	if mask.IsEmpty() {
		panic("gpusim: empty SM mask")
	}
	st := &Stream{gpu: g, id: len(g.streams), mask: mask}
	g.streams = append(g.streams, st)
	return st
}

// Launch enqueues a kernel on a stream. done (optional) fires when the
// kernel completes, receiving its execution record.
//
//bullet:hotpath
func (g *GPU) Launch(st *Stream, k Kernel, done func(KernelRecord)) {
	if k.FLOPs < 0 || k.Bytes < 0 || k.CommBytes < 0 ||
		(k.FLOPs == 0 && k.Bytes == 0 && k.CommBytes == 0) {
		panic(fmt.Sprintf("gpusim: kernel %q has no work", k.Name))
	}
	l := g.newLaunch()
	*l = launch{k: k, done: done, stream: st,
		complete: l.complete, finishFn: l.finishFn, beginFn: l.beginFn}
	//lint:ignore hotalloc queue growth is amortized; finish pops by shifting, so the capacity is reused
	st.queue = append(st.queue, l)
	if len(st.queue) == 1 {
		g.startHead(st)
	}
}

// newLaunch takes a launch from the GPU's free list. On a miss it
// allocates one and binds its callbacks; a GPU never holds more launches
// than it ever had queued at once, so misses stop once the queues have
// reached their working depth.
func (g *GPU) newLaunch() *launch {
	if n := len(g.freeLaunches); n > 0 {
		l := g.freeLaunches[n-1]
		g.freeLaunches[n-1] = nil
		g.freeLaunches = g.freeLaunches[:n-1]
		return l
	}
	//lint:ignore hotalloc pool miss: launches are recycled by finish, so allocation stops at the peak queued depth
	l := &launch{}
	//lint:ignore hotalloc bound once per pooled launch and reused for every kernel it carries
	l.finishFn = func() { g.finish(l) }
	//lint:ignore hotalloc bound once per pooled launch and reused for every kernel it carries
	l.beginFn = func() { g.beginResident(l) }
	return l
}

// Synchronize invokes fn once every kernel currently queued on the stream
// has completed. If the stream is idle, fn fires at the current time (as a
// fresh event, never inline).
func (g *GPU) Synchronize(st *Stream, fn func()) {
	if !st.Busy() {
		g.sim.PostAfter(0, fn)
		return
	}
	st.waiters = append(st.waiters, fn)
}

// startHead begins executing the kernel at the head of a stream's queue.
func (g *GPU) startHead(st *Stream) {
	l := st.queue[0]
	l.mask = st.mask
	l.maskCount = st.mask.Count()
	l.remaining = 1
	l.overhead = g.launchCost(l.k)
	if l.overhead > 0 {
		// CPU launch gap: the kernel becomes resident after the
		// overhead elapses.
		g.sim.PostAfter(l.overhead, l.beginFn)
		return
	}
	g.beginResident(l)
}

func (g *GPU) launchCost(k Kernel) sim.Time {
	switch {
	case k.GraphHead:
		return g.Spec.GraphLaunchOverhead
	case k.Graph:
		return 0
	default:
		return g.Spec.LaunchOverhead
	}
}

func (g *GPU) beginResident(l *launch) {
	g.advance()
	l.running = true
	l.startTime = g.sim.Now()
	l.weight = g.computeIntensity(l.k)
	l.scale = 1
	g.backend.Begin(g, l)
	//lint:ignore hotalloc resident-set growth is amortized; finish removes in place, so the capacity is reused
	g.running = append(g.running, l)
	g.recompute()
}

// computeIntensity estimates how compute-bound a kernel is: the fraction
// of its roofline time attributable to arithmetic.
func (g *GPU) computeIntensity(k Kernel) float64 {
	eff := k.Efficiency
	if eff == 0 {
		eff = 1
	}
	ct := k.FLOPs.Div(units.Scale(g.Spec.PeakFLOPS, eff))
	bt := k.Bytes.Div(g.Spec.PeakBW)
	if ct+bt == 0 {
		return minComputeWeight
	}
	q := units.Ratio(ct, ct+bt)
	if q < minComputeWeight {
		q = minComputeWeight
	}
	return q
}

// finish completes a running kernel: pops it from its stream, fires its
// callback, and starts the next queued kernel if any. The launch goes
// back to the GPU's free list before the callback runs, so a callback
// that launches again reuses it.
//
//bullet:hotpath
func (g *GPU) finish(l *launch) {
	g.advance()
	l.remaining = 0
	l.running = false
	for i, r := range g.running {
		if r == l {
			n := i + copy(g.running[i:], g.running[i+1:])
			g.running[n] = nil
			g.running = g.running[:n]
			break
		}
	}
	st := l.stream
	if len(st.queue) == 0 || st.queue[0] != l {
		panic("gpusim: finished kernel is not at stream head")
	}
	// Shift instead of re-slicing, so the queue's backing array keeps its
	// capacity for later appends.
	n := copy(st.queue, st.queue[1:])
	st.queue[n] = nil
	st.queue = st.queue[:n]

	rec := KernelRecord{
		Name:     l.k.Name,
		Tag:      l.k.Tag,
		Start:    l.startTime,
		End:      g.sim.Now(),
		SMs:      l.maskCount,
		FLOPs:    l.k.FLOPs,
		Bytes:    l.k.Bytes,
		Grid:     l.k.Grid,
		WaveIdle: WaveIdleRatio(l.k.Grid, l.maskCount),
	}
	if g.Trace != nil {
		g.Trace(rec)
	}
	if g.TL != nil {
		g.emitKernelSpan(st, l, rec)
	}

	// Start the next kernel before callbacks so back-to-back kernels do
	// not see a spurious idle gap.
	if len(st.queue) > 0 {
		g.startHead(st)
	} else if len(st.waiters) > 0 {
		// Waiters are posted, never run inline, so the slice can be
		// cleared and kept for the next Synchronize.
		for i, w := range st.waiters {
			g.sim.PostAfter(0, w)
			st.waiters[i] = nil
		}
		st.waiters = st.waiters[:0]
	}
	g.recompute()
	done := l.done
	l.done, l.stream = nil, nil
	//lint:ignore hotalloc free-list growth is bounded by the launches ever allocated; steady state reuses capacity
	g.freeLaunches = append(g.freeLaunches, l)
	if done != nil {
		done(rec)
	}
}

// emitKernelSpan records one completed kernel on its stream's timeline
// lane, annotated with achieved rates and contention at completion.
// Called after l leaves g.running, so overlapFraction measures the SMs
// still contended by other kernels.
//
//bullet:hotpath-ignore runs only with a timeline recorder attached, which allocates its export by design
func (g *GPU) emitKernelSpan(st *Stream, l *launch, rec KernelRecord) {
	dur := rec.Duration()
	args := make([]timeline.Arg, 0, 8)
	args = append(args,
		timeline.S("tag", rec.Tag),
		timeline.I("sms", rec.SMs),
		timeline.I("grid", rec.Grid),
		timeline.F("waveIdle", rec.WaveIdle),
	)
	if 0 < dur {
		args = append(args,
			timeline.F("gflops", rec.FLOPs.Per(dur).Float()/1e9),
			timeline.F("gbps", rec.Bytes.Per(dur).Float()/1e9),
		)
	}
	args = append(args, timeline.F("overlap", g.overlapFraction(l)))
	g.TL.Span(streamLane(st.id), rec.Name, rec.Start, rec.End, args...)
}

// streamLane names the timeline lane of a stream.
func streamLane(id int) string { return fmt.Sprintf("stream%02d", id) }

// advance integrates work done at the current rates since lastUpdate and
// decrements remaining fractions.
//
//bullet:hotpath
func (g *GPU) advance() {
	now := g.sim.Now()
	dt := now - g.lastUpdate
	g.lastUpdate = now
	if dt <= 0 {
		return
	}
	if len(g.running) > 0 {
		g.anyBusyTime += dt
	}
	for _, l := range g.running {
		if l.rate <= 0 {
			continue
		}
		done := l.rate.Times(dt)
		if done > l.remaining {
			done = l.remaining
		}
		l.remaining -= done
		g.flopsDone += units.Scale(l.k.FLOPs, done)
		g.bytesDone += units.Scale(l.k.Bytes, done)
		meff := l.meff
		g.smBusyTime += meff.Times(dt)
		g.tagFlops[l.k.Tag] += units.Scale(l.k.FLOPs, done)
		g.tagBytes[l.k.Tag] += units.Scale(l.k.Bytes, done)
		g.tagTime[l.k.Tag] += meff.Times(dt)
	}
}

// cacheShares refreshes every resident kernel's cached compute share
// (meff), overlap fraction (ov) and occupancy (occ). The values equal
// effectiveSMs, overlapFraction and maskHealth bit for bit. When no two
// resident masks overlap (a lone kernel, or strictly partitioned
// streams), every kernel owns its SMs outright, as in effectiveSMs' fast
// path. Otherwise each kernel's SMs are still visited in ascending order,
// and on each SM the sharers' weights are still summed in running order,
// starting from the kernel's own; but instead of testing every other
// kernel's mask per SM, a per-SM cover bitset is built once, and the
// share is recomputed only when the set of co-resident sharers changes
// from one SM to the next.
func (g *GPU) cacheShares() {
	if len(g.running) > maxCoverKernels {
		for _, l := range g.running {
			l.meff = g.effectiveSMs(l)
			l.ov = g.overlapFraction(l)
			l.occ = g.maskHealth(l.mask)
		}
		return
	}
	if !g.anyOverlap() {
		for _, l := range g.running {
			l.occ = g.maskHealth(l.mask)
			l.meff, l.ov = units.SMs(l.occ), 0
		}
		return
	}
	var union smmask.Mask
	for _, l := range g.running {
		union = union.Union(l.mask)
	}
	for w, word := range union {
		for ; word != 0; word &= word - 1 {
			g.cover[w<<6|bits.TrailingZeros64(word)] = 0
		}
	}
	for j, l := range g.running {
		bit := uint64(1) << uint(j)
		for w, word := range l.mask {
			for ; word != 0; word &= word - 1 {
				g.cover[w<<6|bits.TrailingZeros64(word)] |= bit
			}
		}
	}
	for j, l := range g.running {
		self := uint64(1) << uint(j)
		var (
			eff    units.SMs
			occ    float64
			shared int
			last   uint64
			share  float64
			primed bool
		)
		for w, word := range l.mask {
			for ; word != 0; word &= word - 1 {
				i := w<<6 | bits.TrailingZeros64(word)
				others := g.cover[i] &^ self
				if others != 0 {
					shared++
				}
				if !primed || others != last {
					total := l.weight
					for o := others; o != 0; o &= o - 1 {
						total += g.running[bits.TrailingZeros64(o)].weight
					}
					share = l.weight / total
					last, primed = others, true
				}
				if g.health != nil {
					eff += units.SMs(share * g.health[i])
					occ += g.health[i]
				} else {
					eff += units.SMs(share)
				}
			}
		}
		if g.health == nil {
			occ = float64(l.maskCount)
		}
		l.meff, l.occ = eff, occ
		l.ov = 0
		if l.maskCount != 0 {
			l.ov = float64(shared) / float64(l.maskCount)
		}
	}
}

// anyOverlap reports whether any two resident kernels share an SM.
func (g *GPU) anyOverlap() bool {
	for i, l := range g.running {
		for _, o := range g.running[i+1:] {
			if l.mask.Overlaps(o.mask) {
				return true
			}
		}
	}
	return false
}

// effectiveSMs returns the compute share of kernel l: SMs exclusively
// owned count fully; on SMs shared with other resident kernels the issue
// bandwidth is split in proportion to the sharers' compute intensities,
// so a memory-bound kernel co-resident with a GEMM costs the GEMM little
// compute (the warp scheduler interleaves around its DRAM stalls).
// Degraded SMs contribute only their health fraction. cacheShares
// computes the same value for every resident kernel at once; this
// per-kernel form is its fallback past maxCoverKernels residents.
func (g *GPU) effectiveSMs(l *launch) units.SMs {
	// Fast path: no overlap with any other resident kernel.
	overlapped := false
	for _, o := range g.running {
		if o != l && o.mask.Overlaps(l.mask) {
			overlapped = true
			break
		}
	}
	if !overlapped {
		return units.SMs(g.maskHealth(l.mask))
	}
	eff := units.SMs(0)
	for w, word := range l.mask {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			total := l.weight
			for _, o := range g.running {
				if o != l && o.mask.Has(i) {
					total += o.weight
				}
			}
			share := l.weight / total
			if g.health != nil {
				share *= g.health[i]
			}
			eff += units.SMs(share)
		}
	}
	return eff
}

// overlapFraction returns the share of l's SMs also occupied by other
// resident kernels (l itself need not be resident: the timeline span of
// a finished kernel reports the contention it left behind).
func (g *GPU) overlapFraction(l *launch) float64 {
	var union smmask.Mask
	for _, o := range g.running {
		if o != l {
			union = union.Union(o.mask)
		}
	}
	shared := l.mask.Intersect(union).Count()
	if l.maskCount == 0 {
		return 0
	}
	return float64(shared) / float64(l.maskCount)
}

// soloRate returns the rate (fraction/s) kernel l would sustain with its
// cached compute share (l.meff) and unlimited access to its bandwidth
// cap, along with its bandwidth demand at that rate. l.ov is the kernel's
// SM-overlap fraction with co-resident kernels: interference
// (L1/shared-memory/scheduler thrash) scales with how much the masks
// actually collide — strictly partitioned kernels only contend for DRAM,
// which the water-filling handles separately.
func (g *GPU) soloRate(l *launch) (rate units.PerSec, bwCap units.BytesPerSec) {
	spec := g.Spec
	meff, ov := l.meff, l.ov
	frac := units.Ratio(meff, units.SMs(spec.NumSMs))
	if frac <= 0 {
		// Every SM under the mask is dead: drain in-flight work at the
		// trickle floor instead of stalling the simulation forever.
		frac = deadDrainSMs / float64(spec.NumSMs)
	}
	effPeak := l.k.Efficiency
	if effPeak == 0 {
		effPeak = 1
	}
	pc := 1 - (1-spec.CoRunComputePenalty)*ov
	pb := 1 - (1-spec.CoRunBWPenalty)*ov
	computeCap := units.Scale(units.Scale(units.Scale(spec.PeakFLOPS, effPeak), frac), pc)
	// Wave quantization is a placement effect of the mask size, not the
	// contended share, so it uses the mask's SM count. Bandwidth access
	// likewise scales with occupancy — the health-weighted SMs the kernel
	// is resident on (degraded SMs issue proportionally fewer memory
	// requests), not its contended compute share.
	wave := 1 - WaveIdleRatio(l.k.Grid, l.maskCount)
	occ := l.occ
	if occ <= 0 {
		occ = deadDrainSMs
	}
	occFrac := occ / float64(spec.NumSMs)
	bwCap = units.Scale(units.Scale(spec.PeakBW, math.Min(1, math.Pow(occFrac, spec.BWScaleExp))), pb)

	rc := units.Inf[units.PerSec](1)
	if l.k.FLOPs > 0 {
		rc = units.Scale(computeCap, wave).Progress(l.k.FLOPs)
	}
	rb := units.Inf[units.PerSec](1)
	if l.k.Bytes > 0 {
		rb = bwCap.Progress(l.k.Bytes)
	}
	rl := units.Inf[units.PerSec](1)
	if l.k.CommBytes > 0 && spec.LinkBW > 0 {
		rl = spec.LinkBW.Progress(l.k.CommBytes)
	}
	return units.Min(units.Min(rc, rb), rl), bwCap
}

// recompute re-derives every resident kernel's rate from the current mix
// and reschedules completion events. Called after any membership change.
//
//bullet:hotpath
func (g *GPU) recompute() {
	totalBW := g.Spec.PeakBW

	g.cacheShares()
	g.demands = g.demands[:0]
	for _, l := range g.running {
		d := g.backend.Demand(g, l)
		g.demands = append(g.demands, demand{l, d.Rate, d.BW, d.Volume})
	}

	// Max–min fair bandwidth allocation with per-kernel caps: kernels
	// demanding less than an equal share keep their full rate; the rest
	// split the remainder evenly, iterating as shares free up.
	slices.SortFunc(g.demands, demandByBytes)
	remaining := totalBW
	left := len(g.demands)
	for _, d := range g.demands {
		share := units.Over(remaining, float64(left))
		alloc := units.Min(d.bytes, share)
		remaining -= alloc
		left--
		rate := d.nominal
		if d.volume > 0 && alloc < d.bytes {
			rate = alloc.Progress(d.volume)
		}
		d.l.rate = rate
	}

	// Reschedule completions.
	now := g.sim.Now()
	instFlops, instBytes, busySMs := units.FLOPsPerSec(0), units.BytesPerSec(0), units.SMs(0)
	for _, l := range g.running {
		instFlops += l.k.FLOPs.AtRate(l.rate)
		instBytes += l.k.Bytes.AtRate(l.rate)
		busySMs += l.meff
		var eta sim.Time
		if l.rate <= 0 {
			eta = units.Inf[units.Seconds](1)
		} else {
			eta = now + units.Elapse(l.remaining, l.rate)
		}
		if units.IsInf(eta, 1) {
			panic(fmt.Sprintf("gpusim: kernel %q stalled with zero rate", l.k.Name))
		}
		// Move the pending completion, or re-arm the one that fired for
		// the launch's previous kernel; both consume one sequence number,
		// as a fresh At would, so event order is unchanged.
		switch {
		case l.complete == nil:
			l.complete = g.sim.At(eta, l.finishFn)
		case !g.sim.Reschedule(l.complete, eta):
			g.sim.Rearm(l.complete, eta)
		}
	}
	if g.Sampler != nil {
		g.Sampler(now, Utilization{
			Compute:   units.Ratio(instFlops, g.Spec.PeakFLOPS),
			Bandwidth: units.Ratio(instBytes, g.Spec.PeakBW),
			BusySMs:   busySMs,
			Resident:  len(g.running),
		})
	}
	if g.TL != nil {
		g.TL.Counter("gpu", "occupancy", now,
			timeline.F("busySMs", busySMs.Float()),
			timeline.I("resident", len(g.running)))
		g.TL.Counter("gpu", "throughput", now,
			timeline.F("compute", units.Ratio(instFlops, g.Spec.PeakFLOPS)),
			timeline.F("bandwidth", units.Ratio(instBytes, g.Spec.PeakBW)))
	}
}

// Stats summarises accumulated device activity.
type Stats struct {
	FLOPs       units.FLOPs
	Bytes       units.Bytes
	SMBusyTime  units.SMSeconds // SM·seconds occupied
	AnyBusyTime sim.Time        // wall seconds with ≥1 kernel resident
	TagFlops    map[string]units.FLOPs
	TagBytes    map[string]units.Bytes
	TagSMTime   map[string]units.SMSeconds
}

// Stats returns accumulated counters up to the current simulation time.
func (g *GPU) Stats() Stats {
	g.advance()
	cpF := make(map[string]units.FLOPs, len(g.tagFlops))
	for k, v := range g.tagFlops {
		cpF[k] = v
	}
	cpB := make(map[string]units.Bytes, len(g.tagBytes))
	for k, v := range g.tagBytes {
		cpB[k] = v
	}
	cpT := make(map[string]units.SMSeconds, len(g.tagTime))
	for k, v := range g.tagTime {
		cpT[k] = v
	}
	return Stats{
		FLOPs:       g.flopsDone,
		Bytes:       g.bytesDone,
		SMBusyTime:  g.smBusyTime,
		AnyBusyTime: g.anyBusyTime,
		TagFlops:    cpF,
		TagBytes:    cpB,
		TagSMTime:   cpT,
	}
}

// ComputeUtilization returns average achieved FLOPs over the window
// [0, now] as a fraction of peak.
func (g *GPU) ComputeUtilization() float64 {
	now := g.sim.Now()
	if now <= 0 {
		return 0
	}
	g.advance()
	return units.Ratio(g.flopsDone, g.Spec.PeakFLOPS.Times(now))
}

// BandwidthUtilization returns average achieved bytes over [0, now] as a
// fraction of peak.
func (g *GPU) BandwidthUtilization() float64 {
	now := g.sim.Now()
	if now <= 0 {
		return 0
	}
	g.advance()
	return units.Ratio(g.bytesDone, g.Spec.PeakBW.Times(now))
}

// Idle reports whether no kernels are queued or resident anywhere.
func (g *GPU) Idle() bool {
	for _, st := range g.streams {
		if st.Busy() {
			return false
		}
	}
	return true
}
