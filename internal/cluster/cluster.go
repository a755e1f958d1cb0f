// Package cluster scales a serving system horizontally: a router
// dispatches requests across N single-GPU replicas. It exercises the
// deployment question the paper's related-work section raises — whether
// to scale out with more whole-GPU instances or to squeeze more out of
// each GPU with spatial-temporal orchestration — and lets both answers
// compose (a cluster of Bullet instances).
//
// # Deterministic replica advancement
//
// Each replica owns a private sim.Simulation; the router's outer clock
// carries only the decision points (arrivals, fault events, recoveries,
// and a drain pump). Replicas interact with each other exclusively
// through the router, so between two consecutive decision points every
// replica can advance independently — the Revati-style conservative
// window. The cluster advances every replica inline on the coordinator,
// in slot order. In continuous virtual time replica events almost never
// coincide, so a window has at most one replica with work due and a
// fork would only move idle clocks (DESIGN.md §11 records the measured
// split); the replicas are still kept isolated, so a fork can return
// once windows widen:
//
//   - advancing a replica touches only that replica's state;
//   - completions and sheds produced inside the window are buffered in
//     the owning replica's outbox, never pushed to shared state;
//   - after the window, outboxes merge in deterministic (time, replica
//     slot, intra-replica order) order before touching router state.
//
// The output is therefore a pure function of (trace, seed, config).
// Config.Workers has no effect on it, which ci.sh pins with a
// GOMAXPROCS=1-vs-4 byte-diff gate and cluster_test.go pins per worker
// count. A panic inside a replica propagates unwrapped from the window
// that raised it; replicas later in slot order are not advanced.
//
// The outer clock reaches replica progress through one pump event, at
// the earliest pending replica event. The cluster allocates it once and
// then only moves it (Reschedule) or re-arms it (sim.Rearm), so a window
// costs no allocation.
package cluster

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/forkjoin"
	"repro/internal/gpusim"
	"repro/internal/metrics"
	"repro/internal/qos"
	"repro/internal/resilience"
	"repro/internal/serving"
	"repro/internal/sim"
	"repro/internal/timeline"
	"repro/internal/units"
	"repro/internal/workload"
)

// Policy selects how the router places requests.
type Policy string

const (
	// RoundRobin cycles through replicas.
	RoundRobin Policy = "round-robin"
	// LeastLoaded routes to the replica with the fewest in-flight
	// tokens (queued + executing input tokens plus decode batch).
	LeastLoaded Policy = "least-loaded"
	// JoinShortestQueue routes to the replica with the fewest waiting
	// requests.
	JoinShortestQueue Policy = "jsq"
)

// Config shapes the cluster.
type Config struct {
	Replicas int
	Policy   Policy
	// Options configure each replica's Bullet instance.
	Options core.Options
	// Workers is accepted for compatibility and has no effect: replicas
	// advance inline (see the package comment). It must not be
	// negative.
	Workers int
	// Resilience arms the router-tier protections of DESIGN.md §16
	// (circuit breakers, dispatch timeouts, hedged re-dispatch, token
	// buckets, graceful drains) when AttachFaults is called. Nil leaves
	// the router naive: link faults, blips, and drains still apply, but
	// nothing mitigates them — the control arm of ext-chaos.
	Resilience *resilience.Config
}

// DefaultConfig returns a two-replica least-loaded Bullet cluster.
func DefaultConfig() Config {
	return Config{Replicas: 2, Policy: LeastLoaded, Options: core.Options{Mode: core.ModeFull}}
}

// outcome is one completion or shed buffered in a replica's outbox while
// the replica advances inside a window.
type outcome struct {
	at     sim.Time // replica virtual time at delivery
	done   metrics.Request
	shed   workload.Request
	isShed bool
}

// replica is one Bullet instance on its own device, advancing on its own
// private simulation clock.
type replica struct {
	env      *serving.Env
	sys      *core.Bullet
	slot     int // index in Cluster.replicas, stable across restarts
	inflight int // live requests routed here
	tokens   int // live input tokens routed here
	// down marks a crashed replica: the router stops picking it and its
	// late completions are swallowed as stale.
	down bool
	// draining marks a replica mid graceful drain (DESIGN.md §16): it
	// stops admitting, finishes in-flight work, and readmits at the end
	// of the drain window.
	draining bool
	// linkLost / linkDelay model the router→replica link state under
	// KindLinkDegrade: lost links black-hole dispatches into held,
	// degraded links deliver them linkDelay late. linkGen fences
	// restore callbacks against overlapping link faults and crashes.
	linkLost  bool
	linkDelay sim.Time
	linkGen   int
	// held buffers dispatches parked on a faulty link, keyed off by
	// request ID; delivery, dispatch timeout, and link restoration race
	// deterministically through removeHeld. Each entry carries whether
	// the slot's breaker admitted it (resilience.go).
	held []heldDispatch
	// live tracks the requests currently owned by this replica, the set
	// that fails over when it crashes.
	live map[string]workload.Request
	// outbox buffers completions and sheds produced while this replica
	// advances inside a window; the router drains it after the window
	// in deterministic merge order. Only this replica's own event loop
	// appends to it.
	outbox []outcome
}

// advance runs this replica's private simulation up to horizon t,
// buffering every completion and shed into the outbox. It touches no
// state outside the replica.
func (r *replica) advance(t sim.Time) {
	r.env.Sim.Run(t)
}

// Cluster implements serving.System over N replicas.
type Cluster struct {
	outer    *serving.Env
	cfg      Config
	replicas []*replica
	next     int
	routed   map[string]*replica

	// pump is the outer-clock event that re-advances replicas between
	// router decision points, scheduled at the earliest pending replica
	// event so replica progress keeps flowing into the outer run loop.
	// One handle serves the cluster's whole lifetime: moved while
	// pending, re-armed once it has fired or been cancelled.
	pump *sim.Event

	// wcfg is non-nil once AttachFaults armed resilience; restarted
	// replicas inherit it.
	wcfg *core.WatchdogConfig
	// deferred holds arrivals that found every replica down; they flush
	// at the next recovery.
	deferred []workload.Request

	// rs holds the router-tier resilience state (resilience.go); non-nil
	// once AttachFaults ran. Its cfg stays nil unless Config.Resilience
	// armed the mitigations.
	rs *routerState

	crashes    int
	retried    int
	recoveries int
	stale      int
	// recoveryTime attributes actual elapsed repair time per completed
	// router-tier recovery (restarts, link restorations, drain
	// readmissions) for metrics.Resilience.RecoveryTime.
	recoveryTime units.Seconds

	// tl is the root recorder attached by AttachTimeline; each replica
	// records through a per-replica scoped view of it.
	tl *timeline.Recorder

	// merge is the outbox-merge scratch, resliced to zero length on every
	// window so steady-state merges stay allocation-free.
	merge []outboxKey
}

// New builds the cluster on an outer environment. The outer env's own GPU
// and KV pool are unused (replicas own their devices); it provides the
// router clock, SLO, and completion collection.
func New(outer *serving.Env, cfg Config) *Cluster {
	if cfg.Replicas <= 0 {
		panic(fmt.Sprintf("cluster: invalid replica count %d", cfg.Replicas))
	}
	if cfg.Workers < 0 {
		panic(fmt.Sprintf("cluster: invalid worker count %d", cfg.Workers))
	}
	switch cfg.Policy {
	case RoundRobin, LeastLoaded, JoinShortestQueue:
	default:
		panic(fmt.Sprintf("cluster: unknown policy %q", cfg.Policy))
	}
	c := &Cluster{outer: outer, cfg: cfg, routed: map[string]*replica{}}
	for i := 0; i < cfg.Replicas; i++ {
		c.replicas = append(c.replicas, c.newReplica(i))
	}
	return c
}

// newReplica builds one replica: a fresh device and KV pool on a fresh
// private clock fast-forwarded to the router's current time. Completions
// and sheds are buffered into the replica-local outbox; ownership checks
// and router accounting happen at the deterministic merge, not here.
func (c *Cluster) newReplica(idx int) *replica {
	rsim := sim.New()
	rsim.Run(c.outer.Sim.Now())
	env := serving.NewEnvWithSim(rsim, c.outer.GPU.Spec, c.outer.Model, datasetOf(c.outer))
	r := &replica{env: env, slot: idx, live: map[string]workload.Request{}}
	env.OnComplete = func(m metrics.Request) {
		r.outbox = append(r.outbox, outcome{at: env.Sim.Now(), done: m})
	}
	env.OnShed = func(w workload.Request) {
		r.outbox = append(r.outbox, outcome{at: env.Sim.Now(), shed: w, isShed: true})
	}
	opts := c.cfg.Options
	if opts.Backend == gpusim.BackendSampled {
		// Decorrelate the replicas' sampled-latency draw streams the
		// forkjoin way: a per-replica splitmix fork of the base seed,
		// independent of the order replicas advance in.
		seed := opts.BackendSeed
		if seed == 0 {
			seed = 1
		}
		opts.BackendSeed = forkjoin.ForkSeed(seed, idx)
	}
	r.sys = core.New(env, opts)
	if c.wcfg != nil {
		r.sys.EnableResilience(*c.wcfg)
	}
	// A nil recorder scopes to nil, so the disabled fast path propagates.
	r.sys.AttachTimeline(c.tl.Scoped(fmt.Sprintf("replica%d", idx)))
	return r
}

// AttachTimeline threads a recorder through the cluster: each replica
// (including ones restarted after a crash) records through a scoped view
// tagged with its slot, and router-level crash/recovery instants land on
// the root "cluster" lane. Replicas advance inline in slot order, so the
// shared trace has one deterministic event order.
func (c *Cluster) AttachTimeline(rec *timeline.Recorder) {
	c.tl = rec
	for i, r := range c.replicas {
		r.sys.AttachTimeline(rec.Scoped(fmt.Sprintf("replica%d", i)))
	}
}

// datasetOf recovers the dataset name from the env's SLO (Table 2 pairs
// are unique).
func datasetOf(env *serving.Env) string {
	for _, name := range []string{"sharegpt", "azure-code", "arxiv-summary"} {
		if metrics.SLOFor(name) == env.SLO {
			return name
		}
	}
	return "sharegpt"
}

// Name implements serving.System.
func (c *Cluster) Name() string {
	return fmt.Sprintf("cluster-%dx-%s", c.cfg.Replicas, c.cfg.Policy)
}

// advanceTo moves every private clock to horizon t, inline and in slot
// order, then merges the buffered outcomes in deterministic order. An
// idle replica only moves its clock to t. This is the only place
// replica state crosses back into router state.
//
//bullet:hotpath
func (c *Cluster) advanceTo(t sim.Time) {
	for _, r := range c.replicas {
		r.advance(t)
	}
	c.mergeOutboxes()
}

// outboxKey orders one buffered outcome during a merge: (at, slot, pos)
// is unique per outcome, so any comparison sort yields the same total
// order.
type outboxKey struct {
	at   sim.Time
	slot int
	pos  int
}

// outboxKeyLess is the merge ordering: time, then replica slot, then
// intra-replica buffer order. A top-level function rather than a closure
// so sorting captures nothing.
func outboxKeyLess(a, b outboxKey) bool {
	if a.at < b.at {
		return true
	}
	if b.at < a.at {
		return false
	}
	if a.slot != b.slot {
		return a.slot < b.slot
	}
	return a.pos < b.pos
}

// mergeOutboxes drains every replica outbox into the outer environment
// in (time, replica slot, intra-replica order) order — a total order
// independent of the order replicas advanced in. Keys are collected into a
// cluster-held scratch slice and insertion-sorted in place: windows are
// short, so outboxes hold at most a handful of outcomes and the merge
// must not allocate per window.
//
//bullet:hotpath
func (c *Cluster) mergeOutboxes() {
	items := c.merge[:0]
	for si, r := range c.replicas {
		for pi, o := range r.outbox {
			//lint:ignore hotalloc scratch growth is amortized; steady state reuses reserved capacity
			items = append(items, outboxKey{at: o.at, slot: si, pos: pi})
		}
	}
	c.merge = items
	if len(items) == 0 {
		return
	}
	for i := 1; i < len(items); i++ {
		for j := i; j > 0 && outboxKeyLess(items[j], items[j-1]); j-- {
			items[j], items[j-1] = items[j-1], items[j]
		}
	}
	for _, it := range items {
		c.applyOutcome(c.replicas[it.slot], c.replicas[it.slot].outbox[it.pos])
	}
	for _, r := range c.replicas {
		r.outbox = r.outbox[:0]
	}
}

// applyOutcome settles one buffered completion or shed against router
// state: stale deliveries from replicas that no longer own the request
// (it failed over at a crash) are swallowed, live ones release the
// routing accounting and flow to the outer environment.
func (c *Cluster) applyOutcome(r *replica, o outcome) {
	if c.rs != nil {
		id := o.done.ID
		if o.isShed {
			id = o.shed.ID
		}
		if fl, ok := c.rs.flights[id]; ok {
			c.settleFlight(r, fl, o, id)
			return
		}
	}
	if o.isShed {
		if c.routed[o.shed.ID] != r {
			c.stale++
			return
		}
		delete(c.routed, o.shed.ID)
		delete(r.live, o.shed.ID)
		r.inflight--
		r.tokens -= o.shed.InputTokens
		c.outer.Shed(o.shed)
		return
	}
	if c.routed[o.done.ID] != r {
		c.stale++
		return
	}
	delete(c.routed, o.done.ID)
	delete(r.live, o.done.ID)
	r.inflight--
	r.tokens -= o.done.InputTokens
	c.outer.Complete(o.done)
}

// schedulePump keeps the outer clock tethered to replica progress: one
// event at the earliest pending replica event. When it fires the
// replicas advance to that horizon (processing every replica event at
// it) and the pump re-arms at the next one. Without pending replica
// events the pump stands down — the outer run loop then correctly
// treats an idle cluster with outstanding requests as a deadlock.
//
// The handle is allocated on the first arming only: a pending pump is
// moved with Reschedule, a fired or cancelled one is re-armed with
// sim.Rearm. Each consumes one sequence number, as a fresh At would, so
// the outer event order matches one new event per arming.
//
//bullet:hotpath
func (c *Cluster) schedulePump() {
	var at sim.Time
	found := false
	for _, r := range c.replicas {
		if t, ok := r.env.Sim.NextAt(); ok && (!found || t < at) {
			at, found = t, true
		}
	}
	switch {
	case !found:
		c.outer.Sim.Cancel(c.pump)
	case c.pump == nil:
		//lint:ignore hotalloc the one pump handle of the cluster's lifetime; every later arming reuses it
		c.pump = c.outer.Sim.At(at, c.onPump)
	case !c.outer.Sim.Reschedule(c.pump, at):
		c.outer.Sim.Rearm(c.pump, at)
	}
}

// onPump is a router decision point with no decision: advance replicas
// to the outer clock and re-arm.
//
//bullet:hotpath
func (c *Cluster) onPump() {
	c.advanceTo(c.outer.Sim.Now())
	c.schedulePump()
}

// Submit implements serving.System. Every submission is a router
// decision point: replicas first catch up to the arrival instant (so
// load accounting reflects everything that completed before it), then
// the policy places the request. Arrivals that find every replica down
// are deferred and flushed at the next recovery.
func (c *Cluster) Submit(r workload.Request) {
	c.advanceTo(c.outer.Sim.Now())
	if c.rs != nil {
		c.submitResilient(r, true)
		c.schedulePump()
		return
	}
	rep := c.pick(r)
	if rep == nil {
		c.deferred = append(c.deferred, r)
		c.schedulePump()
		return
	}
	c.place(rep, r)
	rep.sys.Submit(r)
	c.schedulePump()
}

// place records the routing accounting for a request on its chosen
// replica: load counters, the failover set, and the ownership map.
func (c *Cluster) place(rep *replica, r workload.Request) {
	rep.inflight++
	rep.tokens += r.InputTokens
	rep.live[r.ID] = r
	c.routed[r.ID] = rep
}

// pick returns the routing policy's choice among healthy replicas, nil
// when all are down.
func (c *Cluster) pick(r workload.Request) *replica {
	return c.pickWhere(func(rep *replica) bool { return !rep.down })
}

// pickWhere runs the routing policy over the replicas that satisfy ok,
// nil when none do. RoundRobin advances the cursor past rejected
// candidates, matching the health-aware legacy behavior.
func (c *Cluster) pickWhere(ok func(*replica) bool) *replica {
	switch c.cfg.Policy {
	case RoundRobin:
		for i := 0; i < len(c.replicas); i++ {
			rep := c.replicas[c.next%len(c.replicas)]
			c.next++
			if ok(rep) {
				return rep
			}
		}
		return nil
	case JoinShortestQueue:
		var best *replica
		for _, rep := range c.replicas {
			if !ok(rep) {
				continue
			}
			if best == nil || rep.sys.Prefill.QueueDepth() < best.sys.Prefill.QueueDepth() {
				best = rep
			}
		}
		return best
	default: // LeastLoaded
		var best *replica
		for _, rep := range c.replicas {
			if !ok(rep) {
				continue
			}
			if best == nil || rep.tokens < best.tokens {
				best = rep
			}
		}
		return best
	}
}

// AttachFaults arms resilience on every replica and registers the
// cluster as the injector's handler for all fault kinds: crashes are
// handled here, single-device faults are routed to the targeted replica.
func (c *Cluster) AttachFaults(inj *faults.Injector, wcfg core.WatchdogConfig) {
	if c.wcfg != nil {
		panic("cluster: faults attached twice")
	}
	c.wcfg = &wcfg
	for _, r := range c.replicas {
		r.sys.EnableResilience(wcfg)
	}
	c.rs = newRouterState(c.cfg)
	inj.Handle(faults.KindReplicaCrash, c.onReplicaCrash)
	inj.Handle(faults.KindSMDegrade, c.routeFault)
	inj.Handle(faults.KindEngineStall, c.routeFault)
	inj.Handle(faults.KindKVShrink, c.routeFault)
	inj.Handle(faults.KindLinkDegrade, c.onLinkFault)
	inj.Handle(faults.KindRouterBlip, c.onRouterBlip)
	inj.Handle(faults.KindReplicaDrain, c.onReplicaDrain)
}

// routeFault applies a single-device fault to the targeted replica — a
// router decision point, so the fleet first catches up to the fault
// instant. Faults aimed at a crashed replica are dropped — the machine
// is gone.
func (c *Cluster) routeFault(ev faults.Event) {
	c.advanceTo(c.outer.Sim.Now())
	rep := c.replicas[ev.Replica%len(c.replicas)]
	if !rep.down {
		rep.sys.ApplyFault(ev)
	}
	c.schedulePump()
}

// onReplicaCrash fails a replica: health-aware routing stops picking it,
// its in-flight requests are re-submitted elsewhere (deterministically,
// in request-ID order), and after the recovery delay a fresh replica
// (new device, new KV pool, new private clock) takes its slot. The
// crashed instance keeps draining whatever was on its GPU until the
// readmission replaces it, but it no longer owns any request — its late
// completions are swallowed by the ownership check at the merge.
func (c *Cluster) onReplicaCrash(ev faults.Event) {
	c.advanceTo(c.outer.Sim.Now())
	rep := c.replicas[ev.Replica%len(c.replicas)]
	if rep.down {
		c.schedulePump()
		return // already down; the machine cannot crash twice
	}
	rep.down = true
	c.crashes++
	idx := ev.Replica % len(c.replicas)
	lost := make([]workload.Request, 0, len(rep.live))
	for _, w := range rep.live {
		lost = append(lost, w)
	}
	sort.Slice(lost, func(i, j int) bool { return lost[i].ID < lost[j].ID })
	if c.tl != nil {
		c.tl.Instant("cluster", "crash", c.outer.Sim.Now(),
			timeline.I("replica", idx),
			timeline.I("lost", len(lost)))
	}
	rep.live = map[string]workload.Request{}
	if c.rs != nil {
		// Dispatches parked on the dead link fail over via the lost set;
		// the generation bump no-ops their pending delivery, timeout, and
		// link-restore callbacks. Protected entries resolve their breaker
		// outcome as a failure — a half-open probe wiped by the crash
		// would otherwise never report and wedge the slot's breaker.
		for _, h := range rep.held {
			if h.protected {
				c.rs.breakers[rep.slot].ReportFailure(c.outer.Sim.Now())
			}
		}
		rep.held = nil
		rep.linkGen++
	}
	for _, w := range lost {
		delete(c.routed, w.ID)
		if c.rs != nil {
			if c.detachFlight(rep, w) {
				continue // a hedge copy survives elsewhere
			}
			c.retried++
			c.submitResilient(w, false)
			continue
		}
		c.retried++
		c.Submit(w)
	}
	c.outer.Sim.PostAfter(ev.Recovery, func() {
		c.advanceTo(c.outer.Sim.Now())
		c.replicas[idx] = c.newReplica(idx)
		c.recoveries++
		c.recoveryTime += ev.Recovery
		if c.tl != nil {
			c.tl.Instant("cluster", "recovery", c.outer.Sim.Now(),
				timeline.I("replica", idx),
				timeline.I("deferred", len(c.deferred)))
		}
		c.flushDeferred()
		c.schedulePump()
	})
	c.schedulePump()
}

// flushDeferred re-submits the arrivals that found every replica
// unavailable. Resilient flushes skip the admission bucket — the
// requests were already admitted (or arrived before rate limiting was
// armed) and must not be charged twice.
func (c *Cluster) flushDeferred() {
	flush := c.deferred
	c.deferred = nil
	for _, w := range flush {
		if c.rs != nil {
			c.submitResilient(w, false)
			continue
		}
		c.Submit(w)
	}
}

// Replicas returns the per-replica completed-request counts, for balance
// analysis.
func (c *Cluster) Replicas() []int {
	out := make([]int, len(c.replicas))
	for i, r := range c.replicas {
		out[i] = len(r.env.Completed())
	}
	return out
}

// CheckDrained panics if any live replica leaked KV blocks. Crashed
// replicas are exempt: a machine that died mid-run may hold KV for work
// it was draining when the run ended.
func (c *Cluster) CheckDrained() {
	for i, r := range c.replicas {
		if r.down {
			continue
		}
		r.env.KV.CheckInvariants()
		if used := r.env.KV.UsedBlocks(); used != 0 {
			panic(fmt.Sprintf("cluster: replica %d leaked %d KV blocks", i, used))
		}
	}
}

// Crashes returns how many replica-crash events were applied.
func (c *Cluster) Crashes() int { return c.crashes }

// StaleCompletions returns how many late completions from crashed
// replicas were swallowed by the ownership check.
func (c *Cluster) StaleCompletions() int { return c.stale }

// Resilience aggregates recovery accounting across the cluster: the
// router's own failover counters plus every current replica's local
// watchdog counters. The caller owns injector-level counters
// (FaultsInjected, Downtime).
func (c *Cluster) Resilience() metrics.Resilience {
	out := metrics.Resilience{
		Retried:      c.retried,
		Recoveries:   c.recoveries,
		RecoveryTime: c.recoveryTime,
	}
	if rs := c.rs; rs != nil {
		out.LinkFaults = rs.linkFaults
		out.Drains = rs.drains
		out.Handoffs = rs.handoffs
		for cl, n := range rs.rateLimited {
			out.RateLimited += n
			out.RateLimitedByClass[cl] = n
		}
		for _, b := range rs.breakers {
			out.BreakerOpens += b.Opens()
			out.BreakerCloses += b.Closes()
		}
		if rs.hedger != nil {
			out.Hedges = rs.hedger.Hedges()
			out.HedgeWins = rs.hedger.Wins()
		}
	}
	for _, r := range c.replicas {
		out.Add(r.sys.Resilience())
	}
	return out
}

// Pressure aggregates memory-pressure accounting across every current
// replica (zero when Options.Pressure is off).
func (c *Cluster) Pressure() metrics.Pressure {
	var out metrics.Pressure
	for _, r := range c.replicas {
		out.Add(r.sys.Pressure())
	}
	return out
}

// QoS aggregates the QoS controllers' per-class token accounting across
// every current replica (zero when Options.QoS is off). The scalar
// decision counters and final caps are per-replica control state and are
// summed/zeroed respectively — only the accounting is meaningful
// cluster-wide.
func (c *Cluster) QoS() qos.Accounting {
	var out qos.Accounting
	for _, r := range c.replicas {
		out.Add(r.sys.QoS().Accounting)
	}
	return out
}

// GPUStats aggregates device counters across replicas.
func (c *Cluster) GPUStats() []gpusim.Stats {
	out := make([]gpusim.Stats, len(c.replicas))
	for i, r := range c.replicas {
		out[i] = r.env.GPU.Stats()
	}
	return out
}
