// Router-tier resilience (DESIGN.md §16): the cluster-side wiring of
// the internal/resilience policy objects, plus the handlers for the
// network/KV-link fault domain (link degradation/loss, router blips,
// graceful drains).
//
// Every piece of state here is mutated exclusively from outer-simulation
// event handlers — Submit, fault callbacks, PostAfter timers, and the
// deterministic outbox merge — never from inside a replica window, so
// replicas stay isolated from one another and the cluster's output
// stays independent of Config.Workers (TestChaosSerialParallelIdentical
// pins it).
//
// The state splits along the arming line:
//
//   - routerState itself exists whenever AttachFaults ran, so link
//     faults, blips, and drains always take effect;
//   - routerState.cfg is non-nil only when Config.Resilience armed the
//     mitigations (breakers, dispatch timeouts, hedging, buckets,
//     graceful drain). A nil cfg leaves the router naive — it keeps
//     dispatching into black holes and treats drains as crashes — which
//     is the control arm of the ext-chaos experiment.
package cluster

import (
	"repro/internal/faults"
	"repro/internal/qos"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/timeline"
	"repro/internal/workload"
)

// bucketShare scales the per-class token buckets off the base
// BucketRate/BucketBurst: premium gets 4× the best-effort allowance,
// standard 2× — the inverse of the qos.SLOScale strictness ladder.
var bucketShare = [qos.NumClasses]float64{qos.BestEffort: 1, qos.Standard: 2, qos.Premium: 4}

// blipArrival is one request parked during a router blip, paired with
// the token-bucket admission flag it was submitted with.
type blipArrival struct {
	req   workload.Request
	admit bool
}

// heldDispatch is one dispatch parked on a faulty link. protected marks
// a dispatch the slot's breaker admitted (Breaker.Allow returned true);
// only protected outcomes feed back into the breaker state machine, so
// a fail-open dispatch through an unready breaker — open before its
// probe instant, or half-open with the probe slot already taken — can
// neither close nor re-open a breaker that is waiting on its own probe.
type heldDispatch struct {
	req       workload.Request
	protected bool
}

// flight tracks one request with potentially several dispatched copies
// (the primary plus hedges). The first outcome from any member settles
// the request; later outcomes only release their replica's accounting.
type flight struct {
	primary *replica
	reps    []*replica
	won     bool
}

// remove drops rep from the flight's member set, reporting whether it
// was a member.
func (fl *flight) remove(rep *replica) bool {
	for i, fr := range fl.reps {
		if fr == rep {
			//lint:ignore hotalloc in-place removal: the destination is a prefix of the same backing array, so it never grows
			fl.reps = append(fl.reps[:i], fl.reps[i+1:]...)
			return true
		}
	}
	return false
}

// has reports membership without mutating.
func (fl *flight) has(rep *replica) bool {
	for _, fr := range fl.reps {
		if fr == rep {
			return true
		}
	}
	return false
}

// routerState is the cluster's router-tier resilience state.
type routerState struct {
	// cfg is the armed mitigation config (defaults applied), nil when
	// Config.Resilience was nil.
	cfg *resilience.Config
	// breakers guard replica slots (not instances), so a restarted
	// replica inherits its slot's failure history.
	breakers []*resilience.Breaker
	// buckets meter admissions per QoS class; all nil when BucketRate
	// is zero.
	buckets [qos.NumClasses]*resilience.Bucket
	hedger  *resilience.Hedger
	// flights tracks hedged requests by ID. The map is never iterated,
	// only looked up, so it cannot perturb determinism.
	flights map[string]*flight

	// blipUntil / blipHeld implement router blips: arrivals during a
	// blip park here and flush when the last overlapping blip ends.
	// Each entry keeps the admission flag it arrived with so the flush
	// replays it verbatim — a re-dispatch parked mid-blip was already
	// charged to its bucket and must not be charged twice.
	blipUntil sim.Time
	blipHeld  []blipArrival

	timeouts    int
	rateLimited [qos.NumClasses]int
	drains      int
	handoffs    int
	linkFaults  int
}

// newRouterState builds the router-tier state for AttachFaults,
// arming the mitigation policies iff cfg.Resilience is set.
func newRouterState(cfg Config) *routerState {
	rs := &routerState{flights: map[string]*flight{}}
	if cfg.Resilience == nil {
		return rs
	}
	rcfg := cfg.Resilience.WithDefaults()
	rs.cfg = &rcfg
	for i := 0; i < cfg.Replicas; i++ {
		rs.breakers = append(rs.breakers, resilience.NewBreaker(rcfg.Breaker))
	}
	if rcfg.BucketRate > 0 {
		for cl := 0; cl < qos.NumClasses; cl++ {
			rs.buckets[cl] = resilience.NewBucket(resilience.BucketConfig{
				Rate:  rcfg.BucketRate * bucketShare[cl],
				Burst: rcfg.BucketBurst * bucketShare[cl],
			})
		}
	}
	rs.hedger = resilience.NewHedger(rcfg.Hedge)
	return rs
}

// submitResilient is the rs-armed router admission path: blip hold,
// token-bucket admission (skipped for re-dispatches, admit=false),
// health-aware pick, placement, and link-aware dispatch with hedge
// arming. Callers hold the outer clock at a decision point (advanceTo
// already ran).
func (c *Cluster) submitResilient(r workload.Request, admit bool) {
	rs := c.rs
	now := c.outer.Sim.Now()
	if now < rs.blipUntil {
		rs.blipHeld = append(rs.blipHeld, blipArrival{req: r, admit: admit})
		return
	}
	if admit && rs.cfg != nil && rs.buckets[0] != nil {
		cl := qos.ClassOf(r.Tenant)
		if !rs.buckets[cl].Allow(now, float64(r.InputTokens)) {
			rs.rateLimited[cl]++
			if c.tl != nil {
				c.tl.Instant("router", "rate-limit", now,
					timeline.S("tenant", r.Tenant))
			}
			c.outer.Shed(r)
			return
		}
	}
	rep := c.pickResilient()
	if rep == nil {
		c.deferred = append(c.deferred, r)
		return
	}
	protected := false
	if rs.cfg != nil {
		// The chosen replica's breaker admits the dispatch; an open
		// breaker past its probe instant transitions to half-open here,
		// making this dispatch the probe. A fail-open pick through an
		// unready breaker dispatches unprotected: its outcome must not
		// mutate the breaker (see heldDispatch).
		protected = rs.breakers[rep.slot].Allow(now)
	}
	c.place(rep, r)
	if c.dispatch(rep, r, protected) && rs.cfg != nil && rs.cfg.Hedge.MaxHedges > 0 {
		rs.hedger.NoteDispatch()
		if _, ok := rs.flights[r.ID]; !ok {
			rs.flights[r.ID] = &flight{primary: rep, reps: []*replica{rep}}
			c.armHedge(r, 0)
		}
	}
}

// pickResilient is the health-aware pick: with mitigations armed it
// first runs the policy over fully healthy replicas (up, not draining,
// link intact, breaker ready), then fails open to any up-and-admitting
// replica — re-routing through a degraded fleet beats dropping work.
// Without mitigations the naive policy runs unchanged.
func (c *Cluster) pickResilient() *replica {
	rs := c.rs
	if rs.cfg == nil {
		return c.pickWhere(func(rep *replica) bool { return !rep.down })
	}
	now := c.outer.Sim.Now()
	if rep := c.pickWhere(func(rep *replica) bool {
		return !rep.down && !rep.draining && !rep.linkLost && rep.linkDelay == 0 &&
			rs.breakers[rep.slot].Ready(now)
	}); rep != nil {
		return rep
	}
	return c.pickWhere(func(rep *replica) bool { return !rep.down && !rep.draining })
}

// dispatch delivers a placed request across the (possibly faulty) link
// to its replica, reporting whether delivery was direct. Lost links
// park the dispatch until the link restores or the dispatch timeout
// re-routes it; degraded links deliver it late. Only breaker-admitted
// (protected) dispatches report their outcome to the breaker.
func (c *Cluster) dispatch(rep *replica, r workload.Request, protected bool) bool {
	rs := c.rs
	if rep.linkLost {
		rep.held = append(rep.held, heldDispatch{req: r, protected: protected})
		c.armDispatchTimeout(rep, r)
		return false
	}
	if rep.linkDelay > 0 {
		rep.held = append(rep.held, heldDispatch{req: r, protected: protected})
		id := r.ID
		c.outer.Sim.PostAfter(rep.linkDelay, func() { c.deliverHeld(rep, id) })
		c.armDispatchTimeout(rep, r)
		return false
	}
	rep.sys.Submit(r)
	if protected {
		rs.breakers[rep.slot].ReportSuccess()
	}
	return true
}

// removeHeld takes the request with the given ID off the replica's held
// buffer. Exactly one of the racing consumers (delayed delivery,
// dispatch timeout, link-restore flush) wins; the others see false.
func (c *Cluster) removeHeld(rep *replica, id string) (heldDispatch, bool) {
	for i, h := range rep.held {
		if h.req.ID == id {
			rep.held = append(rep.held[:i], rep.held[i+1:]...)
			return h, true
		}
	}
	return heldDispatch{}, false
}

// deliverHeld completes a delayed dispatch across a degraded link.
func (c *Cluster) deliverHeld(rep *replica, id string) {
	c.advanceTo(c.outer.Sim.Now())
	if h, ok := c.removeHeld(rep, id); ok {
		rep.sys.Submit(h.req)
		if h.protected {
			c.rs.breakers[rep.slot].ReportSuccess()
		}
	}
	c.schedulePump()
}

// armDispatchTimeout bounds how long a dispatch may sit parked on a
// faulty link. On expiry the router counts a breaker failure, releases
// the placement, and re-routes the request (skipping the admission
// bucket — it was already admitted). Unarmed when mitigations are off:
// the naive router waits for the link, however long that takes.
func (c *Cluster) armDispatchTimeout(rep *replica, r workload.Request) {
	rs := c.rs
	if rs.cfg == nil {
		return
	}
	c.outer.Sim.PostAfter(rs.cfg.DispatchTimeout, func() {
		c.advanceTo(c.outer.Sim.Now())
		if h, ok := c.removeHeld(rep, r.ID); ok {
			now := c.outer.Sim.Now()
			rs.timeouts++
			if h.protected {
				rs.breakers[rep.slot].ReportFailure(now)
			}
			if c.tl != nil {
				c.tl.Instant("router", "dispatch-timeout", now,
					timeline.I("replica", rep.slot))
			}
			delete(rep.live, r.ID)
			delete(c.routed, r.ID)
			rep.inflight--
			rep.tokens -= r.InputTokens
			c.retried++
			c.submitResilient(r, false)
		}
		c.schedulePump()
	})
}

// armHedge schedules hedge attempt number attempt (0-based) for a
// directly dispatched request: if the flight is still unresolved when
// the straggler threshold passes and the budget allows, one extra copy
// goes to a healthy replica not already running it.
func (c *Cluster) armHedge(r workload.Request, attempt int) {
	rs := c.rs
	if attempt >= rs.cfg.Hedge.MaxHedges {
		return
	}
	c.outer.Sim.PostAfter(rs.hedger.Delay(attempt), func() {
		c.advanceTo(c.outer.Sim.Now())
		defer c.schedulePump()
		fl, ok := rs.flights[r.ID]
		if !ok || fl.won {
			return
		}
		if !rs.hedger.CanHedge() {
			return
		}
		now := c.outer.Sim.Now()
		// Hedge copies only go to fully healthy replicas the flight does
		// not already cover — a copy parked on a bad link would defeat
		// the point.
		rep := c.pickWhere(func(rep *replica) bool {
			return !rep.down && !rep.draining && !rep.linkLost && rep.linkDelay == 0 &&
				rs.breakers[rep.slot].Ready(now) && !fl.has(rep)
		})
		if rep == nil {
			c.armHedge(r, attempt+1)
			return
		}
		rs.hedger.NoteHedge()
		rep.inflight++
		rep.tokens += r.InputTokens
		rep.live[r.ID] = r
		fl.reps = append(fl.reps, rep)
		rep.sys.Submit(r)
		rs.breakers[rep.slot].ReportSuccess()
		if c.tl != nil {
			c.tl.Instant("router", "hedge", now,
				timeline.I("replica", rep.slot),
				timeline.I("attempt", attempt))
		}
		c.armHedge(r, attempt+1)
	})
}

// settleFlight applies one buffered outcome for a hedged request: the
// first outcome from any member wins and flows to the outer
// environment, later ones only release their replica's accounting. The
// flight (and the ownership entry) dissolve once every copy reported.
func (c *Cluster) settleFlight(r *replica, fl *flight, o outcome, id string) {
	if !fl.remove(r) {
		c.stale++ // a copy lost to a crash reported late
		return
	}
	tok := o.done.InputTokens
	if o.isShed {
		tok = o.shed.InputTokens
	}
	delete(r.live, id)
	r.inflight--
	r.tokens -= tok
	if !fl.won {
		fl.won = true
		if r != fl.primary {
			c.rs.hedger.NoteWin()
		}
		if o.isShed {
			c.outer.Shed(o.shed)
		} else {
			c.outer.Complete(o.done)
		}
	}
	if len(fl.reps) == 0 {
		delete(c.rs.flights, id)
		delete(c.routed, id)
	}
}

// detachFlight removes a failed-over or handed-off copy from its
// flight, reporting whether a re-dispatch is unnecessary: either
// surviving copies still carry the request (ownership transfers to the
// first survivor), or the flight already settled — its outcome flowed
// to the outer environment when an earlier copy won, and Env.Complete
// is exactly-once, so re-dispatching would deliver it twice and end
// the run with another request unserved.
func (c *Cluster) detachFlight(rep *replica, w workload.Request) bool {
	fl, ok := c.rs.flights[w.ID]
	if !ok {
		return false
	}
	fl.remove(rep)
	if len(fl.reps) > 0 {
		c.routed[w.ID] = fl.reps[0]
		return true
	}
	delete(c.rs.flights, w.ID)
	if fl.won {
		delete(c.routed, w.ID)
		return true
	}
	return false
}

// onLinkFault applies a KindLinkDegrade event: the targeted replica's
// link black-holes (LinkLoss) or delays (LinkDelay) dispatches for the
// event duration, then restores and flushes whatever is still parked.
// The generation fence keeps overlapping link faults and crashes from
// restoring each other's state.
func (c *Cluster) onLinkFault(ev faults.Event) {
	c.advanceTo(c.outer.Sim.Now())
	rep := c.replicas[ev.Replica%len(c.replicas)]
	if rep.down {
		c.schedulePump()
		return // the machine is gone; its link state is moot
	}
	rs := c.rs
	rs.linkFaults++
	rep.linkGen++
	gen := rep.linkGen
	rep.linkLost = ev.LinkLoss
	rep.linkDelay = ev.LinkDelay
	if c.tl != nil {
		mode := "degrade"
		if ev.LinkLoss {
			mode = "loss"
		}
		c.tl.Instant("router", "link-fault", c.outer.Sim.Now(),
			timeline.I("replica", rep.slot),
			timeline.S("mode", mode))
	}
	c.outer.Sim.PostAfter(ev.Duration, func() {
		c.advanceTo(c.outer.Sim.Now())
		if c.replicas[rep.slot] == rep && rep.linkGen == gen {
			rep.linkLost = false
			rep.linkDelay = 0
			held := rep.held
			rep.held = nil
			for _, h := range held {
				rep.sys.Submit(h.req)
				// A protected dispatch delivered at restore resolves its
				// breaker outcome as a success — a half-open probe parked
				// here would otherwise never report and wedge the breaker.
				if h.protected {
					rs.breakers[rep.slot].ReportSuccess()
				}
			}
			c.recoveries++
			c.recoveryTime += ev.Duration
			if c.tl != nil {
				c.tl.Instant("router", "link-restore", c.outer.Sim.Now(),
					timeline.I("replica", rep.slot),
					timeline.I("flushed", len(held)))
			}
		}
		c.schedulePump()
	})
	c.schedulePump()
}

// onRouterBlip freezes router dispatch entirely for the event duration;
// arrivals park in blipHeld and flush when the last overlapping blip
// ends. Blips hit the router itself, so they apply identically with
// mitigations on or off.
func (c *Cluster) onRouterBlip(ev faults.Event) {
	c.advanceTo(c.outer.Sim.Now())
	rs := c.rs
	now := c.outer.Sim.Now()
	if until := now + ev.Duration; until > rs.blipUntil {
		rs.blipUntil = until
	}
	if c.tl != nil {
		c.tl.Instant("router", "blip", now, timeline.F("duration", ev.Duration.Float()))
	}
	c.outer.Sim.PostAfter(ev.Duration, func() {
		c.advanceTo(c.outer.Sim.Now())
		if c.outer.Sim.Now() >= rs.blipUntil {
			flush := rs.blipHeld
			rs.blipHeld = nil
			for _, h := range flush {
				// Fresh arrivals never reached the admission bucket and
				// are charged now, at flush time; parked re-dispatches
				// (admit=false) were already admitted and replay as such.
				c.submitResilient(h.req, h.admit)
			}
			c.recoveries++
			c.recoveryTime += ev.Duration
		}
		c.schedulePump()
	})
	c.schedulePump()
}

// onReplicaDrain runs the graceful drain/restart protocol: the replica
// stops admitting, hands its waiting queue (which holds no KV) to
// healthy peers, finishes in-flight work on its own clock, and readmits
// after the restart window. Without mitigations armed there is no
// graceful protocol — the drain degenerates to an abrupt crash/restart
// through the PR 3 failover machinery.
func (c *Cluster) onReplicaDrain(ev faults.Event) {
	if c.rs.cfg == nil {
		c.onReplicaCrash(ev)
		return
	}
	c.advanceTo(c.outer.Sim.Now())
	rep := c.replicas[ev.Replica%len(c.replicas)]
	if rep.down || rep.draining {
		c.schedulePump()
		return
	}
	rs := c.rs
	rep.draining = true
	rs.drains++
	waiting := rep.sys.ExtractWaiting()
	if c.tl != nil {
		c.tl.Instant("router", "drain", c.outer.Sim.Now(),
			timeline.I("replica", rep.slot),
			timeline.I("handoff", len(waiting)))
	}
	for _, w := range waiting {
		delete(rep.live, w.ID)
		rep.inflight--
		rep.tokens -= w.InputTokens
		rs.handoffs++
		if c.detachFlight(rep, w) {
			continue // a hedge copy survives elsewhere
		}
		delete(c.routed, w.ID)
		c.submitResilient(w, false)
	}
	c.outer.Sim.PostAfter(ev.Recovery, func() {
		c.advanceTo(c.outer.Sim.Now())
		if c.replicas[rep.slot] == rep && !rep.down {
			rep.draining = false
			c.recoveries++
			c.recoveryTime += ev.Recovery
			if c.tl != nil {
				c.tl.Instant("router", "readmit", c.outer.Sim.Now(),
					timeline.I("replica", rep.slot))
			}
		}
		c.flushDeferred()
		c.schedulePump()
	})
	c.schedulePump()
}

// Quiesce advances the replicas until no private-clock events remain.
// The serving run loop stops as soon as every trace request has
// resolved, which can leave hedge-loser copies mid-decode on their
// replicas; runs that end with CheckDrained call Quiesce first so those
// copies finish and release their KV.
func (c *Cluster) Quiesce() {
	for {
		var at sim.Time
		found := false
		for _, r := range c.replicas {
			if r.down {
				continue
			}
			if t, ok := r.env.Sim.NextAt(); ok && (!found || t > at) {
				at, found = t, true
			}
		}
		if !found {
			return
		}
		c.advanceTo(at)
	}
}

// DispatchTimeouts returns how many parked dispatches were re-routed by
// the timeout, zero without mitigations armed.
func (c *Cluster) DispatchTimeouts() int {
	if c.rs == nil {
		return 0
	}
	return c.rs.timeouts
}
