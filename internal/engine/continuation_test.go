package engine

import (
	"math"
	"strings"
	"testing"

	"repro/internal/resource"
	"repro/internal/sched"
	"repro/internal/units"
)

// abortRun prefills one request in layer groups of four, aborts the batch
// while its third group is still draining on the GPU, and requeues it.
// With drainFirst the stale group's Synchronize fires (and is dropped)
// before the new batch forms; without it the new batch forms at once and
// the stale callback fires in the middle of the new batch's first group.
// It returns the prefill predictions fed back after the abort, the
// layers done at each of those feedbacks, and the final layer count.
func abortRun(t *testing.T, drainFirst bool) (fed []units.Seconds, done []int, layers int) {
	t.Helper()
	pcfg := DefaultPrefillConfig(108)
	pcfg.LayerGroup = 4
	r := newRig(t, pcfg, DefaultDecodeConfig(108))
	p := r.prefill
	// Frozen corrections keep each prediction independent of how long
	// the groups before it took, so the two runs' feedback is comparable.
	r.est.SetFeedbackEnabled(false)
	aborted := false
	r.est.OnObserve = func(phase string, predicted, _ units.Seconds) {
		if phase == "prefill" && aborted {
			fed = append(fed, predicted)
			done = append(done, p.layersDone)
		}
	}
	var last sched.Decision
	launchedThird := false
	p.OnDecision = func(_ units.Seconds, d sched.Decision) {
		last = d
		launchedThird = launchedThird || p.layersDone == 8
	}
	batches := 0
	p.OnBatchStart = func(_ units.Seconds, _, _, _ int) {
		batches++
		if batches == 2 && !drainFirst && !r.res.Stream(resource.Prefill, last.PrefillSMs).Busy() {
			t.Fatal("the stale layer group drained before the new batch formed")
		}
	}
	r.env.Sim.At(0.001, func() { p.Submit(req("a", 0.001, 2048, 2)) })
	for !launchedThird {
		if !r.env.Sim.Step() {
			t.Fatal("run drained before the third layer group launched")
		}
	}
	stale := r.res.Stream(resource.Prefill, last.PrefillSMs)
	if !stale.Busy() {
		t.Fatal("third layer group is not in flight")
	}
	reqs := p.AbortBatch()
	aborted = true
	if drainFirst {
		for stale.Busy() || len(p.freeCycles) == 0 {
			if !r.env.Sim.Step() {
				t.Fatal("run drained before the stale group")
			}
		}
	}
	p.Requeue(reqs)
	r.env.Sim.RunAll(1 << 22)
	if got := len(r.env.Completed()); got != 1 {
		t.Fatalf("%d requests completed, want 1", got)
	}
	if batches != 2 {
		t.Fatalf("%d batches formed, want 2", batches)
	}
	return fed, done, p.layersDone
}

// TestAbortDropsStaleSyncWhileNewBatchRuns pins the epoch fence of the
// pooled cycle records: a layer group aborted while it drains must not
// advance, observe or publish for the batch formed right after the
// abort, even though that batch's cycles reuse the record the stale
// callback belonged to once it fired.
func TestAbortDropsStaleSyncWhileNewBatchRuns(t *testing.T) {
	fedAt, doneAt, layersAt := abortRun(t, false)
	fedRef, doneRef, layersRef := abortRun(t, true)
	if len(fedAt) != len(fedRef) || len(doneAt) != len(doneRef) {
		t.Fatalf("%d feedbacks after an immediate restart, %d after a drained one", len(fedAt), len(fedRef))
	}
	for i := range fedRef {
		if math.Float64bits(fedAt[i].Float()) != math.Float64bits(fedRef[i].Float()) || doneAt[i] != doneRef[i] {
			t.Fatalf("feedback %d: (%v at %d layers) vs drained reference (%v at %d layers)",
				i, fedAt[i], doneAt[i], fedRef[i], doneRef[i])
		}
		if doneRef[i] != 4*i {
			t.Fatalf("feedback %d at %d layers done, want %d", i, doneRef[i], 4*i)
		}
	}
	if len(fedRef) != 8 {
		t.Fatalf("%d prefill feedbacks for a 32-layer batch in groups of 4, want 8", len(fedRef))
	}
	if layersAt != 32 || layersRef != 32 {
		t.Fatalf("final layer count %d (drained reference %d), want 32", layersAt, layersRef)
	}
}

// TestDecodeStepLaunchWhileInFlightPanics checks the single-chain
// assumption behind the decode engine's field-held step state.
func TestDecodeStepLaunchWhileInFlightPanics(t *testing.T) {
	r := defaultRig(t)
	r.env.Sim.At(0.001, func() { r.prefill.Submit(req("a", 0.001, 512, 50)) })
	for !r.decode.inFlight {
		if !r.env.Sim.Step() {
			t.Fatal("run drained before a decode step launched")
		}
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "in flight") {
			t.Fatalf("second launch: recovered %q, want an in-flight panic", msg)
		}
	}()
	r.decode.cycle()
}

// TestQueueHeadsDoNotPinPoppedRequests checks that admitting from the
// head of the waiting and pending queues compacts them in place. A queue
// whose head slid forward (q = q[1:]) would lose capacity and keep the
// popped request, with its KV sequence and trail, reachable from the
// array's abandoned front; compaction keeps the capacity, and the slots
// past the length hold no request.
func TestQueueHeadsDoNotPinPoppedRequests(t *testing.T) {
	pcfg := DefaultPrefillConfig(108)
	pcfg.MaxBatchReqs = 2
	r := newRig(t, pcfg, DefaultDecodeConfig(108))
	for i := 0; i < 12; i++ {
		id := string(rune('a' + i))
		r.env.Sim.At(0.001, func() { r.prefill.Submit(req(id, 0.001, 256, 40)) })
	}
	queues := []struct {
		name string
		q    *[]*Req
		cap  int
	}{
		{name: "prefill waiting", q: &r.prefill.waiting},
		{name: "decode pending", q: &r.decode.pending},
		{name: "decode batch", q: &r.decode.batch},
	}
	pops := 0
	for r.env.Sim.Step() {
		for i := range queues {
			qs := &queues[i]
			q := *qs.q
			if cap(q) < qs.cap {
				t.Fatalf("%s lost capacity (%d -> %d) at t=%v: its head slid", qs.name, qs.cap, cap(q), r.env.Sim.Now())
			}
			if cap(q) == qs.cap && len(q) < cap(q) {
				pops++
			}
			qs.cap = cap(q)
			for _, x := range q[len(q):cap(q)] {
				if x != nil {
					t.Fatalf("%s pins a popped request at t=%v", qs.name, r.env.Sim.Now())
				}
			}
		}
	}
	if got := len(r.env.Completed()); got != 12 || pops == 0 {
		t.Fatalf("%d of 12 completed, %d events with popped slots", got, pops)
	}
}
