package main

import (
	"time"

	"repro/internal/gpusim"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// span is one wall-clock interval around a call into the program.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run began
	End    int64  `json:"end_ns"`
}

// spans keeps every span of one run in memory; the traced run writes
// them out when it ends. All spans of a run share its run ID.
type spans struct {
	RunID string `json:"run_id"`
	t0    time.Time
	List  []span `json:"spans"`
}

func newSpans(runID string) *spans { return &spans{RunID: runID, t0: time.Now()} }

// begin opens a span and returns its ID.
func (s *spans) begin(name string, parent int) int {
	s.List = append(s.List, span{ID: len(s.List) + 1, Parent: parent, Name: name,
		Start: time.Since(s.t0).Nanoseconds()})
	return len(s.List)
}

// end closes a span and returns its duration in seconds.
func (s *spans) end(id int) float64 {
	sp := &s.List[id-1]
	sp.End = time.Since(s.t0).Nanoseconds()
	return float64(sp.End-sp.Start) / 1e9
}

// do runs fn inside a span.
func (s *spans) do(name string, parent int, fn func()) {
	id := s.begin(name, parent)
	fn()
	s.end(id)
}

// seconds returns the durations of every span with the given name.
func (s *spans) seconds(name string) []float64 {
	var out []float64
	for _, sp := range s.List {
		if sp.Name == name {
			out = append(out, float64(sp.End-sp.Start)/1e9)
		}
	}
	return out
}

// hooks counts events at the program's exported observation points.
// Replica-internal hooks exist only on single-replica workloads; the
// completion and shed hooks sit on the outer environment everywhere.
type hooks struct {
	replica      bool // the replica-internal counters below were attached
	kernels      int  // GPU.Trace: completed kernels
	recomputes   int  // GPU.Sampler: rate recomputations
	decisions    int  // Prefill/Decode.OnDecision
	repartitions int  // decisions that changed the SM split
	branches     map[string]int
	batches      int // Prefill.OnBatchStart
	batchTokens  int
	completions  int // Env.OnComplete
	sheds        int // Env.OnShed

	split    [2]int
	hasSplit bool
}

// attach installs the counting hooks on an instance, chaining any hook
// the program already installed.
func (h *hooks) attach(in *instance) {
	h.branches = map[string]int{}
	env := in.env
	prevComplete, prevShed := env.OnComplete, env.OnShed
	env.OnComplete = func(r metrics.Request) {
		h.completions++
		if prevComplete != nil {
			prevComplete(r)
		}
	}
	env.OnShed = func(r workload.Request) {
		h.sheds++
		if prevShed != nil {
			prevShed(r)
		}
	}
	b := in.bullet
	if b == nil {
		return
	}
	h.replica = true
	prevTrace, prevSampler := env.GPU.Trace, env.GPU.Sampler
	env.GPU.Trace = func(k gpusim.KernelRecord) {
		h.kernels++
		if prevTrace != nil {
			prevTrace(k)
		}
	}
	env.GPU.Sampler = func(t sim.Time, u gpusim.Utilization) {
		h.recomputes++
		if prevSampler != nil {
			prevSampler(t, u)
		}
	}
	b.Prefill.OnDecision = h.decisionHook(b.Prefill.OnDecision)
	b.Decode.OnDecision = h.decisionHook(b.Decode.OnDecision)
	prevBatch := b.Prefill.OnBatchStart
	b.Prefill.OnBatchStart = func(t sim.Time, tokens, reqs, waiting int) {
		h.batches++
		h.batchTokens += tokens
		if prevBatch != nil {
			prevBatch(t, tokens, reqs, waiting)
		}
	}
}

// add accumulates another trace's counts; nil adds nothing.
func (h *hooks) add(o *hooks) {
	if o == nil {
		return
	}
	h.replica = o.replica
	h.kernels += o.kernels
	h.recomputes += o.recomputes
	h.decisions += o.decisions
	h.repartitions += o.repartitions
	h.batches += o.batches
	h.batchTokens += o.batchTokens
	h.completions += o.completions
	h.sheds += o.sheds
	if h.branches == nil {
		h.branches = map[string]int{}
	}
	for k, v := range o.branches {
		h.branches[k] += v
	}
}

func (h *hooks) decisionHook(prev func(sim.Time, sched.Decision)) func(sim.Time, sched.Decision) {
	return func(t sim.Time, d sched.Decision) {
		h.decisions++
		h.branches[d.Branch]++
		split := [2]int{d.PrefillSMs, d.DecodeSMs}
		if h.hasSplit && split != h.split {
			h.repartitions++
		}
		h.split, h.hasSplit = split, true
		if prev != nil {
			prev(t, d)
		}
	}
}
