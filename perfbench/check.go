package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// checkRun verifies that every attempted request ended exactly once and
// that the token counts balance: completed IDs are unique trace IDs with
// the trace's lengths, shed IDs are unique trace IDs that did not
// complete, completed + shed = attempted, and the generated tokens equal
// the sum of the completed requests' output lengths.
func checkRun(tr *workload.Trace, completed []metrics.Request, shedIDs []string, shedCount int) error {
	want := make(map[string]workload.Request, len(tr.Requests))
	wantOut := 0
	for _, r := range tr.Requests {
		want[r.ID] = r
	}
	done := make(map[string]bool, len(completed))
	generated := 0
	for _, r := range completed {
		w, ok := want[r.ID]
		if !ok {
			return fmt.Errorf("completed request %q is not in the trace", r.ID)
		}
		if done[r.ID] {
			return fmt.Errorf("request %q completed twice", r.ID)
		}
		done[r.ID] = true
		if r.InputTokens != w.InputTokens {
			return fmt.Errorf("request %q: %d input tokens, trace has %d", r.ID, r.InputTokens, w.InputTokens)
		}
		generated += r.OutputTokens
		wantOut += w.OutputTokens
	}
	if generated != wantOut {
		return fmt.Errorf("generated %d tokens, completed requests asked for %d", generated, wantOut)
	}
	shed := make(map[string]bool, len(shedIDs))
	for _, id := range shedIDs {
		if _, ok := want[id]; !ok {
			return fmt.Errorf("shed request %q is not in the trace", id)
		}
		if shed[id] || done[id] {
			return fmt.Errorf("request %q ended more than once", id)
		}
		shed[id] = true
	}
	if len(shedIDs) != shedCount {
		return fmt.Errorf("%d shed requests retained, %d counted", len(shedIDs), shedCount)
	}
	if len(completed)+shedCount != len(tr.Requests) {
		return fmt.Errorf("%d completed + %d shed != %d attempted", len(completed), shedCount, len(tr.Requests))
	}
	return nil
}

// fingerprint hashes the simulated outputs of one run: each completed
// request's arrival, first-token and finish times and token counts, in
// ID order, then the shed IDs. Two runs with equal fingerprints produced
// the same simulated statistics.
func fingerprint(completed []metrics.Request, shedIDs []string) uint64 {
	reqs := append([]metrics.Request(nil), completed...)
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].ID < reqs[j].ID })
	h := fnv.New64a()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	for _, r := range reqs {
		h.Write([]byte(r.ID))
		put(math.Float64bits(r.Arrival.Float()))
		put(math.Float64bits(r.FirstToken.Float()))
		put(math.Float64bits(r.Finish.Float()))
		put(uint64(r.InputTokens))
		put(uint64(r.OutputTokens))
	}
	h.Write([]byte("shed"))
	for _, id := range shedIDs {
		h.Write([]byte(id))
		h.Write([]byte{0})
	}
	return h.Sum64()
}
