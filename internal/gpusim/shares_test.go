package gpusim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
	"repro/internal/smmask"
	"repro/internal/units"
)

// The reference SM-share functions below are the per-SM, per-kernel
// loops the simulator evaluated live before recompute cached the shares.
// They are frozen here as the oracle the cached values must match bit for
// bit; do not change them along with the simulator.

// refMaskHealth is the reference summed health of a mask.
func refMaskHealth(g *GPU, m smmask.Mask) float64 {
	if g.health == nil {
		return float64(m.Count())
	}
	total := 0.0
	m.ForEach(func(i int) { total += g.health[i] })
	return total
}

// refEffectiveSMs is the reference compute share of a resident kernel.
func refEffectiveSMs(g *GPU, l *launch) units.SMs {
	overlapped := false
	for _, o := range g.running {
		if o != l && o.mask.Overlaps(l.mask) {
			overlapped = true
			break
		}
	}
	if !overlapped {
		return units.SMs(refMaskHealth(g, l.mask))
	}
	eff := units.SMs(0)
	l.mask.ForEach(func(i int) {
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
	})
	return eff
}

// refOverlapFraction is the reference SM-overlap fraction of a kernel.
func refOverlapFraction(g *GPU, l *launch) float64 {
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

// oracleBackend replaces every resident kernel's cached shares with the
// reference values before delegating, so a GPU running it computes rates,
// completions and accounting exactly as the live per-kernel loops did.
type oracleBackend struct{ inner LatencyBackend }

func (o oracleBackend) Name() string            { return o.inner.Name() }
func (o oracleBackend) Begin(g *GPU, l *launch) { o.inner.Begin(g, l) }
func (o oracleBackend) Demand(g *GPU, l *launch) KernelDemand {
	l.meff = refEffectiveSMs(g, l)
	l.ov = refOverlapFraction(g, l)
	l.occ = refMaskHealth(g, l.mask)
	return o.inner.Demand(g, l)
}

// oracleScenario is one seeded launch/finish/SetSMHealth sequence.
type oracleScenario struct {
	name     string
	spec     Spec
	streams  int
	degraded bool
	backend  func() LatencyBackend
	// crowd launches one long kernel on every stream up front, so more
	// than maxCoverKernels kernels are resident at once.
	crowd bool
	// ops is the number of random operations after the set-up.
	ops int
}

// oracleTable is a small latency table for the sampled backend covering
// the operator names the scenarios launch.
func oracleTable() *LatencyTable {
	t := &LatencyTable{RefSMs: 54, Ops: map[string][]OpSupport{}}
	for _, op := range []string{"gemm", "attn", "norm"} {
		t.Ops[op] = []OpSupport{
			{Tokens: 16, Q: []units.Seconds{2e-6, 4e-6, 9e-6}},
			{Tokens: 4096, Q: []units.Seconds{4e-5, 9e-5, 2e-4}},
		}
	}
	return t
}

// randomMask draws a non-empty, usually non-contiguous subset of the
// device's SMs: a random run plus scattered singles.
func randomMask(rng *rand.Rand, numSMs int) smmask.Mask {
	lo := rng.Intn(numSMs)
	hi := lo + 1 + rng.Intn(numSMs-lo)
	m := smmask.Range(lo, hi)
	for k := rng.Intn(numSMs / 4); k > 0; k-- {
		i := rng.Intn(numSMs)
		if rng.Intn(3) == 0 {
			m.Clear(i)
		} else {
			m.Set(i)
		}
	}
	if m.IsEmpty() {
		m.Set(lo)
	}
	return m
}

// runOracleScenario drives one seeded sequence on a fresh GPU and
// returns every kernel record and the final accounting. check, when
// non-nil, runs after every re-rate.
func runOracleScenario(sc oracleScenario, seed int64, oracle bool, check func(g *GPU)) ([]KernelRecord, Stats) {
	s := sim.New()
	g := New(s, sc.spec)
	b := sc.backend()
	if oracle {
		b = oracleBackend{b}
	}
	g.SetBackend(b)
	if check != nil {
		g.Sampler = func(sim.Time, Utilization) { check(g) }
	}
	var recs []KernelRecord
	g.Trace = func(r KernelRecord) { recs = append(recs, r) }

	rng := rand.New(rand.NewSource(seed))
	n := sc.spec.NumSMs
	streams := make([]*Stream, sc.streams)
	for i := range streams {
		streams[i] = g.NewStream(randomMask(rng, n))
	}
	names := []string{"gemm", "attn", "norm", "unlisted"}
	kernel := func() Kernel {
		k := Kernel{
			Name:  names[rng.Intn(len(names))],
			Tag:   []string{"prefill", "decode"}[rng.Intn(2)],
			FLOPs: units.FLOPs(math.Exp(rng.Float64()*8) * 1e8),
			Bytes: units.Bytes(math.Exp(rng.Float64()*8) * 1e5),
		}
		switch rng.Intn(4) {
		case 0:
			k.Grid = 1 + rng.Intn(4*n)
			k.Efficiency = 0.5 + rng.Float64()/2
		case 1:
			k.Graph, k.GraphHead = true, rng.Intn(2) == 0
		case 2:
			k.FLOPs = 0
		}
		k.Tokens = 1 + rng.Intn(4096)
		return k
	}
	if sc.crowd {
		for _, st := range streams {
			k := kernel()
			k.FLOPs, k.Bytes = 1e14, 1e9
			g.Launch(st, k, nil)
		}
	}
	for op := 0; op < sc.ops; op++ {
		switch r := rng.Intn(10); {
		case r < 5:
			st := streams[rng.Intn(len(streams))]
			for k := 1 + rng.Intn(3); k > 0; k-- {
				g.Launch(st, kernel(), nil)
			}
		case r < 6:
			streams[rng.Intn(len(streams))].SetMask(randomMask(rng, n))
		case r < 7 && sc.degraded:
			first := rng.Intn(n)
			cnt := 1 + rng.Intn(n-first)
			h := []float64{0, 0.25, 0.6, 1}[rng.Intn(4)]
			g.SetSMHealth(first, cnt, h)
		default:
			for k := 1 + rng.Intn(6); k > 0 && s.Step(); k-- {
			}
		}
	}
	s.RunAll(1 << 20)
	return recs, g.Stats()
}

func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestCachedSharesMatchReference is the oracle for the cached SM shares:
// on seeded random launch/finish/SetSMHealth sequences over overlapping,
// non-contiguous masks, healthy and degraded, under all three backends,
// the cached share, overlap and occupancy of every resident kernel equal
// the reference loops at every re-rate, and every kernel record and
// accounting integral equals a run computed with the reference values,
// by bits, with no tolerance.
func TestCachedSharesMatchReference(t *testing.T) {
	wide := A100()
	wide.Name, wide.NumSMs = "wide", 200 // masks span all four mask words
	backends := map[string]func() LatencyBackend{
		BackendAnalytic:  func() LatencyBackend { return AnalyticBackend{} },
		BackendSampled:   func() LatencyBackend { return NewSampledBackend(oracleTable(), 7) },
		BackendHierarchy: func() LatencyBackend { return HierarchyBackend{} },
	}
	var scenarios []oracleScenario
	for _, bn := range []string{BackendAnalytic, BackendSampled, BackendHierarchy} {
		for _, spec := range []Spec{A100(), wide} {
			for _, degraded := range []bool{false, true} {
				scenarios = append(scenarios, oracleScenario{
					name:    fmt.Sprintf("%s/%s/degraded=%v", bn, spec.Name, degraded),
					spec:    spec,
					streams: 6, degraded: degraded, backend: backends[bn], ops: 400,
				})
			}
		}
	}
	scenarios = append(scenarios, oracleScenario{
		name: "analytic/crowd", spec: A100(), streams: maxCoverKernels + 6,
		degraded: true, backend: backends[BackendAnalytic], crowd: true, ops: 60,
	})

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				rerates, maxResident := 0, 0
				mismatches := 0
				check := func(g *GPU) {
					rerates++
					if len(g.running) > maxResident {
						maxResident = len(g.running)
					}
					for _, l := range g.running {
						if mismatches > 5 {
							return
						}
						if want := refEffectiveSMs(g, l); !bitsEqual(l.meff.Float(), want.Float()) {
							t.Errorf("seed %d: %q meff %v, reference %v", seed, l.k.Name, l.meff, want)
							mismatches++
						}
						if want := refOverlapFraction(g, l); !bitsEqual(l.ov, want) {
							t.Errorf("seed %d: %q overlap %v, reference %v", seed, l.k.Name, l.ov, want)
							mismatches++
						}
						if want := refMaskHealth(g, l.mask); !bitsEqual(l.occ, want) {
							t.Errorf("seed %d: %q occupancy %v, reference %v", seed, l.k.Name, l.occ, want)
							mismatches++
						}
					}
				}
				got, gotStats := runOracleScenario(sc, seed, false, check)
				want, wantStats := runOracleScenario(sc, seed, true, nil)
				if rerates == 0 || len(got) == 0 {
					t.Fatalf("seed %d: scenario ran %d re-rates, %d kernels", seed, rerates, len(got))
				}
				if sc.crowd && maxResident <= maxCoverKernels {
					t.Fatalf("seed %d: at most %d kernels resident, fallback never ran", seed, maxResident)
				}
				if len(got) != len(want) {
					t.Fatalf("seed %d: %d kernel records, reference %d", seed, len(got), len(want))
				}
				for i := range got {
					a, b := got[i], want[i]
					if a.Name != b.Name || a.Tag != b.Tag || a.SMs != b.SMs || a.Grid != b.Grid ||
						!bitsEqual(a.Start.Float(), b.Start.Float()) || !bitsEqual(a.End.Float(), b.End.Float()) ||
						!bitsEqual(a.FLOPs.Float(), b.FLOPs.Float()) || !bitsEqual(a.Bytes.Float(), b.Bytes.Float()) ||
						!bitsEqual(a.WaveIdle, b.WaveIdle) {
						t.Fatalf("seed %d: record %d = %+v, reference %+v", seed, i, a, b)
					}
				}
				if !bitsEqual(gotStats.FLOPs.Float(), wantStats.FLOPs.Float()) ||
					!bitsEqual(gotStats.Bytes.Float(), wantStats.Bytes.Float()) ||
					!bitsEqual(gotStats.SMBusyTime.Float(), wantStats.SMBusyTime.Float()) ||
					!bitsEqual(gotStats.AnyBusyTime.Float(), wantStats.AnyBusyTime.Float()) {
					t.Fatalf("seed %d: stats %+v, reference %+v", seed, gotStats, wantStats)
				}
			}
		})
	}
}
