package gpusim

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/forkjoin"
	"repro/internal/units"
)

// OpSupport is one support point of an operator's fitted latency
// distribution: the latency quantile grid observed at one token count.
// Q ascends both within a support (quantile levels) and, after isotonic
// fitting, across supports of the same operator (token counts), which is
// what makes sampled latencies monotone non-decreasing in tokens at any
// fixed quantile.
type OpSupport struct {
	// Tokens is the size coordinate (Kernel.Tokens) of this support.
	Tokens int
	// Q is the ascending latency quantile grid; Q[0] is the distribution
	// minimum and Q[len(Q)-1] its maximum.
	Q []units.Seconds
}

// LatencyTable holds fitted per-operator latency distributions for the
// sampled backend, normalised to solo execution on RefSMs SMs of the
// profiled device. internal/calib fits tables from trace files or by
// self-calibration against the analytic model.
type LatencyTable struct {
	// RefSMs is the SM count the samples were collected at; the backend
	// rescales draws to the kernel's actual allocation via the analytic
	// roofline at RefSMs.
	RefSMs int
	// Ops maps operator name (Kernel.Name) to its ascending-token
	// support points.
	Ops map[string][]OpSupport
}

// Validate checks the table invariants the sampled backend relies on:
// positive RefSMs, non-empty ascending supports, and per-support
// ascending positive finite quantile grids of a consistent size.
func (t *LatencyTable) Validate() error {
	if t == nil {
		return fmt.Errorf("latency table: nil")
	}
	if t.RefSMs <= 0 {
		return fmt.Errorf("latency table: non-positive RefSMs %d", t.RefSMs)
	}
	if len(t.Ops) == 0 {
		return fmt.Errorf("latency table: no operators")
	}
	for _, op := range sortedOpNames(t.Ops) {
		sup := t.Ops[op]
		if len(sup) == 0 {
			return fmt.Errorf("latency table: operator %q has no supports", op)
		}
		grid := len(sup[0].Q)
		prevTok := 0
		for i, s := range sup {
			if s.Tokens <= prevTok {
				return fmt.Errorf("latency table: operator %q support %d: tokens %d not ascending (previous %d)",
					op, i, s.Tokens, prevTok)
			}
			prevTok = s.Tokens
			if len(s.Q) == 0 || len(s.Q) != grid {
				return fmt.Errorf("latency table: operator %q support %d: quantile grid size %d (want %d)",
					op, i, len(s.Q), grid)
			}
			prev := units.Seconds(0)
			for j, q := range s.Q {
				if units.IsNaN(q) || units.IsInf(q, 0) || q <= 0 {
					return fmt.Errorf("latency table: operator %q tokens %d: quantile %d is %v",
						op, s.Tokens, j, q)
				}
				if q < prev {
					return fmt.Errorf("latency table: operator %q tokens %d: quantile %d (%v) below quantile %d (%v)",
						op, s.Tokens, j, q, j-1, prev)
				}
				prev = q
			}
		}
	}
	return nil
}

// sortedOpNames returns the table's operator names in sorted order, for
// deterministic iteration.
func sortedOpNames(m map[string][]OpSupport) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Sample draws the latency of operator op at the given token count from
// the fitted distribution: the quantile grid is inverse-CDF sampled at
// u ∈ [0,1), interpolating linearly within the grid and between the two
// token supports bracketing tokens. Returns false when the operator is
// not in the table. The result always lies within the operator's fitted
// [min, max] support, and for fixed u is monotone non-decreasing in
// tokens (both inherited from Validate's ascending-grid invariants).
//
// This is the per-kernel latency lookup of the sampled backend, called
// once per launch on the simulator's event path.
//
//bullet:hotpath
func (t *LatencyTable) Sample(op string, tokens int, u float64) (units.Seconds, bool) {
	sup := t.Ops[op]
	if len(sup) == 0 {
		return 0, false
	}
	if u < 0 {
		u = 0
	} else if u > 1 {
		u = 1
	}
	// Bracket tokens between two supports (manual binary search: the
	// sort.Search closure would allocate on this path).
	lo, hi := 0, len(sup)
	for lo < hi {
		mid := (lo + hi) / 2
		if sup[mid].Tokens < tokens {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// lo is the first support with Tokens >= tokens.
	switch {
	case lo == 0:
		return quantileAt(sup[0].Q, u), true
	case lo == len(sup):
		return quantileAt(sup[len(sup)-1].Q, u), true
	}
	a, b := sup[lo-1], sup[lo]
	qa, qb := quantileAt(a.Q, u), quantileAt(b.Q, u)
	w := float64(tokens-a.Tokens) / float64(b.Tokens-a.Tokens)
	return qa + units.Scale(qb-qa, w), true
}

// quantileAt evaluates an ascending quantile grid at level u ∈ [0,1] with
// linear interpolation between grid points.
func quantileAt(q []units.Seconds, u float64) units.Seconds {
	if len(q) == 1 {
		return q[0]
	}
	pos := u * float64(len(q)-1)
	i := int(pos)
	if i >= len(q)-1 {
		return q[len(q)-1]
	}
	frac := pos - float64(i)
	return q[i] + units.Scale(q[i+1]-q[i], frac)
}

// SampledBackend is the profile-driven latency model (LLM-Emu style): at
// each kernel launch it draws the kernel's solo latency from a fitted
// per-operator distribution and rescales the analytic nominal rate so the
// kernel's solo time on RefSMs would equal the draw. Spatial effects
// (mask splits, co-run penalties, bandwidth water-filling) still come
// from the fluid model; the draw injects profiled magnitude and run-to-run
// dispersion the closed-form roofline cannot express.
//
// Draws consume a deterministic splitmix stream (forkjoin.ForkSeed) keyed
// by seed and an increasing launch counter, so a replay with the same
// seed observes identical latencies — including under -race and across
// serial/parallel cluster harnesses, because each replica owns a backend.
type SampledBackend struct {
	table *LatencyTable
	seed  int64
	draws int
	miss  int
}

// NewSampledBackend validates the table and builds a backend over it.
func NewSampledBackend(table *LatencyTable, seed int64) *SampledBackend {
	if err := table.Validate(); err != nil {
		panic(fmt.Sprintf("gpusim: NewSampledBackend: %v", err))
	}
	return &SampledBackend{table: table, seed: seed}
}

// Name implements LatencyBackend.
func (b *SampledBackend) Name() string { return BackendSampled }

// Draws returns the number of latency draws consumed so far.
func (b *SampledBackend) Draws() int { return b.draws }

// Misses returns the number of launches whose operator was absent from
// the table and therefore fell back to the analytic rate.
func (b *SampledBackend) Misses() int { return b.miss }

// Table returns the fitted table the backend samples from.
func (b *SampledBackend) Table() *LatencyTable { return b.table }

// Begin implements LatencyBackend: one distribution draw per launch,
// fixing the kernel's rate multiplier for its whole residency.
func (b *SampledBackend) Begin(g *GPU, l *launch) {
	u := b.nextUniform()
	sampled, ok := b.table.Sample(l.k.Name, l.k.Tokens, u)
	if !ok {
		b.miss++
		return
	}
	ref := refSoloLatency(g.Spec, l.k, b.table.RefSMs)
	if ref > 0 && sampled > 0 {
		l.scale = units.Ratio(ref, sampled)
	}
}

// Demand implements LatencyBackend: the analytic demand with the launch's
// drawn rate multiplier applied, so bandwidth consumption tracks the
// sampled rate.
func (b *SampledBackend) Demand(g *GPU, l *launch) KernelDemand {
	nominal, _ := g.soloRate(l)
	rate := units.Scale(nominal, l.scale)
	return KernelDemand{Rate: rate, BW: l.k.Bytes.AtRate(rate), Volume: l.k.Bytes}
}

// nextUniform advances the splitmix draw stream and maps it to [0,1).
// Consuming one value per launch (hits and misses alike) keeps the
// stream alignment independent of table contents.
func (b *SampledBackend) nextUniform() float64 {
	z := forkjoin.ForkSeed(b.seed, b.draws)
	b.draws++
	return float64(uint64(z)>>11) / float64(uint64(1)<<53)
}

// refSoloLatency is the analytic solo latency of kernel k on m healthy
// SMs of spec with no co-residents: the reference point that anchors
// sampled draws to the device the table was profiled on.
func refSoloLatency(spec Spec, k Kernel, m int) units.Seconds {
	if m <= 0 || m > spec.NumSMs {
		m = spec.NumSMs
	}
	frac := float64(m) / float64(spec.NumSMs)
	eff := k.Efficiency
	if eff == 0 {
		eff = 1
	}
	wave := 1 - WaveIdleRatio(k.Grid, m)
	computeCap := units.Scale(units.Scale(spec.PeakFLOPS, eff), frac)
	bwCap := units.Scale(spec.PeakBW, math.Min(1, math.Pow(frac, spec.BWScaleExp)))
	t := units.Seconds(0)
	if k.FLOPs > 0 {
		t = units.Max(t, units.Over(k.FLOPs.Div(computeCap), wave))
	}
	if k.Bytes > 0 {
		t = units.Max(t, k.Bytes.Div(bwCap))
	}
	if k.CommBytes > 0 && spec.LinkBW > 0 {
		t = units.Max(t, k.CommBytes.Div(spec.LinkBW))
	}
	return t
}
