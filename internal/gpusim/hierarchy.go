package gpusim

import "repro/internal/units"

// HierarchyBackend layers a last-level-cache reuse model on top of the
// analytic fluid model: co-located kernels shrink each other's effective
// L2 share, converting cache hits back into DRAM traffic — the one
// contention effect the fluid model's bandwidth water-filling cannot
// express, because water-filling only divides traffic that already goes
// to DRAM.
//
// Per kernel, the working set is its DRAM byte volume; a fraction
// Spec.L2ReuseFrac of accesses are re-references that hit L2 when the
// working set fits the kernel's cache share. Solo, the share is the whole
// cache; co-located, the cache is partitioned in proportion to working
// sets. The miss-rate inflation between those two regimes slows the
// kernel (weighted by how memory-bound it is) and inflates its DRAM
// demand, feeding back into the water-filling.
//
// A kernel running alone — or a device with no modelled L2 — reproduces
// the analytic backend bit for bit: the inflation factor is exactly 1 and
// the arithmetic below degenerates to identity operations.
type HierarchyBackend struct{}

// Name implements LatencyBackend.
func (HierarchyBackend) Name() string { return BackendHierarchy }

// Begin implements LatencyBackend; the hierarchy model has no
// per-execution state.
func (HierarchyBackend) Begin(*GPU, *launch) {}

// Demand implements LatencyBackend: the analytic demand, slowed by the
// cache-interference inflation and with DRAM traffic inflated by the
// extra misses.
func (HierarchyBackend) Demand(g *GPU, l *launch) KernelDemand {
	nominal, _ := g.soloRate(l)
	infl := cacheInflation(g, l)
	// Compute-bound kernels hide extra DRAM latency behind arithmetic:
	// the slowdown is the inflation weighted by the kernel's memory-bound
	// fraction (1 - weight). infl == 1 makes every expression identity.
	slow := 1 + (infl-1)*(1-l.weight)
	rate := units.Over(nominal, slow)
	// The extra misses are real DRAM traffic: one full execution now
	// moves infl× the bytes, so both the instantaneous bandwidth and the
	// throttling denominator inflate.
	volume := units.Scale(l.k.Bytes, infl)
	return KernelDemand{Rate: rate, BW: volume.AtRate(rate), Volume: volume}
}

// minMissRate floors the solo miss rate so near-perfectly-cached kernels
// cannot produce unbounded inflation ratios.
const minMissRate = 0.05

// cacheInflation returns the ratio of l's co-located to solo L2 miss
// rate, ≥ 1. Exactly 1 when the device models no L2, the kernel moves no
// DRAM bytes, or no co-resident kernel competes for the cache.
func cacheInflation(g *GPU, l *launch) float64 {
	capacity := g.Spec.L2Bytes.Float()
	reuse := g.Spec.L2ReuseFrac
	if capacity <= 0 || reuse <= 0 || l.k.Bytes <= 0 {
		return 1
	}
	ws := l.k.Bytes.Float()
	others := 0.0
	for _, o := range g.running {
		if o != l && o.k.Bytes > 0 {
			others += o.k.Bytes.Float()
		}
	}
	if others <= 0 {
		return 1
	}
	soloMiss := 1 - reuse*cacheHit(ws, capacity)
	if soloMiss < minMissRate {
		soloMiss = minMissRate
	}
	sharedMiss := 1 - reuse*cacheHit(ws, capacity*ws/(ws+others))
	if sharedMiss < soloMiss {
		return 1
	}
	return sharedMiss / soloMiss
}

// cacheHit is the fraction of re-references that hit a cache share of
// cap bytes given a working set of ws bytes: full reuse when the set
// fits, proportional otherwise.
func cacheHit(ws, cap float64) float64 {
	if ws <= cap {
		return 1
	}
	return cap / ws
}
