package metrics

import (
	"cmp"
	"math"
	"slices"
	"testing"
)

// specials are the values a fuzz byte below len(specials) decodes to:
// NaN, both infinities, both zeros and a few repeats, so inputs are full
// of duplicates and of the cases cmp.Less orders specially.
var specials = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	1, -1, 2.5, 1e300, -1e300, math.SmallestNonzeroFloat64}

// decodeFloats maps each fuzz byte to a float: a special value, or a
// small quarter-step number in [-28, 28].
func decodeFloats(data []byte) []float64 {
	xs := make([]float64, len(data))
	for i, b := range data {
		if int(b) < len(specials) {
			xs[i] = specials[b]
		} else {
			xs[i] = float64(int8(b)) / 4
		}
	}
	return xs
}

// sortedPercentile is the full-sort reference PercentileInPlace replaced.
func sortedPercentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	slices.Sort(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	pos := p * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// sameValue is bit equality, except that any two NaNs match and the two
// zeros match (cmp.Less, the order both sides use, does not separate
// them).
func sameValue(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	if a == 0 && b == 0 {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

func byBits(a, b float64) int { return cmp.Compare(math.Float64bits(a), math.Float64bits(b)) }

// FuzzPercentileInPlace checks the selection-based percentile against
// the full-sort reference over duplicates, ±Inf, NaN and signed zeros.
func FuzzPercentileInPlace(f *testing.F) {
	f.Add([]byte{20, 30, 40})
	f.Add([]byte{0, 0, 3, 4, 1, 2, 200, 17, 17, 17})
	f.Add([]byte{5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5})
	f.Add([]byte{255, 254, 253, 252, 251, 250, 249, 248, 247, 246, 245, 244, 243, 242, 241, 240, 100, 90})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		xs := decodeFloats(data)
		for _, p := range []float64{0, 0.5, 0.9, 0.99, 1} {
			want := sortedPercentile(xs, p)
			s := append([]float64(nil), xs...)
			if got := PercentileInPlace(s, p); !sameValue(got, want) {
				t.Fatalf("p=%v over %v: got %v, sorted reference %v", p, xs, got, want)
			}
			// Selection only permutes: the same multiset of bit patterns.
			ref := append([]float64(nil), xs...)
			slices.SortFunc(s, byBits)
			slices.SortFunc(ref, byBits)
			for i := range s {
				if math.Float64bits(s[i]) != math.Float64bits(ref[i]) {
					t.Fatalf("p=%v: selection lost or duplicated elements of %v", p, xs)
				}
			}
		}
	})
}
