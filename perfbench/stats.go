package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// beyond returns how many of n sorted samples lie strictly above the
// nearest-rank p-quantile (rank ceil(p·n)).
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return n - rank
}

// tailPercentile returns the nearest-rank p-quantile of xs and whether it
// may be reported: at least minTail samples must lie beyond it, so that
// the figure is not set by a handful of outliers. xs is not modified.
func tailPercentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], beyond(len(s), p) >= minTail
}

// meanPercentile returns the mean over traces of each trace's p-quantile,
// with a note giving the sample counts. Tail samples of one trace
// cluster in its few worst episodes, so a percentile pooled over traces
// is set by the worst trace; the mean over traces is the expected
// percentile of one trace. It fails unless every trace has minTail
// samples beyond its percentile.
func meanPercentile(traces [][]float64, p float64) (float64, string, error) {
	if len(traces) == 0 {
		return math.NaN(), "", errors.New("no traces")
	}
	sum, least, fewest := 0.0, -1, -1
	for _, xs := range traces {
		v, _ := tailPercentile(xs, p)
		sum += v
		if b := beyond(len(xs), p); least < 0 || b < least {
			least, fewest = b, len(xs)
		}
	}
	note := fmt.Sprintf("mean of %d traces; smallest has %d samples, %d beyond", len(traces), fewest, least)
	if least < minTail {
		return sum / float64(len(traces)), note, fmt.Errorf("a trace has only %d samples beyond p%g", least, 100*p)
	}
	return sum / float64(len(traces)), note, nil
}

// median returns the median of xs (mean of the middle pair for an even
// count); NaN when empty. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// served is the outcome tally of one or more traces: every attempted
// request either completed (meeting both SLOs or not) or was shed.
type served struct {
	attempted int
	met       int     // completed within both SLOs
	shed      int     // refused or given up on
	makespan  float64 // simulated seconds, summed over traces
}

// sloAttainment is the share of attempted requests that met both SLOs; a
// shed request counts as a miss.
func (s served) sloAttainment() float64 { return ratio(s.met, s.attempted) }

// goodput is SLO-meeting requests per simulated second; shed requests
// never count.
func (s served) goodput() float64 {
	if s.makespan <= 0 {
		return 0
	}
	return float64(s.met) / s.makespan
}

// servedFrac is the share of attempted requests not shed.
func (s served) servedFrac() float64 { return ratio(s.attempted-s.shed, s.attempted) }

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
