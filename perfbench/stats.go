package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metric is one named, unit-carrying number of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pct is a percentile with the sample count it came from.
type pct struct {
	Q       float64 `json:"q"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
	Beyond  int     `json:"beyond"`
}

// percentile returns the nearest-rank q-quantile of xs (sorted in
// place). It fails unless at least 10 samples lie beyond it, the
// fewest that make a tail percentile worth quoting.
func percentile(xs []float64, q float64) (pct, error) {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return pct{}, fmt.Errorf("p%g of no samples", q*100)
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	p := pct{Q: q, Value: xs[rank], Samples: n, Beyond: n - 1 - rank}
	if q > 0.5 && p.Beyond < 10 {
		return p, fmt.Errorf("p%g needs 10 samples beyond it, has %d of %d", q*100, p.Beyond, n)
	}
	return p, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// windowLat is one latency window's percentiles, each with its sample
// count.
type windowLat struct {
	P50 pct `json:"p50"`
	P90 pct `json:"p90"`
}

// latencyStats is the fixed-rate phase's latency in ms: every window's
// percentiles, the medians over the windows, and the p99 over all the
// phase's requests.
type latencyStats struct {
	Windows []windowLat `json:"windows"`
	P50     float64     `json:"p50"`
	P90     float64     `json:"p90"`
	P99     pct         `json:"p99"`
}
