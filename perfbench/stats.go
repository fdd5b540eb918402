package main

import (
	"fmt"
	"math"
	"sort"
)

// dist summarizes a sample of timings: its median and the highest
// percentile that still has at least minBeyond samples above it.
type dist struct {
	N      int
	Median float64
	// TailQ is the tail percentile reported (99, 95, 90 or 75), or 0
	// when the sample is too small for any of them.
	TailQ int
	Tail  float64
}

// minBeyond is how many samples must lie beyond a tail percentile for
// it to be reported: with fewer, the "percentile" is one or two
// outliers rather than a property of the distribution.
const minBeyond = 10

// tailCandidates are the tail percentiles tried, highest first.
var tailCandidates = []int{99, 95, 90, 75}

func summarize(xs []float64) dist {
	d := dist{N: len(xs)}
	if len(xs) == 0 {
		return d
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d.Median = median(s)
	for _, q := range tailCandidates {
		// Nearest-rank percentile: the value at 1-based rank ceil(q/100 n).
		rank := int(math.Ceil(float64(q) / 100 * float64(len(s))))
		if len(s)-rank >= minBeyond {
			d.TailQ = q
			d.Tail = s[rank-1]
			break
		}
	}
	return d
}

// median of an ascending-sorted sample.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return median(s)
}

// geomeanOfMedians is the geometric mean of each group's median. A
// fixed job set mixes 0.1 s and 5 s passes; the geometric mean weighs
// a relative change of every job alike, and per-job medians keep one
// slow repeat from moving it.
func geomeanOfMedians[K comparable](groups map[K][]float64) float64 {
	if len(groups) == 0 {
		return 0
	}
	logs := 0.0
	for _, xs := range groups {
		logs += math.Log(medianOf(xs))
	}
	return math.Exp(logs / float64(len(groups)))
}

// meanOfMedians is the mean of each group's median.
func meanOfMedians[K comparable](groups map[K][]float64) float64 {
	var meds []float64
	for _, xs := range groups {
		meds = append(meds, medianOf(xs))
	}
	return mean(meds)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// String renders the distribution with its sample count, for the
// human-readable report.
func (d dist) String() string {
	if d.N == 0 {
		return "no samples"
	}
	if d.TailQ == 0 {
		return fmt.Sprintf("p50 %.6g (n=%d; no tail percentile has %d samples beyond it)", d.Median, d.N, minBeyond)
	}
	return fmt.Sprintf("p50 %.6g, p%d %.6g (n=%d)", d.Median, d.TailQ, d.Tail, d.N)
}
