package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of sorted by linear
// interpolation between closest ranks; it is the estimator every latency
// figure in the harness goes through. An empty input yields 0.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo] + (sorted[hi]-sorted[lo])*frac
}

// sortedCopy returns vals sorted ascending without touching the input.
func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// median is the 50th percentile of an unsorted sample.
func median(vals []float64) float64 { return percentile(sortedCopy(vals), 50) }

// pick says which of a metric's per-slice (or per-repetition) values is
// the figure the harness reports.
type pick uint8

const (
	// pickMedian suits a sample whose noise goes both ways.
	pickMedian pick = iota
	// pickMin and pickMax take the best value. The host's noise is
	// one-sided: a noisy neighbour or a slow phase of the VM only ever makes
	// a slice slower, and phases outlast several slices, so the best slice
	// is the one closest to what the program costs (README, "Noise").
	pickMin
	pickMax
	// pickLast suits a monotone reading such as a peak.
	pickLast
)

// agg is one metric's sample reduced to the reported value, with the
// median and quartiles beside it so a reader sees how far the slices
// disagreed, and the raw values in sample order.
type agg struct {
	Value  float64   `json:"value"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Raw    []float64 `json:"raw"`
}

func aggregate(vals []float64, p pick) agg {
	s := sortedCopy(vals)
	a := agg{Median: percentile(s, 50), Q1: percentile(s, 25), Q3: percentile(s, 75), Raw: vals}
	switch {
	case len(s) == 0:
	case p == pickMin:
		a.Value = s[0]
	case p == pickMax:
		a.Value = s[len(s)-1]
	case p == pickLast:
		a.Value = vals[len(vals)-1]
	default:
		a.Value = a.Median
	}
	return a
}

// usOf converts a nanosecond sample to sorted microseconds.
func usOf(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	sort.Float64s(out)
	return out
}
