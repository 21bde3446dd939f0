package main

import (
	"math"
	"sort"
	"time"
)

// Dist summarizes one set of timings with nearest-rank percentiles. N is
// the sample count and Beyond50/Beyond99 count the samples strictly above
// each percentile, so a reader can tell how much evidence a tail carries.
type Dist struct {
	N        int     `json:"n"`
	P50      float64 `json:"p50"`
	P99      float64 `json:"p99"`
	Beyond50 int     `json:"beyond_p50"`
	Beyond99 int     `json:"beyond_p99"`
	Max      float64 `json:"max"`
}

// nearestRank returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank rule: the smallest value with at least p% of the samples at
// or below it.
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// beyond counts the samples of sorted strictly greater than v.
func beyond(sorted []float64, v float64) int {
	return len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
}

// Summarize computes the nearest-rank median and p99 of samples. It sorts
// a copy, so callers may keep appending to theirs.
func Summarize(samples []float64) Dist {
	if len(samples) == 0 {
		return Dist{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	d := Dist{N: len(s), P50: nearestRank(s, 50), P99: nearestRank(s, 99), Max: s[len(s)-1]}
	d.Beyond50 = beyond(s, d.P50)
	d.Beyond99 = beyond(s, d.P99)
	return d
}

// Median is the nearest-rank median of samples.
func Median(samples []float64) float64 { return Summarize(samples).P50 }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// Ops counts attempted and failed operations. A failed operation also
// counts as missing every latency limit, so its latency is recorded as
// +Inf in the timing samples it belongs to.
type Ops struct {
	Attempted int64
	Failed    int64
}

// FailedFrac is failures over attempts.
func (o Ops) FailedFrac() float64 {
	if o.Attempted == 0 {
		return 0
	}
	return float64(o.Failed) / float64(o.Attempted)
}
