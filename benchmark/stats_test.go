package main

import (
	"math"
	"testing"
)

func TestSummarizeNearestRank(t *testing.T) {
	var s []float64
	for i := 100; i >= 1; i-- {
		s = append(s, float64(i))
	}
	d := Summarize(s)
	if d.N != 100 || d.P50 != 50 || d.P99 != 99 || d.Max != 100 {
		t.Fatalf("Summarize(1..100) = %+v, want n=100 p50=50 p99=99 max=100", d)
	}
	if d.Beyond50 != 50 || d.Beyond99 != 1 {
		t.Fatalf("beyond counts = %d/%d, want 50/1", d.Beyond50, d.Beyond99)
	}
	if s[0] != 100 {
		t.Fatal("Summarize reordered its input")
	}
}

func TestSummarizeSmallAndEmpty(t *testing.T) {
	if d := Summarize(nil); d.N != 0 || d.P50 != 0 {
		t.Fatalf("Summarize(nil) = %+v", d)
	}
	// Nearest rank never interpolates: with 3 samples p50 is the 2nd and
	// p99 the 3rd.
	d := Summarize([]float64{3, 1, 2})
	if d.P50 != 2 || d.P99 != 3 || d.Beyond99 != 0 {
		t.Fatalf("Summarize(3,1,2) = %+v", d)
	}
	// Ties: samples equal to the percentile are not beyond it.
	d = Summarize([]float64{1, 1, 1, 5})
	if d.P50 != 1 || d.Beyond50 != 1 {
		t.Fatalf("Summarize(1,1,1,5) = %+v", d)
	}
}

func TestFailuresMissEveryLimit(t *testing.T) {
	w := &Window{}
	for i := 0; i < 99; i++ {
		w.read(false, 1, nil)
	}
	w.read(false, 1, errTest)
	if w.Ops.Attempted != 100 || w.Ops.Failed != 1 || w.Ops.FailedFrac() != 0.01 {
		t.Fatalf("ops = %+v", w.Ops)
	}
	if d := Summarize(w.Points); !math.IsInf(d.Max, 1) || d.P99 != 1 {
		t.Fatalf("a failed read must sort past every latency: %+v", d)
	}
	w.read(false, 1, errTest)
	if d := Summarize(w.Points); !math.IsInf(d.P99, 1) {
		t.Fatalf("two failures in 101 must reach p99: %+v", d)
	}
}
