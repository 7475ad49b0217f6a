package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	samples := make([]float64, 0, 100)
	for i := 100; i >= 1; i-- {
		samples = append(samples, float64(i))
	}
	for _, tc := range []struct{ p, want float64 }{
		{50, 50}, {99, 99}, {99.9, 100}, {100, 100}, {1, 1}, {0.5, 1},
	} {
		if got := percentile(samples, tc.p); got != tc.want {
			t.Errorf("p%g of 1..100 = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{7, 3, 5}, 50); got != 5 {
		t.Errorf("p50 of {7,3,5} = %g, want 5", got)
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("p99 of no samples = %g, want 0", got)
	}
}

func TestBeyondP99(t *testing.T) {
	if got := beyond(1_000_000, 99); got != 10_000 {
		t.Errorf("samples beyond p99 of 1e6 = %d, want 10000", got)
	}
	if got := beyond(50, 99); got != 0 {
		t.Errorf("samples beyond p99 of 50 = %d, want 0", got)
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median of even count = %g, want 2.5", got)
	}
	if xs[0] != 4 || xs[3] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of odd count = %g, want 5", got)
	}
}

func TestSumOfMedians(t *testing.T) {
	reps := map[string][]float64{
		"ssca2":  {0.31, 0.40, 0.30}, // an outlier repetition does not move the median
		"kmeans": {0.10, 0.14},
		"genome": {0.02},
	}
	if got, want := sumOfMedians(reps), 0.31+0.12+0.02; math.Abs(got-want) > 1e-12 {
		t.Errorf("sum of medians = %g, want %g", got, want)
	}
}

func TestFailureShare(t *testing.T) {
	if got := failureShare(3, 1000); got != 0.003 {
		t.Errorf("3 of 1000 = %g, want 0.003", got)
	}
	if got := failureShare(0, 0); got != 0 {
		t.Errorf("nothing attempted = %g, want 0", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "round", Start: 0, End: 100},
		// Two overlapping children cover [10, 60); a third sticks out of
		// the parent and covers only [90, 100) of it.
		{ID: 2, Parent: 1, Name: "region", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "region", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "verify", Start: 90, End: 120},
		// A grandchild is charged to its own parent only.
		{ID: 5, Parent: 2, Name: "wait", Start: 15, End: 25},
		{ID: 6, Parent: 1, Name: "epoch-swap", Start: 50, End: 50, Instant: true},
	}
	self := selfTimes(spans)
	for name, want := range map[string]int64{"round": 40, "region": 20 + 30, "verify": 30, "wait": 10} {
		if self[name] != want {
			t.Errorf("self time of %s = %d, want %d", name, self[name], want)
		}
	}
	if _, ok := self["epoch-swap"]; ok {
		t.Errorf("an instant event has no self time")
	}
}

func TestNilRecorderIsOff(t *testing.T) {
	var r *recorder
	id := r.begin("x", 0, 0)
	r.end(id)
	r.instant("y", id, 0)
	if id != 0 || r.snapshot() != nil {
		t.Errorf("nil recorder recorded spans")
	}
}
