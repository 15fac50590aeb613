package main

import (
	"math"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{3.5, 1.25, 9, 2, 7, 4.75, 8}, [3]float64{2, 4.75, 8}},
	} {
		got := quartiles(c.in)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	var xs []float64
	for i := 40; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	tl := tailOf(xs)
	// 40 samples: the 30th smallest (value 30) has exactly 10 above it.
	if !tl.Defined || tl.Value != 30 || tl.N != 40 || tl.Beyond != 10 || tl.Pct != 75 {
		t.Fatalf("tailOf(1..40) = %+v, want value 30 at p75 with 10 beyond", tl)
	}
	above := 0
	for _, x := range xs {
		if x > tl.Value {
			above++
		}
	}
	if above != tailBeyond {
		t.Errorf("%d samples above the tail, want %d", above, tailBeyond)
	}

	tl = tailOf([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	if !tl.Defined || tl.Value != 1 {
		t.Errorf("11 samples: tail = %+v, want the minimum, with 10 beyond", tl)
	}
	tl = tailOf([]float64{3, 9, 1})
	if tl.Defined || tl.Value != 9 {
		t.Errorf("3 samples: tail = %+v, want undefined, reporting the maximum", tl)
	}
}

func TestSelfTimesSubtractUnionOfChildren(t *testing.T) {
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "root", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(30), End: ms(60)}, // overlaps a
		{ID: 4, Parent: 2, Name: "c", Start: ms(10), End: ms(20)},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"root": 50 * time.Millisecond, // 100 - union(10..60)
		"a":    20 * time.Millisecond,
		"b":    30 * time.Millisecond,
		"c":    10 * time.Millisecond,
	}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self[%s] = %v, want %v", name, self[name], d)
		}
	}
}

func TestRecorderNilIsNoop(t *testing.T) {
	var r *recorder
	if id := r.start("x", 0, "t"); id != 0 {
		t.Fatalf("nil recorder start = %d", id)
	}
	ran := false
	if d := r.timed("x", 0, "t", func() { ran = true }); !ran || d < 0 {
		t.Fatalf("nil recorder timed: ran=%v d=%v", ran, d)
	}
}

func TestCPUTimeCountsWorkNotWaiting(t *testing.T) {
	c0 := cpuTime()
	time.Sleep(100 * time.Millisecond)
	slept := cpuTime() - c0
	c1, start := cpuTime(), time.Now()
	x := uint64(1)
	for cpuTime()-c1 < 100*time.Millisecond && time.Since(start) < 5*time.Second {
		x = x*6364136223846793005 + 1
	}
	busy := cpuTime() - c1
	if slept > 50*time.Millisecond || busy < 100*time.Millisecond {
		t.Errorf("cpu time: %v while sleeping 100ms, %v while busy (x=%d)", slept, busy, x)
	}
}
