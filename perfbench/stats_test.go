package main

import (
	"slices"
	"testing"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending, so sorting is exercised
	}
	return xs
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n          int
		want       float64
		value, pct float64
		beyond     int
	}{
		// Enough samples: p99 itself has 10 beyond it.
		{n: 1000, want: 99, value: 990, pct: 99, beyond: 10},
		// p99 of 500 has only 5 beyond; the tail drops to p98.
		{n: 500, want: 99, value: 490, pct: 98, beyond: 10},
		// Exactly 11 samples: the lowest sample has 10 beyond.
		{n: 11, want: 99, value: 1, pct: 100.0 / 11, beyond: 10},
		// Too few for any supported tail: the maximum, 0 beyond.
		{n: 5, want: 99, value: 5, pct: 100, beyond: 0},
	} {
		q := Tail(ramp(tc.n), tc.want)
		if q.Value != tc.value || q.Beyond != tc.beyond || q.N != tc.n || q.Pct != tc.pct {
			t.Errorf("Tail(n=%d, p%g) = %+v, want value %g pct %g beyond %d", tc.n, tc.want, q, tc.value, tc.pct, tc.beyond)
		}
	}
	if q := Tail(nil, 99); q != (Quantile{}) {
		t.Errorf("Tail(empty) = %+v, want zero", q)
	}
}

func TestChunkedTailIgnoresAStallInOneChunk(t *testing.T) {
	// Four chunks of 1000 with tails 990; a stall lifts 50 samples of the
	// third chunk to 10000, which makes them the whole run's p99.
	var xs []float64
	for c := 0; c < 4; c++ {
		xs = append(xs, ramp(1000)...)
	}
	for i := 2000; i < 2050; i++ {
		xs[i] = 10000
	}
	if whole := Tail(xs, 99); whole.Value != 10000 {
		t.Fatalf("whole-run p99 = %g, want the stall's 10000", whole.Value)
	}
	q, chunks := ChunkedTail(xs, 1000, 99)
	if q.Value != 990 || q.N != 1000 || q.Beyond != 10 {
		t.Errorf("ChunkedTail = %+v, want the median chunk's p99 990 over 1000 with 10 beyond", q)
	}
	if want := []float64{990, 990, 990, 10000}; !slices.Equal(chunks, want) {
		t.Errorf("chunk tails = %v, want %v", chunks, want)
	}
	// The remainder joins the last chunk.
	if _, chunks := ChunkedTail(xs[:3500], 1000, 99); len(chunks) != 3 {
		t.Errorf("3500 samples in chunks of 1000 gave %d chunks, want 3", len(chunks))
	}
	// Too few chunks: the whole set's tail, no chunk values.
	if q, chunks := ChunkedTail(xs[:2999], 1000, 99); chunks != nil || q != Tail(xs[:2999], 99) {
		t.Errorf("2999 samples: got %+v %v, want the whole-set tail", q, chunks)
	}
	if q, chunks := ChunkedTail(xs, 0, 99); chunks != nil || q != Tail(xs, 99) {
		t.Errorf("chunk 0: got %+v %v, want the whole-set tail", q, chunks)
	}
}

func TestMedian(t *testing.T) {
	if q := Median([]float64{3, 1, 2}); q.Value != 2 || q.N != 3 || q.Beyond != 1 {
		t.Errorf("Median odd = %+v", q)
	}
	if q := Median([]float64{4, 1, 3, 2}); q.Value != 2 {
		t.Errorf("Median even = %+v, want the lower median 2", q)
	}
	if q := Median(nil); q.Value != 0 || q.N != 0 {
		t.Errorf("Median(empty) = %+v", q)
	}
}

func TestTallyFailureAccounting(t *testing.T) {
	tl := Tally{Attempted: 100, Done: 90, Cancelled: 3, CancelRaces: 2, JobFailed: 1, Refused: 2, Transport: 1, Wrong: 1}
	if got := tl.Failed(); got != 5 {
		t.Errorf("Failed = %d, want 5: failed jobs, refusals, transport errors and wrong results all count, cancels and races do not", got)
	}
	if got := tl.FailedFrac(); got != 0.05 {
		t.Errorf("FailedFrac = %g, want 0.05", got)
	}
	var sum Tally
	sum.Add(tl)
	sum.Add(Tally{Attempted: 10, Wrong: 1})
	if sum.Attempted != 110 || sum.Failed() != 6 {
		t.Errorf("Add: %+v", sum)
	}
	if (Tally{}).FailedFrac() != 0 {
		t.Error("FailedFrac of nothing attempted must be 0")
	}
}

func TestRatioKeepsBase(t *testing.T) {
	r := NewRatio(3, 2, "bare vm.Run")
	if r.Value != 1.5 || r.Num != 3 || r.Den != 2 || r.Base != "bare vm.Run" {
		t.Errorf("NewRatio = %+v", r)
	}
	if z := NewRatio(3, 0, "nothing"); z.Value != 0 || z.Den != 0 {
		t.Errorf("zero base = %+v, want value 0 with the base kept", z)
	}
}

func TestSliceRates(t *testing.T) {
	var starts []float64
	// Slices of 2 s over a 9 s window: four whole slices, and work in
	// the partial fifth one that must be dropped. Even slices start 4
	// jobs each, odd ones 2.
	for k := 0; k < 5; k++ {
		n := 4
		if k%2 == 1 {
			n = 2
		}
		for i := 0; i < n; i++ {
			starts = append(starts, float64(2*k)+0.1*float64(i))
		}
	}
	even, odd := SliceRates(starts, 2, 9)
	if !slices.Equal(even, []float64{2, 2}) || !slices.Equal(odd, []float64{1, 1}) {
		t.Fatalf("even %v odd %v, want [2 2] and [1 1]", even, odd)
	}
	r := NewRatio(Median(even).Value, Median(odd).Value, "odd")
	if r.Value != 2 {
		t.Errorf("ratio %v, want 2", r.Value)
	}
	if e, o := SliceRates(starts, 2, 1); e != nil || o != nil {
		t.Errorf("a window shorter than a slice gave %v %v", e, o)
	}
}
