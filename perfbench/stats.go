package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a p99 over 300 samples rests on 3 values and says little,
// so the tail reported is the highest percentile (at most the one asked
// for) that still has this many samples beyond it.
const minBeyond = 10

// Quantile is one order statistic of a sample set, reported with the
// percentile it actually is and the counts it rests on.
type Quantile struct {
	Value  float64 `json:"value"`
	Pct    float64 `json:"pct"`    // the percentile reported, in (0, 100]
	N      int     `json:"n"`      // samples in the set
	Beyond int     `json:"beyond"` // samples strictly after it in sorted order
}

// rankAt returns the nearest-rank index of percentile pct in n sorted
// samples: the smallest index whose cumulative share reaches pct.
func rankAt(n int, pct float64) int {
	k := int(math.Ceil(pct/100*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k > n-1 {
		k = n - 1
	}
	return k
}

// Median is the nearest-rank 50th percentile (the lower median for an
// even count). An empty set yields the zero Quantile.
func Median(xs []float64) Quantile {
	if len(xs) == 0 {
		return Quantile{}
	}
	s := sorted(xs)
	k := rankAt(len(s), 50)
	return Quantile{Value: s[k], Pct: 50, N: len(s), Beyond: len(s) - 1 - k}
}

// Tail returns the highest percentile at most want that has at least
// minBeyond samples beyond it. With too few samples for any such
// percentile it returns the maximum, with Beyond 0, so the caller can
// see the tail is unsupported.
func Tail(xs []float64, want float64) Quantile {
	n := len(xs)
	if n == 0 {
		return Quantile{}
	}
	s := sorted(xs)
	k := rankAt(n, want)
	if n-1-k < minBeyond {
		k = n - 1 - minBeyond
	}
	if k < 0 {
		k = n - 1
	}
	return Quantile{Value: s[k], Pct: 100 * float64(k+1) / float64(n), N: n, Beyond: n - 1 - k}
}

// ChunkedTail splits xs, in the order the ops started, into consecutive
// chunks of chunk samples (the remainder joins the last chunk), takes
// each chunk's Tail, and returns the chunk tail whose value is the lower
// median of them, with every chunk's value. A stall of the host a
// fraction of a second long lifts the tail of the chunks it falls in,
// not the whole run's. With fewer than minChunks chunks it returns the
// Tail of the whole set and no chunk values.
func ChunkedTail(xs []float64, chunk int, want float64) (Quantile, []float64) {
	k := 0
	if chunk > 0 {
		k = len(xs) / chunk
	}
	if k < minChunks {
		return Tail(xs, want), nil
	}
	tails := make([]Quantile, k)
	for i := range tails {
		end := (i + 1) * chunk
		if i == k-1 {
			end = len(xs)
		}
		tails[i] = Tail(xs[i*chunk:end], want)
	}
	sort.SliceStable(tails, func(a, b int) bool { return tails[a].Value < tails[b].Value })
	values := make([]float64, k)
	for i, t := range tails {
		values[i] = t.Value
	}
	return tails[rankAt(k, 50)], values
}

// minChunks is the fewest chunks ChunkedTail takes a median of.
const minChunks = 3

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Ratio is a quotient kept with its base, so a report can say what it
// is relative to.
type Ratio struct {
	Num   float64 `json:"num"`
	Den   float64 `json:"den"`
	Base  string  `json:"base"` // what Den measures
	Value float64 `json:"value"`
}

// NewRatio divides num by den. A zero base gives Value 0 rather than an
// infinity, and the base stays visible in Den.
func NewRatio(num, den float64, base string) Ratio {
	r := Ratio{Num: num, Den: den, Base: base}
	if den != 0 {
		r.Value = num / den
	}
	return r
}

// SliceRates bins jobs by the slice of the window they started in (start
// times in seconds since the window opened) and returns the jobs per
// second of each even and each odd slice. A last slice that does not fit
// in the window is dropped.
func SliceRates(starts []float64, slice, window float64) (even, odd []float64) {
	n := int(window / slice)
	if slice <= 0 || n == 0 {
		return nil, nil
	}
	sums := make([]float64, n)
	for _, s := range starts {
		if k := int(s / slice); k >= 0 && k < n {
			sums[k]++
		}
	}
	for k, w := range sums {
		if k%2 == 0 {
			even = append(even, w/slice)
		} else {
			odd = append(odd, w/slice)
		}
	}
	return even, odd
}

// Tally counts op outcomes against attempts. Every op that does not end
// the way it should counts as failed, whatever the reason.
type Tally struct {
	Attempted int `json:"attempted"`
	Done      int `json:"done"`
	// Cancelled counts cancel ops that ended cancelled; CancelRaces the
	// ones whose job finished before the DELETE landed (counted, not
	// failed).
	Cancelled   int `json:"cancelled"`
	CancelRaces int `json:"cancel_races"`
	// The failure classes: the job failed, the front door kept refusing
	// it (429) after every retry, the HTTP exchange broke, or the job
	// returned a result that differs from the reference.
	JobFailed int `json:"job_failed"`
	Refused   int `json:"refused"`
	Transport int `json:"transport"`
	Wrong     int `json:"wrong"`
}

// Failed is the number of ops that count against failed_frac.
func (t Tally) Failed() int { return t.JobFailed + t.Refused + t.Transport + t.Wrong }

// FailedFrac is Failed over Attempted (0 when nothing was attempted).
func (t Tally) FailedFrac() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Failed()) / float64(t.Attempted)
}

// Add folds another tally into t.
func (t *Tally) Add(o Tally) {
	t.Attempted += o.Attempted
	t.Done += o.Done
	t.Cancelled += o.Cancelled
	t.CancelRaces += o.CancelRaces
	t.JobFailed += o.JobFailed
	t.Refused += o.Refused
	t.Transport += o.Transport
	t.Wrong += o.Wrong
}
