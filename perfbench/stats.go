package main

import "sort"

// tailBeyond is how many samples must lie above the reported tail value.
const tailBeyond = 10

// median returns the middle of xs (the mean of the two middle values for
// an even count), or 0 for no samples.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the three cut points dividing xs into four groups,
// computed exactly as Python's statistics.quantiles(xs, n=4) with its
// default "exclusive" method, so a spread computed here matches one
// computed from the same numbers in Python. Fewer than two samples yield
// that sample (or zeros) three times.
func quartiles(xs []float64) [3]float64 {
	s := sorted(xs)
	ld := len(s)
	var out [3]float64
	switch ld {
	case 0:
		return out
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	const n = 4
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out
}

// tail is the highest order statistic of a sample that still has at least
// tailBeyond samples above it, with the percentile it sits at.
type tail struct {
	Value   float64
	Pct     float64 // share of samples at or below Value, in percent
	N       int     // sample count
	Beyond  int     // samples strictly above Value's rank
	Defined bool    // false when N <= tailBeyond; Value is then the maximum
}

// tailOf returns the tail of xs. With tailBeyond or fewer samples no order
// statistic qualifies; the maximum is returned with Defined false, so the
// caller can say so next to the number.
func tailOf(xs []float64) tail {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return tail{}
	}
	if n <= tailBeyond {
		return tail{Value: s[n-1], Pct: 100, N: n}
	}
	i := n - 1 - tailBeyond
	return tail{Value: s[i], Pct: 100 * float64(i+1) / float64(n), N: n, Beyond: tailBeyond, Defined: true}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
