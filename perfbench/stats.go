package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample, or the mean of the two middle samples for
// an even count (Python's statistics.median). Zero samples give 0.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailGap is how many samples must lie beyond a reported tail percentile.
const tailGap = 10

// tail returns the highest percentile that has at least tailGap samples
// beyond it: the (n-tailGap)-th smallest sample, and the share of samples at
// or below it in percent. ok is false when there are too few samples for
// any such percentile (n <= tailGap).
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n <= tailGap {
		return 0, 0, false
	}
	s := sorted(xs)
	return s[n-tailGap-1], 100 * float64(n-tailGap) / float64(n), true
}

// ratio is num/den, or 0 when the base den is not positive (the layer did
// not run, so there is nothing to compare against).
func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// sum adds xs.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// digestInt64s is a 64-bit FNV-1a style hash of an int64 slice, taken a
// word at a time: the oracle compares answers by digest, so a reference is
// computed once per seed and never held beside the answer it checks.
func digestInt64s(xs []int64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, x := range xs {
		h = (h ^ uint64(x)) * prime
	}
	return h
}

// digestFloat64s hashes the exact bit patterns of xs, so two slices share a
// digest only when they are bit-identical.
func digestFloat64s(xs []float64) uint64 {
	bits := make([]int64, len(xs))
	for i, x := range xs {
		bits[i] = int64(math.Float64bits(x))
	}
	return digestInt64s(bits)
}
