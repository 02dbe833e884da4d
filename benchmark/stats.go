package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy.
func sorted(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// quantile reads the q-quantile (0..1) from ascending s by linear
// interpolation between the two nearest ranks.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(sorted(v), 0.5) }

// tailSupported reports whether n samples leave at least ten beyond the
// q-quantile, the condition for quoting that percentile at all.
func tailSupported(n int, q float64) bool {
	return float64(n)*(1-q) >= 10
}

// ms converts nanoseconds to milliseconds.
func ms(ns float64) float64 { return ns / 1e6 }

// us converts nanoseconds to microseconds.
func us(ns float64) float64 { return ns / 1e3 }
