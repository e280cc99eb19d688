package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by nearest rank,
// sorting xs in place. It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median is quantile(xs, 0.5) on a copy of xs.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// millis converts latencies to milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

// seconds is d in (fractional) seconds.
func seconds(d time.Duration) float64 { return d.Seconds() }

// micros is d in (fractional) microseconds.
func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
