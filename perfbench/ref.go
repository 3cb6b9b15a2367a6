package main

import (
	"math"
	"slices"
)

// Reference computations the benchmark checks the program against. They
// share no code with the program under test.

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// nearest returns the index of the centre closest to p (lowest index on
// ties) and the squared distance to it, by scanning every centre.
func nearest(p []float64, centers [][]float64) (int, float64) {
	best, bestD2 := -1, math.Inf(1)
	for i, c := range centers {
		if d2 := sqDist(p, c); d2 < bestD2 {
			best, bestD2 = i, d2
		}
	}
	return best, bestD2
}

// assignAll assigns every point to its nearest centre and returns the
// assignment with the within-cluster sum of squares.
func assignAll(points, centers [][]float64) ([]int, float64) {
	out := make([]int, len(points))
	wcss := 0.0
	for i, p := range points {
		c, d2 := nearest(p, centers)
		out[i] = c
		wcss += d2
	}
	return out, wcss
}

// adjustedRand is the adjusted Rand index of two labellings of the same
// points (Hubert & Arabie): 1 for identical partitions under any
// relabelling, about 0 for independent ones. Labels must be non-negative.
func adjustedRand(a, b []int) float64 {
	if len(a) != len(b) {
		panic("adjustedRand: labellings of different lengths")
	}
	na, nb := slices.Max(a)+1, slices.Max(b)+1
	table := make([]int64, na*nb)
	rows := make([]int64, na)
	cols := make([]int64, nb)
	for i := range a {
		table[a[i]*nb+b[i]]++
		rows[a[i]]++
		cols[b[i]]++
	}
	pairs := func(x int64) float64 { return float64(x) * float64(x-1) / 2 }
	var index, sumRows, sumCols float64
	for _, x := range table {
		index += pairs(x)
	}
	for _, x := range rows {
		sumRows += pairs(x)
	}
	for _, x := range cols {
		sumCols += pairs(x)
	}
	expected := sumRows * sumCols / pairs(int64(len(a)))
	maxIndex := (sumRows + sumCols) / 2
	if maxIndex == expected {
		return 1 // both partitions trivial (one cluster, or all singletons)
	}
	return (index - expected) / (maxIndex - expected)
}

// relClose reports whether a and b agree within rel relative difference.
func relClose(a, b, rel float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= rel*math.Max(math.Abs(a), math.Abs(b))
}

// median of xs (which it sorts in place).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks, sorting xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}
