package main

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestAdjustedRandPermutation(t *testing.T) {
	a := []int{0, 0, 1, 1, 2, 2, 2}
	b := []int{5, 5, 0, 0, 3, 3, 3} // the same partition, relabelled
	if got := adjustedRand(a, b); got != 1 {
		t.Fatalf("ARI under a label permutation = %v, want 1", got)
	}
}

func TestAdjustedRandKnownTable(t *testing.T) {
	// Contingency table [[2 1 0] [0 1 2]]: sum C(nij,2) = 2, row pairs 6,
	// column pairs 3, C(6,2) = 15, so expected = 6*3/15 = 1.2, max = 4.5
	// and ARI = (2-1.2)/(4.5-1.2) = 8/33.
	a := []int{0, 0, 0, 1, 1, 1}
	b := []int{0, 0, 1, 1, 2, 2}
	if got, want := adjustedRand(a, b), 8.0/33; math.Abs(got-want) > 1e-12 {
		t.Fatalf("ARI = %v, want %v", got, want)
	}
}

func TestAdjustedRandIndependent(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	a, b := make([]int, 50000), make([]int, 50000)
	for i := range a {
		a[i], b[i] = rng.IntN(10), rng.IntN(10)
	}
	if got := adjustedRand(a, b); math.Abs(got) > 0.005 {
		t.Fatalf("ARI of independent labellings = %v, want about 0", got)
	}
}

func TestNearestAndWCSS(t *testing.T) {
	centers := [][]float64{{0, 0}, {10, 0}, {0, 10}}
	points := [][]float64{{1, 1}, {9, 0}, {0, 12}, {5, 0}}
	// {5,0} is equidistant from centres 0 and 1: the lower index wins.
	assign, wcss := assignAll(points, centers)
	want := []int{0, 1, 2, 0}
	for i := range want {
		if assign[i] != want[i] {
			t.Fatalf("assignment = %v, want %v", assign, want)
		}
	}
	// 1+1 + 1 + 4 + 25
	if wcss != 32 {
		t.Fatalf("WCSS = %v, want 32", wcss)
	}
	if c, d2 := nearest([]float64{10, 10}, centers); c != 1 || d2 != 100 {
		t.Fatalf("nearest = %d, %v; want 1, 100", c, d2)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := median(xs); got != 3 {
		t.Fatalf("median = %v, want 3", got)
	}
	if got := quantile([]float64{1, 2, 3, 4}, 0.5); got != 2.5 {
		t.Fatalf("median of four = %v, want 2.5", got)
	}
	if got := quantile([]float64{0, 10}, 0.99); math.Abs(got-9.9) > 1e-12 {
		t.Fatalf("p99 = %v, want 9.9", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 8.25] and
	// statistics.quantiles([1, 2], n=4) == [0.75, 2.25].
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{2, 1}, 0.75, 2.25},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
