// Market segmentation: cluster customers by RFM-style features (recency,
// frequency, monetary value, basket size) without presupposing how many
// segments the customer base has — the classic "choose k" dilemma the
// paper's introduction motivates.
//
// The example also cross-checks G-means' discovered k against the classic
// criteria (elbow, silhouette, jump, BIC over multi-k-means-style sweeps),
// showing how the O(n·k)-cost G-means answer compares with the O(n·k²)
// sweep-based answers.
//
//	go run ./examples/segmentation
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	gmeansmr "gmeansmr"
	"gmeansmr/internal/criteria"
	"gmeansmr/internal/lloyd"
)

// segment is a ground-truth customer archetype in
// [recency days, orders/year, avg order EUR, items/basket] space.
type segment struct {
	name   string
	mean   []float64
	stddev []float64
	share  float64
}

func main() {
	segments := []segment{
		{"champions", []float64{5, 40, 120, 6}, []float64{2, 5, 15, 1}, 0.10},
		{"loyal", []float64{15, 18, 70, 4}, []float64{5, 3, 10, 1}, 0.25},
		{"big-basket-rare", []float64{60, 3, 300, 14}, []float64{15, 1, 40, 2}, 0.15},
		{"bargain-hunters", []float64{25, 10, 25, 2}, []float64{8, 2, 5, 0.5}, 0.30},
		{"dormant", []float64{250, 1, 45, 3}, []float64{40, 0.5, 10, 1}, 0.20},
	}
	rng := rand.New(rand.NewSource(5))
	const n = 25_000

	var points [][]float64
	var truth []int
	for i := 0; i < n; i++ {
		s, si := pickSegment(segments, rng)
		v := make([]float64, len(s.mean))
		for d := range v {
			v[d] = s.mean[d] + rng.NormFloat64()*s.stddev[d]
			if v[d] < 0 {
				v[d] = 0
			}
		}
		points = append(points, v)
		truth = append(truth, si)
	}

	// --- G-means: one run, k comes out ---
	clusterer, err := gmeansmr.New(gmeansmr.WithSeed(2), gmeansmr.WithMergeRadius(gmeansmr.MergeAuto))
	if err != nil {
		log.Fatal(err)
	}
	res, err := clusterer.Run(context.Background(), gmeansmr.FromPoints(points))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("G-means discovered %d segments (ground truth: %d)\n", res.K, len(segments))

	// --- the sweep-based criteria on the same data ---
	var cs []criteria.Clustering
	for k := 1; k <= 10; k++ {
		lr, err := lloyd.BestOf(points, lloyd.Config{K: k, Seeding: lloyd.SeedPlusPlus, Seed: int64(k)}, 3)
		if err != nil {
			log.Fatal(err)
		}
		cs = append(cs, criteria.FromResult(lr))
	}
	elbow, _ := criteria.ElbowK(cs)
	sil, _ := criteria.SilhouetteK(points, cs, 1500, 1)
	jump, _ := criteria.JumpK(cs, len(points), len(points[0]))
	bic, _ := criteria.BICK(cs, len(points), len(points[0]))
	fmt.Printf("sweep-based criteria: elbow=%d silhouette=%d jump=%d bic=%d\n", elbow, sil, jump, bic)
	fmt.Println("(each of those required clustering for every candidate k — the n·k² cost G-means avoids)")

	// --- describe the discovered segments ---
	fmt.Println("\ndiscovered segments:")
	counts := make([]int, res.K)
	for _, a := range res.Assignment {
		counts[a]++
	}
	names := []string{"recency", "orders/yr", "avg order", "basket"}
	for i, c := range res.Centers {
		fmt.Printf("  segment %d (%4.1f%% of customers): ", i, 100*float64(counts[i])/float64(n))
		for d, x := range c {
			fmt.Printf("%s=%.1f ", names[d], x)
		}
		fmt.Println()
	}

	// --- purity against ground truth ---
	agree := 0
	majority := make(map[int]map[int]int)
	for i, a := range res.Assignment {
		if majority[a] == nil {
			majority[a] = map[int]int{}
		}
		majority[a][truth[i]]++
	}
	for _, m := range majority {
		best := 0
		for _, cnt := range m {
			if cnt > best {
				best = cnt
			}
		}
		agree += best
	}
	fmt.Printf("\ncluster purity vs ground truth: %.1f%%\n", 100*float64(agree)/float64(n))
}

func pickSegment(segments []segment, rng *rand.Rand) (segment, int) {
	r := rng.Float64()
	acc := 0.0
	for i, s := range segments {
		acc += s.share
		if r <= acc {
			return s, i
		}
	}
	return segments[len(segments)-1], len(segments) - 1
}
