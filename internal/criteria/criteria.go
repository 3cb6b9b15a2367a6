// Package criteria implements the cluster-count selection criteria the
// paper surveys in its related work (§2): the elbow method (variance
// explained / F-test), average silhouette, Dunn's index, the gap statistic,
// the jump method, and BIC/AIC. These are what a multi-k-means pipeline
// applies after computing centers for every candidate k ("multi-k-means
// requires at least one additional job to find the correct value of k").
package criteria

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"gmeansmr/internal/lloyd"
	"gmeansmr/internal/vec"
)

// ErrNeedTwoK is returned by selectors that need at least two candidate k
// values to compare.
var ErrNeedTwoK = errors.New("criteria: need results for at least two values of k")

// Clustering bundles one candidate clustering (for a given k) with the
// statistics the criteria read, as produced by multi-k-means or repeated
// Lloyd runs. Each criterion documents which fields it needs: elbow and
// jump read only WCSS, BIC and AIC read WCSS and Sizes, silhouette and
// Dunn read the Assignment of the points they are given.
type Clustering struct {
	K          int
	Centers    []vec.Vector
	Assignment []int
	// Sizes holds the number of points assigned to each of the K centers.
	Sizes []int
	WCSS  float64
}

// FromResult adapts a lloyd.Result into a Clustering.
func FromResult(r *lloyd.Result) Clustering {
	k := len(r.Centers)
	return Clustering{K: k, Centers: r.Centers, Assignment: r.Assignment,
		Sizes: ClusterSizes(r.Assignment, k), WCSS: r.WCSS}
}

// ClusterSizes counts the points of an assignment per cluster index in
// [0, k).
func ClusterSizes(assignment []int, k int) []int {
	sizes := make([]int, k)
	for _, a := range assignment {
		sizes[a]++
	}
	return sizes
}

// TotalSS returns the total sum of squares of the dataset around its global
// centroid — the denominator of the variance-explained ratio.
func TotalSS(points []vec.Vector) float64 {
	if len(points) == 0 {
		return 0
	}
	mean := vec.Mean(points)
	var s float64
	for _, p := range points {
		s += vec.Dist2(p, mean)
	}
	return s
}

// VarianceExplained returns the between-group share of variance,
// 1 − WCSS/TSS, the quantity the elbow method plots against k.
func VarianceExplained(points []vec.Vector, c Clustering) float64 {
	tss := TotalSS(points)
	if tss == 0 {
		return 1
	}
	return 1 - c.WCSS/tss
}

// ElbowK picks k by the elbow criterion, using the drop-ratio form: the k
// that maximizes (W_{k-1} − W_k) / (W_k − W_j), i.e. the point where a
// large real improvement is followed by only marginal gains. This variant
// is robust to the geometric decay of WCSS that defeats the raw
// second-difference rule. W_j is the first later candidate that improves
// on W_k — W_{k+1} on a decreasing curve. A k-means local optimum can make
// WCSS rise from one k to the next; measuring the next gain across the
// rise keeps it from reading as "no further gain" and posing as a knee.
// When no later candidate improves on W_k the next gain is zero. The
// input only needs WCSS and must be ordered by ascending K with
// consecutive candidates.
func ElbowK(cs []Clustering) (int, error) {
	if len(cs) < 3 {
		return 0, fmt.Errorf("%w (and a third for curvature)", ErrNeedTwoK)
	}
	// Scale-free epsilon keeps the ratio finite when the curve flattens to
	// numerical noise.
	eps := cs[0].WCSS * 1e-12
	if eps <= 0 {
		eps = 1e-12
	}
	bestK, bestRatio := cs[1].K, math.Inf(-1)
	for i := 1; i < len(cs)-1; i++ {
		gain := cs[i-1].WCSS - cs[i].WCSS
		next := 0.0
		for _, later := range cs[i+1:] {
			if later.WCSS < cs[i].WCSS {
				next = cs[i].WCSS - later.WCSS
				break
			}
		}
		ratio := gain / (next + eps)
		if ratio > bestRatio {
			bestRatio, bestK = ratio, cs[i].K
		}
	}
	return bestK, nil
}

// Silhouette returns the mean silhouette coefficient of the clustering,
// computed on a uniform sample of at most sampleSize points (0 = all).
// Exact silhouette is O(n²); sampling keeps it usable on the scaled paper
// workloads while preserving the criterion's shape.
func Silhouette(points []vec.Vector, c Clustering, sampleSize int, seed int64) float64 {
	n := len(points)
	if n == 0 || c.K < 2 {
		return 0
	}
	idx := sampleIndexes(n, sampleSize, seed)

	// Bucket points per cluster once.
	clusters := make([][]int, c.K)
	for i, a := range c.Assignment {
		clusters[a] = append(clusters[a], i)
	}

	var total float64
	var counted int
	for _, i := range idx {
		own := c.Assignment[i]
		if len(clusters[own]) < 2 {
			continue // silhouette undefined for singleton clusters
		}
		a := meanDistTo(points, points[i], clusters[own], i)
		b := math.Inf(1)
		for cl := 0; cl < c.K; cl++ {
			if cl == own || len(clusters[cl]) == 0 {
				continue
			}
			if d := meanDistTo(points, points[i], clusters[cl], -1); d < b {
				b = d
			}
		}
		if math.IsInf(b, 1) {
			continue
		}
		den := math.Max(a, b)
		if den > 0 {
			total += (b - a) / den
			counted++
		}
	}
	if counted == 0 {
		return 0
	}
	return total / float64(counted)
}

func meanDistTo(points []vec.Vector, p vec.Vector, members []int, exclude int) float64 {
	var s float64
	var n int
	for _, m := range members {
		if m == exclude {
			continue
		}
		s += vec.Dist(p, points[m])
		n++
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// SilhouetteK picks the candidate with the highest mean silhouette.
func SilhouetteK(points []vec.Vector, cs []Clustering, sampleSize int, seed int64) (int, error) {
	if len(cs) < 2 {
		return 0, ErrNeedTwoK
	}
	bestK, bestS := 0, math.Inf(-1)
	for _, c := range cs {
		if s := Silhouette(points, c, sampleSize, seed); s > bestS {
			bestS, bestK = s, c.K
		}
	}
	return bestK, nil
}

// Dunn returns Dunn's index: minimum inter-cluster center distance divided
// by maximum cluster diameter (computed against centers for tractability —
// the "centroid diameter" variant). Higher is better.
func Dunn(points []vec.Vector, c Clustering) float64 {
	if c.K < 2 {
		return 0
	}
	minInter := math.Inf(1)
	for i := 0; i < c.K; i++ {
		for j := i + 1; j < c.K; j++ {
			if d := vec.Dist(c.Centers[i], c.Centers[j]); d < minInter {
				minInter = d
			}
		}
	}
	maxDiam := 0.0
	radius := make([]float64, c.K)
	for i, p := range points {
		a := c.Assignment[i]
		if d := vec.Dist(p, c.Centers[a]); d > radius[a] {
			radius[a] = d
		}
	}
	for _, r := range radius {
		if 2*r > maxDiam {
			maxDiam = 2 * r
		}
	}
	if maxDiam == 0 {
		return 0
	}
	return minInter / maxDiam
}

// DunnK picks the candidate with the highest Dunn index.
func DunnK(points []vec.Vector, cs []Clustering) (int, error) {
	if len(cs) < 2 {
		return 0, ErrNeedTwoK
	}
	bestK, best := 0, math.Inf(-1)
	for _, c := range cs {
		if d := Dunn(points, c); d > best {
			best, bestK = d, c.K
		}
	}
	return bestK, nil
}

// GapResult reports the gap statistic for one k.
type GapResult struct {
	K     int
	Gap   float64
	SK    float64 // simulation standard error, scaled by sqrt(1+1/B)
	LogW  float64
	ELogW float64
}

// GapStatistic computes Tibshirani's gap statistic for each candidate
// clustering using B uniform reference datasets drawn over the bounding box
// of the data. Reference clusterings reuse Lloyd with the same k.
func GapStatistic(points []vec.Vector, cs []Clustering, b int, seed int64) ([]GapResult, error) {
	if len(points) == 0 {
		return nil, errors.New("criteria: gap statistic of empty dataset")
	}
	if b <= 0 {
		b = 10
	}
	lo, hi := boundingBox(points)
	rng := rand.New(rand.NewSource(seed))
	out := make([]GapResult, 0, len(cs))
	for _, c := range cs {
		logW := math.Log(math.Max(c.WCSS, math.SmallestNonzeroFloat64))
		refLogs := make([]float64, b)
		for rep := 0; rep < b; rep++ {
			ref := uniformReference(points, lo, hi, rng)
			res, err := lloyd.Run(ref, lloyd.Config{K: c.K, MaxIterations: 30, Seeding: lloyd.SeedPlusPlus, Seed: rng.Int63()})
			if err != nil {
				return nil, err
			}
			refLogs[rep] = math.Log(math.Max(res.WCSS, math.SmallestNonzeroFloat64))
		}
		mean := meanOf(refLogs)
		sd := 0.0
		for _, v := range refLogs {
			sd += (v - mean) * (v - mean)
		}
		sd = math.Sqrt(sd / float64(b))
		out = append(out, GapResult{
			K:     c.K,
			Gap:   mean - logW,
			SK:    sd * math.Sqrt(1+1/float64(b)),
			LogW:  logW,
			ELogW: mean,
		})
	}
	return out, nil
}

// GapK applies the standard selection rule: the smallest k with
// Gap(k) ≥ Gap(k+1) − s_{k+1}. Falls back to the k with the largest gap
// when the rule never fires.
func GapK(points []vec.Vector, cs []Clustering, b int, seed int64) (int, error) {
	if len(cs) < 2 {
		return 0, ErrNeedTwoK
	}
	gaps, err := GapStatistic(points, cs, b, seed)
	if err != nil {
		return 0, err
	}
	for i := 0; i < len(gaps)-1; i++ {
		if gaps[i].Gap >= gaps[i+1].Gap-gaps[i+1].SK {
			return gaps[i].K, nil
		}
	}
	bestK, best := gaps[0].K, math.Inf(-1)
	for _, g := range gaps {
		if g.Gap > best {
			best, bestK = g.Gap, g.K
		}
	}
	return bestK, nil
}

// JumpK implements Sugar & James' jump method: distortions d_k = WCSS/(n·p)
// are raised to the power −p/2 (the recommended transformation) and the k
// with the largest jump d_k^{-p/2} − d_{k-1}^{-p/2} wins. It reads only
// each candidate's WCSS, the point count n and the dimensionality dim. The
// candidate list must be ordered by ascending k, ideally starting at k=1.
func JumpK(cs []Clustering, n, dim int) (int, error) {
	if len(cs) < 2 {
		return 0, ErrNeedTwoK
	}
	p := float64(dim)
	nf := float64(n)
	y := -p / 2
	prev := 0.0 // d_0^{-p/2} is defined as 0
	bestK, bestJump := 0, math.Inf(-1)
	for _, c := range cs {
		d := c.WCSS / (nf * p)
		var t float64
		if d > 0 {
			t = math.Pow(d, y)
		} else {
			t = math.Inf(1)
		}
		jump := t - prev
		if jump > bestJump {
			bestJump, bestK = jump, c.K
		}
		prev = t
	}
	return bestK, nil
}

// BIC scores a clustering of n points of dimensionality dim under the
// spherical-Gaussian model of Pelleg & Moore's X-means: higher is better.
// It reads only the clustering's WCSS and per-cluster Sizes. It is exposed
// here because BIC is also a usable "pick k" criterion over
// multi-k-means output.
func BIC(c Clustering, n, dim int) float64 {
	if n == 0 || c.K == 0 {
		return math.Inf(-1)
	}
	nf := float64(n)
	d := float64(dim)
	k := float64(c.K)
	// Maximum-likelihood variance estimate under identical spherical
	// covariance across clusters.
	denom := nf - k
	if denom <= 0 {
		denom = 1
	}
	sigma2 := c.WCSS / (d * denom)
	if sigma2 <= 0 {
		sigma2 = math.SmallestNonzeroFloat64
	}
	var ll float64
	for _, size := range c.Sizes {
		if size == 0 {
			continue
		}
		ni := float64(size)
		ll += ni*math.Log(ni) - ni*math.Log(nf) -
			ni*d/2*math.Log(2*math.Pi*sigma2) - (ni-1)*d/2
	}
	params := k * (d + 1) // centers + shared variance per cluster (X-means counting)
	return ll - params/2*math.Log(nf)
}

// BICK picks the candidate with the highest BIC score over n points of
// dimensionality dim.
func BICK(cs []Clustering, n, dim int) (int, error) {
	if len(cs) < 2 {
		return 0, ErrNeedTwoK
	}
	bestK, best := 0, math.Inf(-1)
	for _, c := range cs {
		if s := BIC(c, n, dim); s > best {
			best, bestK = s, c.K
		}
	}
	return bestK, nil
}

// AIC scores a clustering with the Akaike information criterion under the
// same model and inputs as BIC. Higher is better.
func AIC(c Clustering, n, dim int) float64 {
	if n == 0 || c.K == 0 {
		return math.Inf(-1)
	}
	bic := BIC(c, n, dim)
	// Recover log-likelihood from BIC and re-penalize: AIC = ll − params.
	params := float64(c.K) * float64(dim+1)
	ll := bic + params/2*math.Log(float64(n))
	return ll - params
}

func boundingBox(points []vec.Vector) (lo, hi vec.Vector) {
	d := len(points[0])
	lo = vec.Clone(points[0])
	hi = vec.Clone(points[0])
	for _, p := range points {
		for i := 0; i < d; i++ {
			if p[i] < lo[i] {
				lo[i] = p[i]
			}
			if p[i] > hi[i] {
				hi[i] = p[i]
			}
		}
	}
	return lo, hi
}

func uniformReference(points []vec.Vector, lo, hi vec.Vector, rng *rand.Rand) []vec.Vector {
	out := make([]vec.Vector, len(points))
	d := len(lo)
	for i := range out {
		p := make(vec.Vector, d)
		for j := 0; j < d; j++ {
			p[j] = lo[j] + rng.Float64()*(hi[j]-lo[j])
		}
		out[i] = p
	}
	return out
}

func sampleIndexes(n, sampleSize int, seed int64) []int {
	if sampleSize <= 0 || sampleSize >= n {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	rng := rand.New(rand.NewSource(seed))
	return rng.Perm(n)[:sampleSize]
}

func meanOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
