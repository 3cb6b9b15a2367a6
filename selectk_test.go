package gmeansmr_test

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"gmeansmr"
	"gmeansmr/internal/criteria"
	"gmeansmr/internal/dataset"
	"gmeansmr/internal/invariants"
	"gmeansmr/internal/kmeansmr"
	"gmeansmr/internal/lloyd"
	"gmeansmr/internal/vec"
	"gmeansmr/internal/zoo"
)

// TestSelectKMatchesReference pins multi-k's k-selection against the path
// it replaced, which reloaded the staged file with dataset.LoadPoints,
// assigned every candidate with scalar lloyd.Assign and applied the
// point-based criteria. For every criterion, over the TestMultiKCriteria
// mixture, a wider multi-split mixture and every zoo cell multi-k
// accepts, it checks that:
//   - the chosen K is identical;
//   - the batch-kernel assignments (silhouette) and cluster sizes (BIC)
//     equal lloyd.Assign's element for element;
//   - jump makes one dataset read fewer and every other criterion the
//     same number;
//   - BytesRead == DatasetReads × file size still holds.
func TestSelectKMatchesReference(t *testing.T) {
	type input struct {
		name   string
		points [][]float64
		kMax   int
		seed   int64
	}
	var inputs []input
	for _, spec := range []gmeansmr.DatasetSpec{
		{K: 3, Dim: 2, N: 1200, MinSeparation: 25, Seed: 36},
		{K: 6, Dim: 16, N: 1500, MinSeparation: 25, Seed: 5},
	} {
		ds, err := gmeansmr.GenerateDataset(spec)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{fmt.Sprintf("mixture-k%d-d%d", spec.K, spec.Dim), ds.Points, 6, 2})
	}
	for _, cell := range zoo.Catalog() {
		if cell.N < 3 {
			continue // multi-k needs three candidates; cmd/stress skips these too
		}
		inputs = append(inputs, input{"zoo-" + cell.Name, cell.Points(1), min(8, cell.N), 1})
	}

	ctx := context.Background()
	for _, in := range inputs {
		for _, cr := range []gmeansmr.Criterion{gmeansmr.CriterionElbow, gmeansmr.CriterionJump,
			gmeansmr.CriterionSilhouette, gmeansmr.CriterionBIC} {
			t.Run(in.name+"/"+string(cr), func(t *testing.T) {
				c, err := gmeansmr.New(gmeansmr.WithAlgorithm(gmeansmr.AlgorithmMultiK),
					gmeansmr.WithKRange(1, in.kMax, 1), gmeansmr.WithCriterion(cr), gmeansmr.WithSeed(in.seed))
				if err != nil {
					t.Fatal(err)
				}
				env, n, cs, err := c.MultiKCandidates(ctx, gmeansmr.FromPoints(in.points))
				if err != nil {
					t.Fatal(err)
				}
				fs := env.FS
				r0 := fs.DatasetReads()
				wantK, refAssign := referenceSelectK(t, cr, env, slices.Clone(cs), in.seed)
				r1 := fs.DatasetReads()
				gotK, err := c.SelectK(ctx, env, n, cs)
				if err != nil {
					t.Fatal(err)
				}
				r2 := fs.DatasetReads()

				if gotK != wantK {
					t.Errorf("selectK chose k=%d, reference path k=%d", gotK, wantK)
				}
				wantDelta := r1 - r0
				if cr == gmeansmr.CriterionJump {
					wantDelta--
				}
				if got := r2 - r1; got != wantDelta {
					t.Errorf("selectK made %d dataset reads, reference %d, want %d", got, r1-r0, wantDelta)
				}
				for i, ref := range refAssign {
					switch cr {
					case gmeansmr.CriterionSilhouette:
						if !slices.Equal(cs[i].Assignment, ref) {
							t.Errorf("k=%d: kernel assignment differs from lloyd.Assign", cs[i].K)
						}
					case gmeansmr.CriterionBIC:
						if want := criteria.ClusterSizes(ref, cs[i].K); !slices.Equal(cs[i].Sizes, want) {
							t.Errorf("k=%d: kernel sizes %v, lloyd.Assign sizes %v", cs[i].K, cs[i].Sizes, want)
						}
					}
				}
				size, err := fs.Size(env.Input)
				if err != nil {
					t.Fatal(err)
				}
				if vs := invariants.CheckReadConservation(fs.DatasetReads(), fs.BytesRead(), size); len(vs) > 0 {
					t.Error(invariants.Format(vs))
				}
			})
		}
	}
}

// referenceSelectK is the replaced k-selection path: elbow from WCSS
// alone, every other criterion over points reloaded with LoadPoints and
// assigned with lloyd.Assign. It returns the chosen k and, for criteria
// that read data, each candidate's assignment.
func referenceSelectK(t *testing.T, cr gmeansmr.Criterion, env kmeansmr.Env, cs []criteria.Clustering, seed int64) (int, [][]int) {
	t.Helper()
	if cr == gmeansmr.CriterionElbow {
		k, err := criteria.ElbowK(cs)
		if err != nil {
			t.Fatal(err)
		}
		return k, nil
	}
	points, err := dataset.LoadPoints(env.FS, env.Input)
	if err != nil {
		t.Fatal(err)
	}
	assign := make([][]int, len(cs))
	for i := range cs {
		assign[i] = lloyd.Assign(points, cs[i].Centers)
		cs[i].Assignment = assign[i]
	}
	var k int
	switch cr {
	case gmeansmr.CriterionJump:
		k = referenceJumpK(points, cs)
		assign = nil
	case gmeansmr.CriterionSilhouette:
		k, err = criteria.SilhouetteK(points, cs, 2000, seed)
	default:
		k = referenceBICK(points, cs)
	}
	if err != nil {
		t.Fatal(err)
	}
	return k, assign
}

// referenceJumpK is the jump method as it read the points: n and the
// dimensionality came from the reloaded slice.
func referenceJumpK(points []vec.Vector, cs []criteria.Clustering) int {
	p := float64(len(points[0]))
	n := float64(len(points))
	prev, bestK, bestJump := 0.0, 0, math.Inf(-1)
	for _, c := range cs {
		d := c.WCSS / (n * p)
		t := math.Inf(1)
		if d > 0 {
			t = math.Pow(d, -p/2)
		}
		if jump := t - prev; jump > bestJump {
			bestJump, bestK = jump, c.K
		}
		prev = t
	}
	return bestK
}

// referenceBICK is BIC as it counted cluster sizes from a point
// assignment.
func referenceBICK(points []vec.Vector, cs []criteria.Clustering) int {
	n := float64(len(points))
	d := float64(len(points[0]))
	bestK, best := 0, math.Inf(-1)
	for _, c := range cs {
		k := float64(c.K)
		denom := n - k
		if denom <= 0 {
			denom = 1
		}
		sigma2 := c.WCSS / (d * denom)
		if sigma2 <= 0 {
			sigma2 = math.SmallestNonzeroFloat64
		}
		sizes := make([]float64, c.K)
		for _, a := range c.Assignment {
			sizes[a]++
		}
		var ll float64
		for _, ni := range sizes {
			if ni == 0 {
				continue
			}
			ll += ni*math.Log(ni) - ni*math.Log(n) -
				ni*d/2*math.Log(2*math.Pi*sigma2) - (ni-1)*d/2
		}
		params := k * (d + 1)
		if s := ll - params/2*math.Log(n); s > best {
			best, bestK = s, c.K
		}
	}
	return bestK
}
