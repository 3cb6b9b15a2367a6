package criteria

import (
	"math"
	"math/rand"
	"testing"

	"gmeansmr/internal/dataset"
	"gmeansmr/internal/lloyd"
	"gmeansmr/internal/vec"
)

// clusteringsFor builds candidate clusterings for k = 1..kmax over points.
func clusteringsFor(t *testing.T, points []vec.Vector, kmax int) []Clustering {
	t.Helper()
	out := make([]Clustering, 0, kmax)
	for k := 1; k <= kmax; k++ {
		res, err := lloyd.BestOf(points, lloyd.Config{K: k, Seeding: lloyd.SeedPlusPlus, Seed: int64(k)}, 3)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, FromResult(res))
	}
	return out
}

func trueKData(t *testing.T, k int, seed int64) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Generate(dataset.Spec{K: k, Dim: 2, N: 150 * k, MinSeparation: 30, StdDev: 1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestTotalSS(t *testing.T) {
	pts := []vec.Vector{{0}, {2}, {4}}
	// Mean 2; SS = 4 + 0 + 4 = 8.
	if got := TotalSS(pts); got != 8 {
		t.Errorf("TotalSS = %v, want 8", got)
	}
	if got := TotalSS(nil); got != 0 {
		t.Errorf("TotalSS(nil) = %v", got)
	}
}

func TestVarianceExplainedBounds(t *testing.T) {
	ds := trueKData(t, 3, 1)
	cs := clusteringsFor(t, ds.Points, 5)
	prev := -1.0
	for _, c := range cs {
		ve := VarianceExplained(ds.Points, c)
		if ve < 0 || ve > 1 {
			t.Errorf("k=%d: variance explained %v out of [0,1]", c.K, ve)
		}
		if ve < prev-0.05 {
			t.Errorf("variance explained dropped sharply at k=%d: %v -> %v", c.K, prev, ve)
		}
		prev = ve
	}
	// With 3 well-separated clusters, k=3 must explain almost everything.
	if ve := VarianceExplained(ds.Points, cs[2]); ve < 0.95 {
		t.Errorf("k=3 explains only %v", ve)
	}
}

func TestElbowFindsTrueK(t *testing.T) {
	ds := trueKData(t, 3, 2)
	cs := clusteringsFor(t, ds.Points, 6)
	k, err := ElbowK(cs)
	if err != nil {
		t.Fatal(err)
	}
	if k != 3 {
		t.Errorf("ElbowK = %d, want 3", k)
	}
}

func TestElbowNeedsThree(t *testing.T) {
	if _, err := ElbowK([]Clustering{{K: 1}, {K: 2}}); err == nil {
		t.Error("ElbowK accepted two candidates")
	}
}

// wcssCurve wraps a WCSS curve for k = 1..len(w) as candidates.
func wcssCurve(w []float64) []Clustering {
	cs := make([]Clustering, len(w))
	for i, v := range w {
		cs[i] = Clustering{K: i + 1, WCSS: v}
	}
	return cs
}

// TestElbowSkipsRiseFromLocalOptimum is the regression test for a false
// knee: multi-k-means over 16 true clusters hit a k-means local optimum
// that made WCSS rise from k=4 to k=5 (8.4e8 → 9.4e8). Clamping that
// negative next gain to zero made k=4 look like a knee followed by no
// further gain at all, and elbow chose 4 although WCSS drops 17× at 16.
func TestElbowSkipsRiseFromLocalOptimum(t *testing.T) {
	w := []float64{1.4e10, 6e9, 2.5e9, 8.4e8, 9.4e8, 7.0e8, 6.0e8, 5.2e8,
		4.5e8, 3.9e8, 3.3e8, 2.8e8, 2.3e8, 1.8e8, 1.3e8, 7.6e6}
	for k := 17; k <= 32; k++ {
		w = append(w, 7.6e6-float64(k-16)*2e5)
	}
	k, err := ElbowK(wcssCurve(w))
	if err != nil {
		t.Fatal(err)
	}
	if k != 16 {
		t.Errorf("ElbowK = %d, want the true knee 16", k)
	}
}

// TestElbowUnchangedOnDecreasingCurves pins that measuring the next gain
// to the next improving candidate changes nothing where every candidate
// improves on the last: the choice equals the plain drop-ratio rule's.
func TestElbowUnchangedOnDecreasingCurves(t *testing.T) {
	plain := func(cs []Clustering) int {
		eps := cs[0].WCSS * 1e-12
		bestK, best := cs[1].K, math.Inf(-1)
		for i := 1; i < len(cs)-1; i++ {
			r := (cs[i-1].WCSS - cs[i].WCSS) / (cs[i].WCSS - cs[i+1].WCSS + eps)
			if r > best {
				best, bestK = r, cs[i].K
			}
		}
		return bestK
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		w := make([]float64, 3+rng.Intn(30))
		w[0] = 1e3 + rng.Float64()*1e9
		for i := 1; i < len(w); i++ {
			w[i] = w[i-1] * (0.05 + 0.9*rng.Float64())
		}
		cs := wcssCurve(w)
		got, err := ElbowK(cs)
		if err != nil {
			t.Fatal(err)
		}
		if want := plain(cs); got != want {
			t.Fatalf("trial %d: ElbowK = %d, drop-ratio rule = %d on %v", trial, got, want, w)
		}
	}
}

func TestSilhouetteFindsTrueK(t *testing.T) {
	ds := trueKData(t, 4, 3)
	cs := clusteringsFor(t, ds.Points, 7)
	k, err := SilhouetteK(ds.Points, cs, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if k != 4 {
		t.Errorf("SilhouetteK = %d, want 4", k)
	}
}

func TestSilhouetteRange(t *testing.T) {
	ds := trueKData(t, 3, 4)
	cs := clusteringsFor(t, ds.Points, 5)
	for _, c := range cs {
		s := Silhouette(ds.Points, c, 150, 2)
		if s < -1 || s > 1 {
			t.Errorf("silhouette %v out of [-1,1] at k=%d", s, c.K)
		}
	}
	// k=1: silhouette undefined, must return 0 rather than crash.
	if s := Silhouette(ds.Points, cs[0], 0, 1); s != 0 {
		t.Errorf("silhouette at k=1 = %v, want 0", s)
	}
}

func TestSilhouetteGoodBeatsBad(t *testing.T) {
	ds := trueKData(t, 3, 5)
	good := clusteringsFor(t, ds.Points, 3)[2]
	// Deliberately bad clustering: everything split by a hyperplane.
	badAssign := make([]int, len(ds.Points))
	for i, p := range ds.Points {
		if p[0] > 50 {
			badAssign[i] = 1
		}
	}
	centers := []vec.Vector{{25, 50}, {75, 50}}
	bad := Clustering{K: 2, Centers: centers, Assignment: badAssign,
		WCSS: lloyd.WCSS(ds.Points, centers, badAssign)}
	if Silhouette(ds.Points, good, 150, 1) <= Silhouette(ds.Points, bad, 150, 1) {
		t.Error("good clustering should out-silhouette an arbitrary split")
	}
}

func TestDunnFindsTrueK(t *testing.T) {
	ds := trueKData(t, 3, 6)
	cs := clusteringsFor(t, ds.Points, 5)
	k, err := DunnK(ds.Points, cs)
	if err != nil {
		t.Fatal(err)
	}
	if k != 3 {
		t.Errorf("DunnK = %d, want 3", k)
	}
}

func TestDunnDegenerate(t *testing.T) {
	if got := Dunn(nil, Clustering{K: 1}); got != 0 {
		t.Errorf("Dunn(k=1) = %v", got)
	}
}

func TestGapFindsTrueK(t *testing.T) {
	ds := trueKData(t, 3, 7)
	cs := clusteringsFor(t, ds.Points, 5)
	k, err := GapK(ds.Points, cs, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if k != 3 {
		t.Errorf("GapK = %d, want 3", k)
	}
}

func TestGapStatisticShape(t *testing.T) {
	ds := trueKData(t, 3, 8)
	cs := clusteringsFor(t, ds.Points, 4)
	gaps, err := GapStatistic(ds.Points, cs, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(gaps) != 4 {
		t.Fatalf("gaps = %d", len(gaps))
	}
	for _, g := range gaps {
		if g.SK < 0 {
			t.Errorf("negative gap SE at k=%d", g.K)
		}
		if math.IsNaN(g.Gap) {
			t.Errorf("NaN gap at k=%d", g.K)
		}
	}
}

func TestJumpFindsTrueK(t *testing.T) {
	ds := trueKData(t, 4, 9)
	cs := clusteringsFor(t, ds.Points, 7)
	k, err := JumpK(cs, len(ds.Points), 2)
	if err != nil {
		t.Fatal(err)
	}
	if k != 4 {
		t.Errorf("JumpK = %d, want 4", k)
	}
}

func TestBICFindsTrueK(t *testing.T) {
	ds := trueKData(t, 3, 10)
	cs := clusteringsFor(t, ds.Points, 6)
	k, err := BICK(cs, len(ds.Points), 2)
	if err != nil {
		t.Fatal(err)
	}
	if k != 3 {
		t.Errorf("BICK = %d, want 3", k)
	}
}

func TestBICPrefersTrueStructure(t *testing.T) {
	ds := trueKData(t, 3, 11)
	cs := clusteringsFor(t, ds.Points, 6)
	bic3 := BIC(cs[2], len(ds.Points), 2)
	bic1 := BIC(cs[0], len(ds.Points), 2)
	if bic3 <= bic1 {
		t.Errorf("BIC(k=3)=%v should beat BIC(k=1)=%v on 3-cluster data", bic3, bic1)
	}
}

func TestAICPenalizesLessThanBIC(t *testing.T) {
	ds := trueKData(t, 3, 12)
	cs := clusteringsFor(t, ds.Points, 6)
	// For large n, BIC's log(n)/2 penalty exceeds AIC's 1 per parameter, so
	// AIC(k) − AIC(1) ≥ BIC(k) − BIC(1) for k > 1.
	dAIC := AIC(cs[5], len(ds.Points), 2) - AIC(cs[0], len(ds.Points), 2)
	dBIC := BIC(cs[5], len(ds.Points), 2) - BIC(cs[0], len(ds.Points), 2)
	if dAIC < dBIC {
		t.Errorf("AIC delta %v should be ≥ BIC delta %v", dAIC, dBIC)
	}
}

func TestSelectorsNeedTwo(t *testing.T) {
	one := []Clustering{{K: 1}}
	pts := []vec.Vector{{0}, {1}}
	if _, err := SilhouetteK(pts, one, 0, 1); err == nil {
		t.Error("SilhouetteK accepted one candidate")
	}
	if _, err := DunnK(pts, one); err == nil {
		t.Error("DunnK accepted one candidate")
	}
	if _, err := GapK(pts, one, 2, 1); err == nil {
		t.Error("GapK accepted one candidate")
	}
	if _, err := JumpK(one, len(pts), 1); err == nil {
		t.Error("JumpK accepted one candidate")
	}
	if _, err := BICK(one, len(pts), 1); err == nil {
		t.Error("BICK accepted one candidate")
	}
}

func TestFromResult(t *testing.T) {
	pts := []vec.Vector{{0}, {1}, {10}, {11}}
	res, err := lloyd.Run(pts, lloyd.Config{K: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	c := FromResult(res)
	if c.K != 2 || c.WCSS != res.WCSS || len(c.Assignment) != 4 {
		t.Errorf("FromResult = %+v", c)
	}
}
