package gmeansmr

import (
	"context"

	"gmeansmr/internal/criteria"
	"gmeansmr/internal/kmeansmr"
)

// Hooks for the k-selection equivalence test (selectk_test.go), an
// external test because it sweeps internal/zoo, which imports this
// package.

// MultiKCandidates stages src on the local backend and runs multi-k-means
// and its evaluate job as Run does, returning the staged environment and
// point count and the candidates k-selection chooses from.
func (c *Clusterer) MultiKCandidates(ctx context.Context, src DataSource) (kmeansmr.Env, int, []criteria.Clustering, error) {
	st, err := c.stage(ctx, src, nil, BackendLocal)
	if err != nil {
		return kmeansmr.Env{}, 0, nil, err
	}
	_, cs, err := c.multiKCandidates(st)
	return st.env, st.n, cs, err
}

// SelectK applies the configured criterion exactly as Run does.
func (c *Clusterer) SelectK(ctx context.Context, env kmeansmr.Env, n int, cs []criteria.Clustering) (int, error) {
	return c.selectK(ctx, env, n, cs)
}
