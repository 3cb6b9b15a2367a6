package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"gmeansmr"
)

// answer is the benchmark's brute-force answer to one query.
type answer struct {
	cluster int
	d2      float64
}

// answerChecker compares the server's answers with brute force.
type answerChecker struct {
	centers [][]float64
	queries [][]float64
	want    []answer
}

// ok reports whether (cluster, distance) answers query i: the cluster
// must be the nearest centre, or tie with it, and the distance must
// match to 1e-9 relative.
func (a *answerChecker) ok(i, cluster int, distance float64) bool {
	w := a.want[i]
	if cluster < 0 || cluster >= len(a.centers) || !relClose(distance, math.Sqrt(w.d2), 1e-9) {
		return false
	}
	return cluster == w.cluster || relClose(sqDist(a.queries[i], a.centers[cluster]), w.d2, 1e-9)
}

// slice is the length of the intervals serving is cut into. Serving
// metrics are medians over the intervals, so a disturbance that hits a
// few of them (a collection cycle, a busy neighbour) does not move the
// run's figure.
const slice = 500 * time.Millisecond

// clientStats is what one closed-loop client saw in one burst, by slice.
type clientStats struct {
	requests, failed int64
	wrong            []string
	latencies        [][]float64 // singleton latencies per slice, µs
	points           []float64   // points answered by batch requests per slice
	reloads          []float64   // reload latencies, ms
	generation       int64       // the last generation a reload answered
	start            time.Time
}

// at returns the slice time t falls in, growing the per-slice lists.
func (c *clientStats) at(t time.Time) int {
	i := int(t.Sub(c.start) / slice)
	for len(c.latencies) <= i {
		c.latencies = append(c.latencies, nil)
		c.points = append(c.points, 0)
	}
	return i
}

func (c *clientStats) wrongf(format string, args ...any) {
	if len(c.wrong) < 5 {
		c.wrong = append(c.wrong, fmt.Sprintf(format, args...))
	}
}

// rig is a loopback server over the trained model and the state of its
// two closed-loop clients: one sends JSON singletons to /v1/assign, the
// other GMPB batches to /v1/assign/batch and, every reloadEvery batches,
// POST /v1/model/reload. Serving runs in bursts between the timed Runs,
// so the serving and training figures sample the same stretch of time.
type rig struct {
	srv      *gmeansmr.Server
	hs       *http.Server
	served   chan error
	base     string
	snapshot []byte
	chk      *answerChecker
	singles  [][]byte
	batches  [][]byte
	nSingle  int // singleton requests sent so far, across bursts
	nBatch   int // batch requests sent so far, across bursts

	generation int64
	rate       []float64 // batch points answered per second, per slice
	p50, p90   []float64 // singleton latency quantiles per slice, µs
	p99        []float64 // likewise; reported without a bound
	reloads    []float64 // reload latencies, ms
}

// startServing builds a model from res, saves its snapshot and starts a
// loopback server over it, with a loader that re-reads the snapshot.
func (b *bench) startServing(in *inputs, res *gmeansmr.Result) (*rig, error) {
	m, err := gmeansmr.BuildModel(res, in.mix.points)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(b.dir, "model.gmm")
	var buf bytes.Buffer
	if err := gmeansmr.SaveModel(m, &buf); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	loader := func() (*gmeansmr.Model, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return gmeansmr.LoadModel(bufio.NewReader(f))
	}
	srv, err := gmeansmr.NewServer(m, gmeansmr.ServerOptions{Loader: loader})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &rig{
		srv: srv, hs: &http.Server{Handler: srv}, served: make(chan error, 1),
		base: "http://" + ln.Addr().String(), snapshot: buf.Bytes(),
		chk:     &answerChecker{centers: m.Centers, queries: in.queries, want: make([]answer, len(in.queries))},
		singles: singletonBodies(in.queries), batches: batchBodies(in.queries),
		generation: srv.Generation(),
	}
	for i, q := range in.queries {
		c, d2 := nearest(q, m.Centers)
		r.chk.want[i] = answer{c, d2}
	}
	go func() { r.served <- r.hs.Serve(ln) }()
	return r, nil
}

// burst serves both clients for burstTime and keeps the figures of its
// whole slices.
func (b *bench) burst(r *rig) {
	single, batch := clientStats{generation: r.generation}, clientStats{generation: r.generation}
	stolen := startSteal()
	deadline := time.Now().Add(burstTime)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); r.singletonClient(deadline, &single) }()
	go func() { defer wg.Done(); r.batchClient(deadline, &batch) }()
	wg.Wait()
	// Throughput counts the burst's time less the share other guests stole.
	served := slice.Seconds() * (1 - stolen.share())
	for _, c := range []*clientStats{&single, &batch} {
		b.attempted += c.requests
		b.failed += c.failed
		for _, w := range c.wrong {
			b.check(false, "%s", w)
		}
	}
	r.generation = batch.generation
	r.reloads = append(r.reloads, batch.reloads...)
	for i := 0; i < int(burstTime/slice) && i < len(single.latencies) && i < len(batch.points); i++ {
		r.rate = append(r.rate, batch.points[i]/served)
		r.p50 = append(r.p50, quantile(single.latencies[i], 0.5))
		r.p90 = append(r.p90, quantile(single.latencies[i], 0.9))
		r.p99 = append(r.p99, quantile(single.latencies[i], 0.99))
	}
}

// stopServing shuts the server down and sets the serving metrics.
func (b *bench) stopServing(r *rig) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("stopping the server: %w", err)
	}
	if err := <-r.served; err != http.ErrServerClosed {
		return fmt.Errorf("serving: %w", err)
	}
	reloads := int64(len(r.reloads))
	b.check(r.srv.Generation() == 1+reloads, "generation %d after %d reloads", r.srv.Generation(), reloads)
	if len(r.rate) == 0 || reloads == 0 {
		return fmt.Errorf("serving too short: %d slices, %d reloads", len(r.rate), reloads)
	}
	b.set("batch_points_per_s", "1/s", median(r.rate))
	b.set("singleton_p50_us", "us", median(r.p50))
	b.set("singleton_p90_us", "us", median(r.p90))
	b.set("serve.singleton_p99_us", "us", median(r.p99))
	b.set("reload_p50_ms", "ms", median(r.reloads))
	return nil
}

func newClient() *http.Client {
	// A transport of its own keeps each client on one keep-alive
	// connection; no proxy is consulted for loopback.
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// post sends one request and returns the body of a 200 answer.
func post(c *http.Client, url, contentType string, body []byte) ([]byte, error) {
	resp, err := c.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, data)
	}
	return data, nil
}

// singletonBodies encodes the first quarter of the queries as JSON
// /v1/assign bodies.
func singletonBodies(queries [][]float64) [][]byte {
	bodies := make([][]byte, len(queries)/4)
	for i := range bodies {
		b := []byte(`{"point":[`)
		for d, x := range queries[i] {
			if d > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, x, 'g', -1, 64)
		}
		bodies[i] = append(b, "]}"...)
	}
	return bodies
}

// batchBodies encodes the queries as GMPB /v1/assign/batch bodies of
// batchSize points each.
func batchBodies(queries [][]float64) [][]byte {
	bodies := make([][]byte, len(queries)/batchSize)
	for i := range bodies {
		bodies[i] = encodeGMPB(queries[i*batchSize:(i+1)*batchSize], len(queries[0]))
	}
	return bodies
}

func (r *rig) singletonClient(deadline time.Time, st *clientStats) {
	c := newClient()
	defer c.CloseIdleConnections()
	var resp struct {
		Cluster  int     `json:"cluster"`
		Distance float64 `json:"distance"`
	}
	st.start = time.Now()
	for ; time.Now().Before(deadline); r.nSingle++ {
		i := r.nSingle % len(r.singles)
		st.requests++
		t0 := time.Now()
		data, err := post(c, r.base+"/v1/assign", "application/json", r.singles[i])
		t1 := time.Now()
		if err != nil {
			st.failed++
			continue
		}
		k := st.at(t1)
		st.latencies[k] = append(st.latencies[k], float64(t1.Sub(t0))/float64(time.Microsecond))
		if err := json.Unmarshal(data, &resp); err != nil || !r.chk.ok(i, resp.Cluster, resp.Distance) {
			st.wrongf("singleton %d answered %s (%v)", i, data, err)
		}
	}
}

func (r *rig) batchClient(deadline time.Time, st *clientStats) {
	c := newClient()
	defer c.CloseIdleConnections()
	st.start = time.Now()
	for ; time.Now().Before(deadline); r.nBatch++ {
		if r.nBatch > 0 && r.nBatch%reloadEvery == 0 {
			st.requests++
			t0 := time.Now()
			data, err := post(c, r.base+"/v1/model/reload", "application/json", nil)
			lat := time.Since(t0)
			if err != nil {
				st.failed++
				continue
			}
			st.reloads = append(st.reloads, float64(lat)/float64(time.Millisecond))
			var resp struct {
				Generation int64 `json:"generation"`
			}
			if err := json.Unmarshal(data, &resp); err != nil || resp.Generation <= st.generation {
				st.wrongf("reload answered %s after generation %d (%v)", data, st.generation, err)
			}
			st.generation = resp.Generation
		}
		i := r.nBatch % len(r.batches)
		st.requests++
		data, err := post(c, r.base+"/v1/assign/batch", "application/octet-stream", r.batches[i])
		if err != nil {
			st.failed++
			continue
		}
		if len(data) != 12+12*batchSize || string(data[:4]) != "GMAB" ||
			int(binary.LittleEndian.Uint32(data[8:12])) != len(r.chk.centers) {
			st.wrongf("batch %d answered a malformed %d-byte body", i, len(data))
			continue
		}
		for j := 0; j < batchSize; j++ {
			f := data[12+12*j:]
			cluster := int(binary.LittleEndian.Uint32(f[:4]))
			dist := math.Float64frombits(binary.LittleEndian.Uint64(f[4:12]))
			if !r.chk.ok(i*batchSize+j, cluster, dist) {
				st.wrongf("batch %d point %d answered cluster %d at %v", i, j, cluster, dist)
				break
			}
		}
		st.points[st.at(time.Now())] += batchSize
	}
}

// serveProbes times the serving layers from outside HTTP: snapshot
// loading, model swaps and programmatic assignment.
func (b *bench) serveProbes(in *inputs, r *rig) {
	srv, snapshot, chk := r.srv, r.snapshot, r.chk
	// Read the server's own counters before the probes swap models.
	reg := srv.Metrics()
	b.set("serve.server_assign_p50_us", "us", 1e6*reg.Histogram("serve_assign_seconds", nil).P50())
	b.set("serve.requests", "count", float64(reg.Counter("serve_requests_total").Value()))
	b.set("serve.swaps", "count", float64(reg.Counter("serve_model_swaps_total").Value()))

	const reps = 64
	var loads, swaps []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		m, err := gmeansmr.LoadModel(bytes.NewReader(snapshot))
		loads = append(loads, time.Since(start).Seconds())
		if err != nil {
			b.check(false, "loading the snapshot: %v", err)
			return
		}
		start = time.Now()
		err = srv.Swap(m)
		swaps = append(swaps, time.Since(start).Seconds())
		b.check(err == nil, "swapping the model: %v", err)
	}
	b.set("model.load_s", "s", median(loads))
	b.set("model.swap_s", "s", median(swaps))

	// Singletons are timed in blocks: one call is near the clock's
	// resolution.
	const block = 256
	var singles []float64
	for r := 0; r < probeReps; r++ {
		for i := 0; i+block <= len(in.queries); i += block {
			start := time.Now()
			for j := i; j < i+block; j++ {
				a, err := srv.Assign(in.queries[j])
				if err != nil || !chk.ok(j, a.Cluster, a.Distance) {
					b.check(false, "Assign(query %d) = %+v, %v", j, a, err)
					return
				}
			}
			singles = append(singles, float64(time.Since(start))/float64(time.Microsecond)/block)
		}
	}
	b.set("serve.assign_single_us", "us", median(singles))

	var batches []float64
	size := batchSize
	for r := 0; r < probeReps; r++ {
		for i := 0; i+size <= len(in.queries); i += size {
			start := time.Now()
			out, err := srv.AssignBatch(in.queries[i : i+size])
			batches = append(batches, time.Since(start).Seconds())
			if err != nil || len(out) != size {
				b.check(false, "AssignBatch(queries %d..) failed: %v", i, err)
				return
			}
			for j, a := range out {
				if !chk.ok(i+j, a.Cluster, a.Distance) {
					b.check(false, "AssignBatch answered query %d with %+v", i+j, a)
					return
				}
			}
		}
	}
	b.set("serve.assign_batch_s", "s", median(batches))
}
