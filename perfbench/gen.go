package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"strconv"
)

// mixture is a generated Gaussian mixture with its ground truth. The
// generator belongs to the benchmark, so the program under test receives
// only the files written from it.
type mixture struct {
	dim     int
	points  [][]float64
	labels  []int
	centers [][]float64
}

// mixtureSpec describes one workload's input: k well-separated isotropic
// Gaussians (unit standard deviation) with centres drawn uniformly in
// [0, span]^dim, at least minSep apart.
type mixtureSpec struct {
	n, dim, k    int
	span, minSep float64
}

// generate draws the mixture of spec from seed. Points are balanced over
// clusters and shuffled, so file splits sample every cluster.
func generate(spec mixtureSpec, seed uint64) (*mixture, error) {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	m := &mixture{dim: spec.dim}
	minSep2 := spec.minSep * spec.minSep
	for tries := 0; len(m.centers) < spec.k; tries++ {
		if tries > 1000*spec.k {
			return nil, fmt.Errorf("cannot place %d centres %g apart in [0,%g]^%d", spec.k, spec.minSep, spec.span, spec.dim)
		}
		c := make([]float64, spec.dim)
		for d := range c {
			c[d] = rng.Float64() * spec.span
		}
		ok := true
		for _, o := range m.centers {
			if sqDist(c, o) < minSep2 {
				ok = false
				break
			}
		}
		if ok {
			m.centers = append(m.centers, c)
		}
	}
	flat := make([]float64, spec.n*spec.dim)
	m.points = make([][]float64, spec.n)
	m.labels = make([]int, spec.n)
	for i := range m.points {
		p := flat[i*spec.dim : (i+1)*spec.dim : (i+1)*spec.dim]
		c := m.centers[i%spec.k]
		for d := range p {
			p[d] = c[d] + rng.NormFloat64()
		}
		m.points[i], m.labels[i] = p, i%spec.k
	}
	rng.Shuffle(spec.n, func(i, j int) {
		m.points[i], m.points[j] = m.points[j], m.points[i]
		m.labels[i], m.labels[j] = m.labels[j], m.labels[i]
	})
	return m, nil
}

// writeText writes one point per line, coordinates space-separated in the
// shortest round-trip decimal form.
func writeText(path string, points [][]float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var buf []byte
	for _, p := range points {
		buf = appendText(buf[:0], p)
		if _, err := w.Write(buf); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// appendText appends p as one text record: coordinates space-separated
// in the shortest round-trip decimal form, then a newline.
func appendText(dst []byte, p []float64) []byte {
	for d, x := range p {
		if d > 0 {
			dst = append(dst, ' ')
		}
		dst = strconv.AppendFloat(dst, x, 'g', -1, 64)
	}
	return append(dst, '\n')
}

// encodeGMPB renders points in the GMPB binary point format: the 12-byte
// header ("GMPB", version 1 as uint16 LE, a reserved uint16, dim as uint32
// LE) followed by one frame of dim little-endian float64s per point.
func encodeGMPB(points [][]float64, dim int) []byte {
	out := make([]byte, 12, 12+8*dim*len(points))
	copy(out, "GMPB")
	binary.LittleEndian.PutUint16(out[4:], 1)
	binary.LittleEndian.PutUint32(out[8:], uint32(dim))
	for _, p := range points {
		for _, x := range p {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
		}
	}
	return out
}

func writeGMPB(path string, points [][]float64, dim int) error {
	return os.WriteFile(path, encodeGMPB(points, dim), 0o644)
}

// queryPoints draws q serving queries from the mixture's seed: three in
// four near a random true centre, the rest uniform over the data's
// bounding box.
func queryPoints(m *mixture, q int, seed uint64) [][]float64 {
	rng := rand.New(rand.NewPCG(seed, 0x51ed270b27e4c3d1))
	lo, hi := boundingBox(m.points)
	out := make([][]float64, q)
	for i := range out {
		p := make([]float64, m.dim)
		if i%4 != 3 {
			c := m.centers[rng.IntN(len(m.centers))]
			for d := range p {
				p[d] = c[d] + rng.NormFloat64()
			}
		} else {
			for d := range p {
				p[d] = lo[d] + rng.Float64()*(hi[d]-lo[d])
			}
		}
		out[i] = p
	}
	return out
}

func boundingBox(points [][]float64) (lo, hi []float64) {
	lo = append([]float64(nil), points[0]...)
	hi = append([]float64(nil), points[0]...)
	for _, p := range points[1:] {
		for d, x := range p {
			lo[d] = math.Min(lo[d], x)
			hi[d] = math.Max(hi[d], x)
		}
	}
	return lo, hi
}
