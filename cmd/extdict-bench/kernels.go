package main

import (
	"extdict/internal/mat"
	"extdict/internal/perf"
	"extdict/internal/rng"
)

// kernelTiming is one microbenchmark pair in the -json report: the
// optimized kernel and its reference, timed back to back in the same
// process so the speedup ratio is immune to machine drift. Each row
// references its single-accumulator scalar loop.
type kernelTiming struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	Reps        int     `json:"reps"`
	NsPerOp     float64 `json:"ns_per_op"`
	RefNsPerOp  float64 `json:"ref_ns_per_op"`
	SpeedupVsGo float64 `json:"speedup_vs_scalar"`
	// Intensity is the kernel's analytic arithmetic intensity (flops per
	// byte) from its cost contract (DESIGN.md, "Cost contracts"), at this
	// benchmark's shape. Compare against the platform's machine balance
	// (0.4 flop/byte) to read the timing: the BLAS-2 kernels sit below it
	// (bandwidth-bound), the blocked ATA's panel re-streaming lifts it above.
	Intensity float64 `json:"arith_intensity"`
}

// denseMulVecAI is mat's MulVec contract for a square n×n matrix-vector
// product as an intensity.
func denseMulVecAI(n int) float64 {
	return intensity(mat.MulVecCost(n, n))
}

// intensity is a cost contract's flops per byte.
func intensity(flops, bytes int64) float64 {
	return float64(flops) / float64(bytes)
}

// blockedATAAI: AᵀA at M×L costs M·L·(L+1) flops; the blocked kernel
// re-streams A's rows once per 8-row panel of the output, so traffic is
// 8·(M·L + ⌈M/8⌉·L·(L+1)) bytes.
func blockedATAAI(m, l int) float64 {
	flops := float64(m) * float64(l) * float64(l+1)
	panels := float64((m + 7) / 8)
	return flops / (8 * (float64(m)*float64(l) + panels*float64(l)*float64(l+1)))
}

// timeKernel runs fn reps times (after one warmup call) under the wall
// stopwatch and returns ns per call.
func timeKernel(reps int, fn func()) float64 {
	fn()
	sw := perf.StartWall()
	for i := 0; i < reps; i++ {
		fn()
	}
	return float64(sw.Elapsed().Nanoseconds()) / float64(reps)
}

// scalar reference kernels: the pre-optimization loops, kept here so the
// shipped binary can always report its own speedup over them.

func refMulVec(m *mat.Dense, x, y []float64) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
}

func refMulVecT(m *mat.Dense, x, y []float64) {
	for i := range y {
		y[i] = 0
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		xi := x[i]
		for j, v := range row {
			y[j] += xi * v
		}
	}
}

func refATA(a *mat.Dense) *mat.Dense {
	n := a.Cols
	g := mat.NewDense(n, n)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		for p := 0; p < n; p++ {
			vp := row[p]
			grow := g.Row(p)
			for q := p; q < n; q++ {
				grow[q] += vp * row[q]
			}
		}
	}
	for p := 0; p < n; p++ {
		for q := p + 1; q < n; q++ {
			g.Set(q, p, g.At(p, q))
		}
	}
	return g
}

// kernelBaselines times the hot dense kernels at the sizes the acceptance
// gate tracks (MulVec n=1024, ATA n=256) plus the transpose product, each
// against its scalar reference.
func kernelBaselines(seed uint64) []kernelTiming {
	r := rng.New(seed)
	fill := func(v []float64) {
		for i := range v {
			v[i] = r.NormFloat64()
		}
	}

	a1024 := mat.NewDense(1024, 1024)
	fill(a1024.Data)
	x1024 := make([]float64, 1024)
	y1024 := make([]float64, 1024)
	fill(x1024)

	a256 := mat.NewDense(256, 256)
	fill(a256.Data)

	out := []kernelTiming{
		{
			Name: "MulVec", N: 1024, Reps: 100, Intensity: denseMulVecAI(1024),
			NsPerOp:    timeKernel(100, func() { a1024.MulVec(x1024, y1024) }),
			RefNsPerOp: timeKernel(100, func() { refMulVec(a1024, x1024, y1024) }),
		},
		{
			Name: "MulVecT", N: 1024, Reps: 100, Intensity: denseMulVecAI(1024),
			NsPerOp:    timeKernel(100, func() { a1024.MulVecT(x1024, y1024) }),
			RefNsPerOp: timeKernel(100, func() { refMulVecT(a1024, x1024, y1024) }),
		},
		{
			Name: "ATA", N: 256, Reps: 20, Intensity: blockedATAAI(256, 256),
			NsPerOp:    timeKernel(20, func() { mat.ATA(a256) }),
			RefNsPerOp: timeKernel(20, func() { refATA(a256) }),
		},
	}
	for i := range out {
		if out[i].NsPerOp > 0 {
			out[i].SpeedupVsGo = out[i].RefNsPerOp / out[i].NsPerOp
		}
	}
	return out
}
