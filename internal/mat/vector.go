package mat

import "math"

// DotCost is the cost contract of Dot over n-vectors: 2·n flops and 16·n
// bytes (both operands stream once).
func DotCost(n int) (flops, bytes int64) { return 2 * int64(n), 16 * int64(n) }

// Dot returns the inner product of x and y, which must have equal length.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("mat: Dot length mismatch")
	}
	return dotK(x, y)
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	var scale, ssq float64 = 0, 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// Norm1 returns the 1-norm (sum of absolute values) of x.
func Norm1(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += math.Abs(v)
	}
	return s
}

// NormInf returns the max-norm of x.
func NormInf(x []float64) float64 {
	var s float64
	for _, v := range x {
		if a := math.Abs(v); a > s {
			s = a
		}
	}
	return s
}

// AxpyCost is the cost contract of Axpy over n-vectors: 2·n flops and 24·n
// bytes (x streams once; y is read and rewritten).
func AxpyCost(n int) (flops, bytes int64) { return 2 * int64(n), 24 * int64(n) }

// Axpy computes y += alpha*x in place. Lengths must match. The unrolled
// update is element-wise and therefore bit-identical to the scalar loop.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("mat: Axpy length mismatch")
	}
	axpyK(alpha, x, y)
}

// ScaleVec multiplies x by alpha in place.
func ScaleVec(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// CopyVec returns a fresh copy of x.
func CopyVec(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}

// SubVec computes dst = a - b. dst may alias a or b; all lengths must match.
func SubVec(dst, a, b []float64) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("mat: SubVec length mismatch")
	}
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// AddVec computes dst = a + b. dst may alias a or b; all lengths must match.
func AddVec(dst, a, b []float64) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("mat: AddVec length mismatch")
	}
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// ZeroCost is the cost contract of Zero over an n-vector: no flops and 8·n
// bytes written.
func ZeroCost(n int) (flops, bytes int64) { return 0, 8 * int64(n) }

// Zero clears x in place.
func Zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}
