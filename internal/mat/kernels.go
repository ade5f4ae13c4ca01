package mat

// This file holds the register-level kernel primitives behind the public
// level-1/2/3 operations. The machine model they target is a memory-
// bandwidth-bound core: a single scalar accumulator chains every
// floating-point add through one dependency, and a single row stream leaves
// load bandwidth on the table. The primitives therefore (a) split
// accumulation across independent registers so adds overlap, and (b)
// interleave several contiguous row streams against one shared vector so the
// core issues multiple concurrent cache-line fetches.
//
// Reassociating a sum changes only last-ulp rounding; element-wise updates
// (axpyK) are bit-identical to the scalar loop. All kernels assume the
// non-len-bearing slices are at least as long as the len-bearing one; callers
// validate shapes.

// dotK returns <x, y> with 8-wide unrolling over 4 independent accumulators.
// Iterates len(x) elements; len(y) must be >= len(x).
func dotK(x, y []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+8 <= len(x); i += 8 {
		xv := x[i : i+8 : i+8]
		yv := y[i : i+8 : i+8]
		s0 += xv[0]*yv[0] + xv[4]*yv[4]
		s1 += xv[1]*yv[1] + xv[5]*yv[5]
		s2 += xv[2]*yv[2] + xv[6]*yv[6]
		s3 += xv[3]*yv[3] + xv[7]*yv[7]
	}
	for ; i < len(x); i++ {
		s0 += x[i] * y[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// dot2K returns (<r0, x>, <r1, x>): two row-dots sharing every load of x,
// each with 2 independent accumulators. Two concurrent row streams beat the
// single-stream bandwidth ceiling, which is why MulVec pairs its rows.
func dot2K(r0, r1, x []float64) (float64, float64) {
	var a0, a1, b0, b1 float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		xv := x[i : i+4 : i+4]
		u := r0[i : i+4 : i+4]
		v := r1[i : i+4 : i+4]
		a0 += u[0]*xv[0] + u[2]*xv[2]
		a1 += u[1]*xv[1] + u[3]*xv[3]
		b0 += v[0]*xv[0] + v[2]*xv[2]
		b1 += v[1]*xv[1] + v[3]*xv[3]
	}
	for ; i < len(x); i++ {
		a0 += r0[i] * x[i]
		b0 += r1[i] * x[i]
	}
	return a0 + a1, b0 + b1
}

// dot4K returns (<r0,x>, <r1,x>, <r2,x>, <r3,x>): four row-dots sharing
// every load of x, each with 2 independent accumulators — five concurrent
// streams per pass. Used for remainder rows below a full dot6K block and by
// the gathered-column Gram kernel.
func dot4K(r0, r1, r2, r3, x []float64) (float64, float64, float64, float64) {
	var a0, a1, b0, b1, c0, c1, d0, d1 float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		xv := x[i : i+4 : i+4]
		u := r0[i : i+4 : i+4]
		v := r1[i : i+4 : i+4]
		w := r2[i : i+4 : i+4]
		z := r3[i : i+4 : i+4]
		a0 += u[0]*xv[0] + u[2]*xv[2]
		a1 += u[1]*xv[1] + u[3]*xv[3]
		b0 += v[0]*xv[0] + v[2]*xv[2]
		b1 += v[1]*xv[1] + v[3]*xv[3]
		c0 += w[0]*xv[0] + w[2]*xv[2]
		c1 += w[1]*xv[1] + w[3]*xv[3]
		d0 += z[0]*xv[0] + z[2]*xv[2]
		d1 += z[1]*xv[1] + z[3]*xv[3]
	}
	for ; i < len(x); i++ {
		a0 += r0[i] * x[i]
		b0 += r1[i] * x[i]
		c0 += r2[i] * x[i]
		d0 += r3[i] * x[i]
	}
	return a0 + a1, b0 + b1, c0 + c1, d0 + d1
}

// dot6K returns the six row-dots (<r0,x>, …, <r5,x>) sharing every load of
// x — seven concurrent streams per pass, each row reduced through a paired
// tree (one accumulator per row; the tree breaks the serial add chain). The
// widest profitable row blocking for MulVec on a bandwidth-bound core: six
// streams saturate the load ports where four leave bandwidth unused.
func dot6K(r0, r1, r2, r3, r4, r5, x []float64) (y0, y1, y2, y3, y4, y5 float64) {
	i := 0
	for ; i+4 <= len(x); i += 4 {
		xv := x[i : i+4 : i+4]
		u := r0[i : i+4 : i+4]
		v := r1[i : i+4 : i+4]
		w := r2[i : i+4 : i+4]
		z := r3[i : i+4 : i+4]
		s := r4[i : i+4 : i+4]
		t := r5[i : i+4 : i+4]
		y0 += (u[0]*xv[0] + u[1]*xv[1]) + (u[2]*xv[2] + u[3]*xv[3])
		y1 += (v[0]*xv[0] + v[1]*xv[1]) + (v[2]*xv[2] + v[3]*xv[3])
		y2 += (w[0]*xv[0] + w[1]*xv[1]) + (w[2]*xv[2] + w[3]*xv[3])
		y3 += (z[0]*xv[0] + z[1]*xv[1]) + (z[2]*xv[2] + z[3]*xv[3])
		y4 += (s[0]*xv[0] + s[1]*xv[1]) + (s[2]*xv[2] + s[3]*xv[3])
		y5 += (t[0]*xv[0] + t[1]*xv[1]) + (t[2]*xv[2] + t[3]*xv[3])
	}
	for ; i < len(x); i++ {
		y0 += r0[i] * x[i]
		y1 += r1[i] * x[i]
		y2 += r2[i] * x[i]
		y3 += r3[i] * x[i]
		y4 += r4[i] * x[i]
		y5 += r5[i] * x[i]
	}
	return
}

// axpyK computes y += a*x. Element updates are independent, so this is
// bit-identical to the scalar loop. Iterates len(x); len(y) >= len(x).
//
// Every operand is resliced to the loop length before the loop, so the
// compiler can prove each index in range and drops the per-element bounds
// checks (check with -gcflags=-d=ssa/check_bce/debug=1). The 4-wide body
// counts n down from len(x): with 4 <= n <= len(x) known, n-1 … n-4 are
// all in range, which the compiler cannot derive for i+1 … i+3 counting
// up. The remaining n < 4 elements are the prefix [0, n).
func axpyK(a float64, x, y []float64) {
	n := len(x)
	y = y[:n]
	for ; n >= 4; n -= 4 {
		y[n-1] += a * x[n-1]
		y[n-2] += a * x[n-2]
		y[n-3] += a * x[n-3]
		y[n-4] += a * x[n-4]
	}
	x, y = x[:n], y[:n]
	for i, v := range x {
		y[i] += a * v
	}
}

// axpy4K computes y += a0*r0 + a1*r1 + a2*r2 + a3*r3 in one pass, fusing four
// row streams per load of y. Iterates len(y); rows must be >= len(y). The
// rows are resliced to len(y) so the loop runs free of bounds checks; each
// element's sum keeps its fixed pairing, so the result does not depend on
// the loop form.
func axpy4K(a0, a1, a2, a3 float64, r0, r1, r2, r3, y []float64) {
	n := len(y)
	r0, r1, r2, r3 = r0[:n], r1[:n], r2[:n], r3[:n]
	for i := range y {
		y[i] += (a0*r0[i] + a1*r1[i]) + (a2*r2[i] + a3*r3[i])
	}
}

// mulToTileJ is the dst/B column-tile width for MulTo: 512 float64 = 4 KiB
// per row stream, so the five streams of a 4-row-fused update panel stay
// L1-resident.
const mulToTileJ = 512

// mulToPanel accumulates dst[:, jLo:jHi] += A·B[:, jLo:jHi] with 4-way
// k-unrolling: each dst row is updated by four B rows per pass (axpy4K), so
// the inner loop runs five concurrent streams. dst must be pre-zeroed (or
// hold the partial sum being extended).
func mulToPanel(dst, a, b *Dense, jLo, jHi int) {
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)[jLo:jHi]
		k := 0
		for ; k+4 <= a.Cols; k += 4 {
			axpy4K(arow[k], arow[k+1], arow[k+2], arow[k+3],
				b.Row(k)[jLo:jHi], b.Row(k + 1)[jLo:jHi],
				b.Row(k + 2)[jLo:jHi], b.Row(k + 3)[jLo:jHi], drow)
		}
		for ; k < a.Cols; k++ {
			axpyK(arow[k], b.Row(k)[jLo:jHi], drow)
		}
	}
}

// ataPanel accumulates rows [pLo, pHi) of the upper triangle of G += AᵀA.
// Eight rows of A are blocked per pass, dividing the re-streaming traffic
// over G's rows by 8 and giving the core nine concurrent streams (8 data
// rows + the G row). Every G element is owned by exactly one output row and
// accumulated in a fixed order independent of the [pLo, pHi) split, so
// splitting the output rows across workers is deterministic at any split.
func ataPanel(a, g *Dense, pLo, pHi int) {
	rows := a.Rows
	i := 0
	for ; i+8 <= rows; i += 8 {
		r0, r1, r2, r3 := a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3)
		r4, r5, r6, r7 := a.Row(i+4), a.Row(i+5), a.Row(i+6), a.Row(i+7)
		for p := pLo; p < pHi; p++ {
			v0, v1, v2, v3 := r0[p], r1[p], r2[p], r3[p]
			v4, v5, v6, v7 := r4[p], r5[p], r6[p], r7[p]
			grow := g.Row(p)
			for q := p; q < len(grow); q++ {
				grow[q] += ((v0*r0[q] + v1*r1[q]) + (v2*r2[q] + v3*r3[q])) +
					((v4*r4[q] + v5*r5[q]) + (v6*r6[q] + v7*r7[q]))
			}
		}
	}
	for ; i < rows; i++ {
		row := a.Row(i)
		for p := pLo; p < pHi; p++ {
			vp := row[p]
			grow := g.Row(p)
			for q := p; q < len(grow); q++ {
				grow[q] += vp * row[q]
			}
		}
	}
}

// mirrorLower copies the computed upper triangle of a symmetric matrix into
// its lower triangle.
func mirrorLower(g *Dense) {
	for p := 0; p < g.Rows; p++ {
		for q := p + 1; q < g.Cols; q++ {
			g.Set(q, p, g.At(p, q))
		}
	}
}
