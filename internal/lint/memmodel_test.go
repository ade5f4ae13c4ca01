package lint

import (
	"testing"

	"extdict/internal/dist"
)

// TestMemModelSymbolicBytes closes the static/runtime loop for the memory
// model the same way TestCostModelSymbolicFlops does for flops, over both
// dictionary hops: the symbolic byte terms of applyCase1 — the CSC
// contracts per rank — and of the hop's round trip, which Case 1 runs on
// rank 0, are evaluated with the instance's dimensions and must
// sum to exactly the runtime-counted TotalBytes. The analyzer proves each
// AddBytes claim equals the derived polynomial; this test proves the
// derived polynomials predict the machine's counters.
func TestMemModelSymbolicBytes(t *testing.T) {
	pkg := distPackage(t)
	tr, plat, insts := case1Instances(t)
	ranges := dist.WeightedBlockRanges(symN, plat.RankSpeeds())
	for _, in := range insts {
		derived := deriveBytes(pkg)
		st := in.op.Apply(make([]float64, symN), make([]float64, symN))
		if st.TotalBytes == 0 {
			t.Fatal("runtime counted zero bytes; AddBytes claims missing")
		}
		// Unlike the flop polynomials the byte polynomials also carry the
		// rank's column window (ranges[][0/1]) for the vector-end traffic,
		// which rankBind binds per rank.
		var total int64
		for i := 0; i < symP; i++ {
			total += case1Claims(t, derived, in.hop, rankBind(tr, plat, in, i), i)
		}

		// Case 1 totals: the two CSC passes per rank plus both dictionary
		// steps on rank 0.
		want := 2 * in.stepBytes
		for i := 0; i < symP; i++ {
			ni := int64(ranges[i][1] - ranges[i][0])
			nnz := int64(tr.C.ColSliceRange(ranges[i][0], ranges[i][1]).NNZ())
			want += 16*nnz + 8*(2*ni+symL+1) // C_i·x_i
			want += 16*nnz + 8*(symL+2*ni+1) // C_iᵀ·v³
		}
		if total != want {
			t.Fatalf("%s: symbolic total %d, want %d", in.hop, total, want)
		}
		if total != st.TotalBytes {
			t.Fatalf("%s: symbolic total %d, runtime counted %d", in.hop, total, st.TotalBytes)
		}
	}
}
