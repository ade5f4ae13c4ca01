package exd

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"extdict/internal/dataset"
	"extdict/internal/rng"
)

// fitDigest hashes the exact bits of a fitted coefficient matrix — ColPtr,
// RowIdx, the IEEE-754 bits of Val — together with the OMP iteration count.
func fitDigest(tr *Transform) string {
	h := sha256.New()
	var buf [8]byte
	word := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	for _, s := range [][]int{tr.C.ColPtr, tr.C.RowIdx} {
		word(uint64(len(s)))
		for _, v := range s {
			word(uint64(v))
		}
	}
	word(uint64(len(tr.C.Val)))
	for _, v := range tr.C.Val {
		word(math.Float64bits(v))
	}
	word(uint64(tr.OMPIters))
	return hex.EncodeToString(h.Sum(nil))
}

// TestFitDigestPinned pins the bits of exd.Fit's output on two seeded
// union-of-subspaces inputs, one with L < M and one with L ≫ M. The
// Batch-OMP kernels (Dᵀa, the α refresh, the Cholesky updates) may be
// rewritten for speed, but every rewrite must keep each floating-point
// operation and its order, so the codes stay identical bit for bit. A
// reassociated sum anywhere on the coding path changes these digests.
func TestFitDigestPinned(t *testing.T) {
	cases := []struct {
		name string
		up   dataset.UnionParams
		p    Params
		seed uint64
		want string
	}{
		{
			name: "L<M",
			up:   dataset.UnionParams{M: 64, N: 480, Ks: []int{5, 7, 9}, NoiseSigma: 0.02, OutlierFrac: 0.05},
			p:    Params{L: 45, Epsilon: 0.1, Workers: 2, Seed: 11},
			seed: 101,
			want: "f3c1ba4a80d679416039688d273639232ea6d5e76591f5fe8a802e177f51bf49",
		},
		{
			name: "L>>M",
			up:   dataset.UnionParams{M: 24, N: 900, Ks: []int{3, 4, 5, 6}, NoiseSigma: 0.01},
			p:    Params{L: 400, Epsilon: 0.05, Workers: 3, Seed: 12},
			seed: 102,
			want: "3cdb13b6db082dbb07152a9b66f61d04374a573d81314a8dd2e1f42d061aefe9",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			u, err := dataset.GenerateUnion(tc.up, rng.New(tc.seed))
			if err != nil {
				t.Fatal(err)
			}
			tr, err := Fit(u.A, tc.p)
			if err != nil {
				t.Fatal(err)
			}
			got := fitDigest(tr)
			t.Logf("nnz %d, OMP iterations %d, digest %s", tr.C.NNZ(), tr.OMPIters, got)
			if got != tc.want {
				t.Fatalf("fit digest drifted:\n  got  %s\n  want %s", got, tc.want)
			}
		})
	}
}
