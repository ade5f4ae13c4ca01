package dist

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"reflect"
	"testing"

	"extdict/internal/cluster"
	"extdict/internal/rng"
)

// applyDigest hashes one Apply's output vector and every cluster.Stats
// field except Wall, the only clock-derived field. Floats hash by their bit
// patterns, so the digest pins results and accounting bit for bit.
func applyDigest(h hash.Hash, y []float64, st cluster.Stats) {
	for _, v := range y {
		fmt.Fprintf(h, "%x,", math.Float64bits(v))
	}
	sv := reflect.ValueOf(st)
	for i := 0; i < sv.NumField(); i++ {
		name := sv.Type().Field(i).Name
		if name == "Wall" {
			continue
		}
		f := sv.Field(i)
		if f.Kind() == reflect.Float64 {
			fmt.Fprintf(h, "%s=%x;", name, math.Float64bits(f.Float()))
			continue
		}
		fmt.Fprintf(h, "%s=%v;", name, f.Interface())
	}
}

// TestApplyDigestPinned pins every operator bit for bit: seeded Apply
// calls of the Algorithm 2 operator in both cases, and of the DenseGram
// and BatchGram
// baselines, on one rank and on three, must reproduce the committed digests
// of their output vectors and runtime statistics (traced schedule
// included). The baseline rows apply several times, each on the previous
// output, so BatchGram's row also walks its seeded batch schedule. Any change to the
// arithmetic order, the partitioning, or the flop, byte, resident or word
// accounting shows up here.
func TestApplyDigestPinned(t *testing.T) {
	a := testData(t, 30, 120, 3)
	x := randVec(rng.New(4), 120)
	exdRow := func(l int) func(t *testing.T, comm *cluster.Comm) Operator {
		return func(t *testing.T, comm *cluster.Comm) Operator {
			return exdGram(t, comm, fitExD(t, a, l, 0.05))
		}
	}
	cases := []struct {
		name    string
		op      func(t *testing.T, comm *cluster.Comm) Operator
		applies int
		want    string
	}{
		{"case1/dense", exdRow(20), 1, "5a931df063fe7ff275b4fc345825ab88288cb19b76d45eed27369e82a0f056a4"},
		{"case2/dense", exdRow(80), 1, "9aa1e1541a444fc72ebcaebf198d26b5194e28052eb4eeef66a2324c203ddd14"},
		{"DenseGram", func(_ *testing.T, comm *cluster.Comm) Operator { return NewDenseGram(comm, a) }, 3, "d0e4e63d92200a1a4134b661a9751cc5fba00b456f6b38e2398e4860b8aca5ba"},
		{"BatchGram", func(_ *testing.T, comm *cluster.Comm) Operator { return NewBatchGram(comm, a, 8, 11) }, 3, "3e9748289038ae61523584b25992049634c7ed5d2c1d572fef1e345102746354"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := sha256.New()
			for _, p := range []int{1, 3} {
				comm := cluster.NewComm(cluster.NewPlatform(1, p))
				comm.EnableTrace()
				op := tc.op(t, comm)
				in := x
				for i := 0; i < tc.applies; i++ {
					y := make([]float64, 120)
					applyDigest(h, y, applyWatched(t, op, in, y))
					in = y // later Applies iterate, as the solvers do
				}
			}
			got := hex.EncodeToString(h.Sum(nil))
			if got != tc.want {
				t.Fatalf("Apply digest drifted:\n  got  %s\n  want %s", got, tc.want)
			}
		})
	}
}
