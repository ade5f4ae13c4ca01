package tune

import (
	"testing"

	"extdict/internal/cluster"
	"extdict/internal/perf"
)

// TestChooseFamilyFollowsModeledCost pins the decision rule to the model:
// under every objective the winner must be exactly the argmin of the
// per-iteration predictions, recomputed here by hand from the perf
// package — no heuristic slack — with ties going to raw.
func TestChooseFamilyFollowsModeledCost(t *testing.T) {
	const n, nnz = 16384, 524288
	picked := map[string]bool{}
	for _, plat := range []cluster.Platform{cluster.NewPlatform(1, 1), cluster.NewPlatform(1, 4), cluster.NewPlatform(8, 8)} {
		for _, m := range []int{8, 64, 512} {
			for _, l := range []int{16, 128, 1024} {
				for _, obj := range []perf.Objective{perf.Runtime, perf.Energy, perf.Memory} {
					got := ChooseFamily(m, n, l, nnz, plat, obj)
					raw := perf.PredictDense(m, n, plat).Cost(obj)
					exd := perf.PredictTransformed(m, n, l, nnz, plat).Cost(obj)
					want := "raw"
					if exd < raw {
						want = "exd"
					}
					if got.Family != want {
						t.Fatalf("%s m=%d l=%d %s: chose %q, model argmin is %q (costs %+v)",
							plat.Topology, m, l, obj, got.Family, want, got.Costs)
					}
					if len(got.Costs) != 2 || got.Costs[0].Total != raw || got.Costs[1].Total != exd {
						t.Fatalf("%s m=%d l=%d %s: costs %+v, want raw %v then exd %v",
							plat.Topology, m, l, obj, got.Costs, raw, exd)
					}
					picked[got.Family] = true
				}
			}
		}
	}
	// The grid must exercise both outcomes, and only those.
	if len(picked) != 2 || !picked["raw"] || !picked["exd"] {
		t.Fatalf("grid picked %v, want both raw and exd", picked)
	}
}

// TestChooseFamilyTieGoesToRaw pins the tie rule at a shape where the
// Eq. 4 memory predictions agree exactly: one rank, M=2, N=7, L=1 and one
// coefficient give 16 words for both operators.
func TestChooseFamilyTieGoesToRaw(t *testing.T) {
	plat := cluster.NewPlatform(1, 1)
	got := ChooseFamily(2, 7, 1, 1, plat, perf.Memory)
	if got.Costs[0].Total != 16 || got.Costs[1].Total != 16 {
		t.Fatalf("costs %+v, want a 16-word tie", got.Costs)
	}
	if got.Family != "raw" {
		t.Fatalf("tie chose %q, want raw", got.Family)
	}
}

// TestChooseFamilyMemoryObjective pins the Eq. 4 side at a paper-sized
// shape: the dictionary plus a sparse C is a fraction of the raw column
// block, so the memory objective picks exd.
func TestChooseFamilyMemoryObjective(t *testing.T) {
	const m, n, l, nnz = 512, 16384, 128, 524288
	plat := cluster.NewPlatform(1, 4)
	if got := ChooseFamily(m, n, l, nnz, plat, perf.Memory); got.Family != "exd" {
		t.Fatalf("memory objective chose %q, want exd (costs %+v)", got.Family, got.Costs)
	}
}
