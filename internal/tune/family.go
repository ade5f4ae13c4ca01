package tune

import (
	"extdict/internal/cluster"
	"extdict/internal/perf"
)

// FamilyCost is one scored operator family.
type FamilyCost struct {
	// Family is "raw" or "exd".
	Family string
	// Estimate is the per-iteration platform prediction (Eq. 2/3/4).
	Estimate perf.Estimate
	// Total is Estimate.Cost(objective) — the number the decision
	// minimizes.
	Total float64
}

// FamilyChoice is the decision record: the winning family and every
// candidate's score, so reports can show the margin.
type FamilyChoice struct {
	// Family is the winner: the candidate with the lowest Total, ties
	// resolved toward the simpler family (raw before exd).
	Family string
	// Costs lists the candidates in decision order: raw, exd.
	Costs []FamilyCost
}

// ChooseFamily picks between the untransformed operator and the ExD
// operator by modeled cost at shape (M, N, L, nnz(C)) on the platform: the
// per-iteration Eq. 2/3/4 prediction under the objective. The decision is
// exactly the model's argmin — no heuristics on top — so a unit test can
// pin it against hand-evaluated polynomials.
func ChooseFamily(m, n, l, nnz int, plat cluster.Platform, obj perf.Objective) FamilyChoice {
	costs := []FamilyCost{
		{Family: "raw", Estimate: perf.PredictDense(m, n, plat)},
		{Family: "exd", Estimate: perf.PredictTransformed(m, n, l, nnz, plat)},
	}
	best := 0
	for i := range costs {
		costs[i].Total = costs[i].Estimate.Cost(obj)
		if costs[i].Total < costs[best].Total {
			best = i
		}
	}
	return FamilyChoice{Family: costs[best].Family, Costs: costs}
}
