package tune

import (
	"extdict/internal/cluster"
	"extdict/internal/faust"
	"extdict/internal/perf"
)

// FamilyConfig controls the operator-family decision: which objective to
// minimize, how many Gram iterations the fitted operator will be reused
// for (the factorization cost amortizes over these), and the chain shape
// to price for the FastDict candidate.
type FamilyConfig struct {
	// Objective selects which cost to minimize (default Runtime).
	Objective perf.Objective
	// Reuse is the number of Apply iterations the operator serves before
	// being refit — the denominator the one-time factorization cost is
	// amortized over. Default 1 (the whole cost charged to a single
	// iteration, the conservative extreme).
	Reuse int
	// Factors and Budget shape the candidate chain (faust.Options
	// semantics; zero values take the faust defaults: k=4 at 4× dictionary
	// compression).
	Factors int
	Budget  int
	// Iters and Polish are the factorization effort priced into the
	// amortized cost (faust.Options defaults when zero).
	Iters, Polish int
}

func (c *FamilyConfig) fill() {
	if c.Reuse <= 0 {
		c.Reuse = 1
	}
}

// FamilyCost is one scored operator family.
type FamilyCost struct {
	// Family is "raw", "exd", or "fastdict".
	Family string
	// Estimate is the per-iteration platform prediction (Eq. 2/3/4).
	Estimate perf.Estimate
	// PrepPerIter is the amortized one-time preparation cost per iteration
	// in the objective's unit — nonzero only for fastdict, whose PALM
	// factorization costs Plan.FactorizeFlops once. Memory objectives
	// carry no prep term: the factorization workspace is transient.
	PrepPerIter float64
	// Total is Estimate.Cost(objective) + PrepPerIter — the number the
	// decision minimizes.
	Total float64
}

// FamilyChoice is the decision record: the winning family and every
// candidate's score, so reports can show the margin.
type FamilyChoice struct {
	// Family is the winner: the candidate with the lowest Total, ties
	// resolved toward the simpler family (raw before exd before fastdict).
	Family string
	// Plan is the chain shape the fastdict candidate was priced at.
	Plan faust.Plan
	// Costs lists the candidates in decision order: raw, exd, fastdict.
	Costs []FamilyCost
}

// ChainTermsOf bridges a factorization plan into the perf model through
// the plan's chain contracts.
func ChainTermsOf(p faust.Plan) perf.ChainTerms {
	flops, bytes := p.MulVecCost()
	return perf.ChainTerms{
		StepFlops:     flops,
		StepBytes:     bytes,
		ResidentBytes: p.ResidentBytes(),
		InterDim:      int64(p.InterDim()),
	}
}

// ChooseFamily picks among the untransformed operator, the ExD operator,
// and the FastDict operator by modeled cost at shape (M, N, L, nnz(C)) on
// the platform: per-iteration Eq. 2/3/4 predictions, plus the fastdict
// candidate's factorization flops amortized over cfg.Reuse iterations. The
// decision is exactly the model's argmin — no heuristics on top — so a
// unit test can pin it against hand-evaluated polynomials.
func ChooseFamily(m, n, l, nnz int, plat cluster.Platform, cfg FamilyConfig) FamilyChoice {
	cfg.fill()
	plan := faust.NewPlan(m, l, cfg.Factors, cfg.Budget)

	prep := 0.0
	flops := float64(plan.FactorizeFlops(cfg.Iters, cfg.Polish))
	switch cfg.Objective {
	case perf.Runtime:
		prep = flops * plat.Cost.FlopTime / float64(cfg.Reuse)
	case perf.Energy:
		prep = flops * plat.Cost.FlopEnergy / float64(cfg.Reuse)
	}

	costs := []FamilyCost{
		{Family: "raw", Estimate: perf.PredictDense(m, n, plat)},
		{Family: "exd", Estimate: perf.PredictTransformed(m, n, l, nnz, plat)},
		{Family: "fastdict", Estimate: perf.PredictFastDict(m, n, l, nnz, ChainTermsOf(plan), plat), PrepPerIter: prep},
	}
	best := 0
	for i := range costs {
		costs[i].Total = costs[i].Estimate.Cost(cfg.Objective) + costs[i].PrepPerIter
		if costs[i].Total < costs[best].Total {
			best = i
		}
	}
	return FamilyChoice{Family: costs[best].Family, Plan: plan, Costs: costs}
}
