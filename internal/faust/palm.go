package faust

import (
	"fmt"
	"math"
	"sort"

	"extdict/internal/mat"
	"extdict/internal/rng"
	"extdict/internal/sparse"
)

// Options controls Factorize. Zero values take the documented defaults.
type Options struct {
	// Factors is the chain depth k: one Rows×Cols factor at the wide end
	// followed by k−1 square Cols×Cols factors. Default 4.
	Factors int
	// Budget is the per-factor nnz target: each factor keeps at most Budget
	// entries (clamped to the factor's capacity). Default rows·cols/(4·k),
	// i.e. a 4× compression of the dense dictionary.
	Budget int
	// Iters is the number of PALM iterations per hierarchical two-factor
	// split. Default 30.
	Iters int
	// Polish is the number of global all-factor proximal-gradient sweeps
	// after the hierarchical splits. Default 2.
	Polish int
	// Restarts is the number of seeded initializations tried: restart 0
	// initializes from the thresholded residual, later restarts from
	// random supports drawn via internal/rng. The best final chain wins.
	// Default 1.
	Restarts int
	// Seed drives the restart initializations through internal/rng.
	Seed uint64
}

// fill applies the documented defaults for zero fields.
func (o Options) fill(rows, cols int) Options {
	if o.Factors == 0 {
		o.Factors = 4
	}
	if o.Budget == 0 {
		o.Budget = rows * cols / (4 * o.Factors)
	}
	if o.Iters == 0 {
		o.Iters = 30
	}
	if o.Polish == 0 {
		o.Polish = 2
	}
	if o.Restarts == 0 {
		o.Restarts = 1
	}
	return o
}

// Plan is the analytic shape of a factorization before running it: the
// canonical chain (one rows×cols factor, then k−1 square cols×cols factors)
// with every factor filled to its clamped budget. Its accessors are upper
// bounds on the fitted chain's NNZ, MulVecCost and ResidentBytes (thresholding
// keeps at most the budget), so the tuner can price a FastDict without
// factorizing anything.
type Plan struct {
	Rows, Cols int
	Factors    int
	Budget     int
}

// NewPlan returns the plan for factoring a rows×cols dictionary into k
// factors at the given per-factor budget, with the Factorize defaults
// applied to zero arguments.
func NewPlan(rows, cols, k, budget int) Plan {
	o := Options{Factors: k, Budget: budget}.fill(rows, cols)
	return Plan{Rows: rows, Cols: cols, Factors: o.Factors, Budget: o.Budget}
}

// factorShape returns factor i's dimensions in the canonical chain.
func (p Plan) factorShape(i int) (rows, cols int) {
	if i == 0 {
		return p.Rows, p.Cols
	}
	return p.Cols, p.Cols
}

// factorBudget returns factor i's budget clamped to its capacity.
func (p Plan) factorBudget(i int) int {
	r, c := p.factorShape(i)
	if p.Budget > r*c {
		return r * c
	}
	return p.Budget
}

// NNZ returns Σ nnz(S_i) with every factor at its clamped budget.
func (p Plan) NNZ() int64 {
	var n int64
	for i := 0; i < p.Factors; i++ {
		n += int64(p.factorBudget(i))
	}
	return n
}

// MulVecCost returns one chain apply's cost contract with every factor at
// its clamped budget, as FastDict.MulVecCost.
func (p Plan) MulVecCost() (flops, bytes int64) {
	for i := 0; i < p.Factors; i++ {
		r, c := p.factorShape(i)
		fl, b := sparse.MulVecCost(r, c, int64(p.factorBudget(i)))
		flops, bytes = flops+fl, bytes+b
	}
	return flops, bytes
}

// ResidentBytes returns the chain's footprint with every factor at its
// clamped budget, as FastDict.ResidentBytes.
func (p Plan) ResidentBytes() int64 {
	var n int64
	for i := 0; i < p.Factors; i++ {
		_, c := p.factorShape(i)
		n += sparse.ResidentBytes(c, int64(p.factorBudget(i)))
	}
	return n
}

// InterDim returns the chain-apply scratch length, as FastDict.MaxInterDim.
func (p Plan) InterDim() int {
	if p.Factors <= 1 {
		return 0
	}
	return p.Cols
}

// FactorizeFlops estimates the one-time cost of running Factorize at this
// plan: each PALM iteration on a p×q split costs ~6·p·q² flops (three dense
// p×q·q×q products), the hierarchy runs iters of those on one Rows×Cols
// split and k−2 Cols×Cols splits, and each polish sweep revisits all k
// factors at the wide shape. The tuner amortizes this over the reuse count.
func (p Plan) FactorizeFlops(iters, polish int) int64 {
	o := Options{Factors: p.Factors, Budget: p.Budget, Iters: iters, Polish: polish}.fill(p.Rows, p.Cols)
	l2 := int64(p.Cols) * int64(p.Cols)
	perSplit := 6 * int64(p.Rows) * l2
	square := 6 * int64(p.Cols) * l2
	hier := int64(o.Iters) * (perSplit + int64(p.Factors-2)*square)
	if p.Factors < 2 {
		hier = 0
	}
	return hier + int64(o.Polish)*int64(p.Factors)*perSplit
}

// Factorize approximates the dense dictionary d by a chain of sparse
// factors via hierarchical PALM: the residual is repeatedly split R ≈ S·R′
// with alternating proximal gradient steps (hard thresholding to the nnz
// budget), the final residual is thresholded into the last factor, and a
// few global polish sweeps refine all factors jointly. The best iterate —
// including every initialization — is kept, so at a budget covering the
// dense dictionary the error is exactly zero, and the result is
// deterministic for a given (d, opt).
func Factorize(d *mat.Dense, opt Options) (*FastDict, error) {
	if d.Rows <= 0 || d.Cols <= 0 {
		return nil, fmt.Errorf("faust: cannot factorize %dx%d dictionary", d.Rows, d.Cols)
	}
	opt = opt.fill(d.Rows, d.Cols)
	if opt.Factors < 1 {
		return nil, fmt.Errorf("faust: need at least one factor, got %d", opt.Factors)
	}
	if opt.Budget < 1 {
		return nil, fmt.Errorf("faust: per-factor nnz budget must be positive, got %d", opt.Budget)
	}
	plan := Plan{Rows: d.Rows, Cols: d.Cols, Factors: opt.Factors, Budget: opt.Budget}
	r := rng.New(opt.Seed)
	var best []*mat.Dense
	bestErr := math.Inf(1)
	for restart := 0; restart < opt.Restarts; restart++ {
		factors := factorizeOnce(d, plan, opt, restart, r.Split())
		if e := chainRelError(d, factors); e < bestErr {
			bestErr = e
			best = factors
		}
	}
	fd := &FastDict{Rows: d.Rows, Cols: d.Cols, Factors: make([]*sparse.CSC, len(best))}
	for i, s := range best {
		fd.Factors[i] = denseToCSC(s)
	}
	if err := fd.Check(); err != nil {
		return nil, err
	}
	return fd, nil
}

// factorizeOnce runs one seeded restart: hierarchical splits, then global
// polish, tracking the best snapshot by reconstruction error throughout.
func factorizeOnce(d *mat.Dense, plan Plan, opt Options, restart int, r *rng.RNG) []*mat.Dense {
	factors := make([]*mat.Dense, plan.Factors)
	res := d.Clone()
	for t := 0; t < plan.Factors-1; t++ {
		a, b := twoFactorPALM(res, plan.factorBudget(t), opt.Iters, restart, r)
		factors[t] = a
		res = b
	}
	factors[plan.Factors-1] = hardThreshold(res, plan.factorBudget(plan.Factors-1))
	best := cloneAll(factors)
	bestErr := chainRelError(d, factors)
	for sweep := 0; sweep < opt.Polish; sweep++ {
		polishSweep(d, factors, plan)
		if e := chainRelError(d, factors); e < bestErr {
			bestErr = e
			best = cloneAll(factors)
		}
	}
	return best
}

// twoFactorPALM approximates res (p×q) as A·B with A holding at most
// budget entries and B a dense q×q residual passed to the next split.
// Restart 0 initializes A from the thresholded residual and B from the
// identity; later restarts draw A's support at random through r. Proximal
// gradient steps alternate on A (with hard thresholding) and B, with the
// Frobenius bound ‖·‖_F² ≥ ‖·‖₂² as the safe Lipschitz estimate. The best
// (A, B) pair over all iterates, including the initialization, is returned.
func twoFactorPALM(res *mat.Dense, budget, iters, restart int, r *rng.RNG) (*mat.Dense, *mat.Dense) {
	p, q := res.Rows, res.Cols
	var a *mat.Dense
	if restart == 0 {
		a = hardThreshold(res, budget)
	} else {
		a = randomSupport(p, q, budget, r)
	}
	b := identity(q)
	e := mat.NewDense(p, q)
	ga := mat.NewDense(p, q)
	gb := mat.NewDense(q, q)
	bestA, bestB := a.Clone(), b.Clone()
	bestErr := splitResidual(res, a, b, e)
	for it := 0; it < iters; it++ {
		// A-step: A ← prox_budget(A − (A·B − res)·Bᵀ / (‖B‖_F² + δ)).
		splitResidual(res, a, b, e)
		mat.ParMulTo(ga, e, b.T())
		stepA := 1 / (frobSq(b) + 1e-12)
		axpyDense(-stepA, ga, a)
		a = hardThreshold(a, budget)
		// B-step: B ← B − Aᵀ·(A·B − res) / (‖A‖_F² + δ).
		splitResidual(res, a, b, e)
		mat.ParMulTo(gb, a.T(), e)
		stepB := 1 / (frobSq(a) + 1e-12)
		axpyDense(-stepB, gb, b)
		if err := splitResidual(res, a, b, e); err < bestErr {
			bestErr = err
			bestA, bestB = a.Clone(), b.Clone()
		}
	}
	return bestA, bestB
}

// polishSweep runs one global proximal-gradient pass over every factor,
// holding the others fixed: S_i ← prox(S_i − Leftᵀ·E·Rightᵀ / c) with
// E = Left·S_i·Right − D and c the product of the fixed factors' squared
// Frobenius norms.
func polishSweep(d *mat.Dense, factors []*mat.Dense, plan Plan) {
	for i := range factors {
		left := chainProduct(factors[:i], factors[i].Rows)
		right := chainProduct(factors[i+1:], factors[i].Cols)
		li := mat.Mul(left, factors[i])
		e := mat.Mul(li, right)
		e.Sub(d)
		grad := mat.Mul(mat.Mul(left.T(), e), right.T())
		step := 1 / (frobSq(left)*frobSq(right) + 1e-12)
		axpyDense(-step, grad, factors[i])
		factors[i] = hardThreshold(factors[i], plan.factorBudget(i))
	}
}

// chainProduct multiplies a run of factors, returning the dim×dim identity
// for an empty run.
func chainProduct(factors []*mat.Dense, dim int) *mat.Dense {
	if len(factors) == 0 {
		return identity(dim)
	}
	out := factors[0]
	for _, f := range factors[1:] {
		out = mat.Mul(out, f)
	}
	return out
}

// chainRelError returns ‖D − Π S_i‖_F / ‖D‖_F for dense factors.
func chainRelError(d *mat.Dense, factors []*mat.Dense) float64 {
	rec := chainProduct(factors, d.Rows)
	var num float64
	for i := 0; i < d.Rows; i++ {
		dr, rr := d.Row(i), rec.Row(i)
		for j := range dr {
			e := dr[j] - rr[j]
			num += e * e
		}
	}
	den := frobSq(d)
	if den == 0 {
		if num == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Sqrt(num / den)
}

// splitResidual computes e = a·b − res and returns ‖e‖_F.
func splitResidual(res, a, b, e *mat.Dense) float64 {
	mat.ParMulTo(e, a, b)
	e.Sub(res)
	return math.Sqrt(frobSq(e))
}

// hardThreshold returns a copy of m keeping its budget largest-magnitude
// entries (exact zeros never stored). Ties break on row-major index, so the
// proximal step is fully deterministic.
func hardThreshold(m *mat.Dense, budget int) *mat.Dense {
	type entry struct {
		idx int
		v   float64
	}
	entries := make([]entry, 0, m.Rows*m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			if v != 0 {
				entries = append(entries, entry{i*m.Cols + j, v})
			}
		}
	}
	sort.Slice(entries, func(x, y int) bool {
		ax, ay := math.Abs(entries[x].v), math.Abs(entries[y].v)
		if ax != ay {
			return ax > ay
		}
		return entries[x].idx < entries[y].idx
	})
	if budget < len(entries) {
		entries = entries[:budget]
	}
	out := mat.NewDense(m.Rows, m.Cols)
	for _, e := range entries {
		out.Data[(e.idx/m.Cols)*out.Stride+e.idx%m.Cols] = e.v
	}
	return out
}

// randomSupport draws a budget-sized uniform support with ±1 entries — the
// seeded alternative initialization tried by later restarts.
func randomSupport(rows, cols, budget int, r *rng.RNG) *mat.Dense {
	out := mat.NewDense(rows, cols)
	if budget > rows*cols {
		budget = rows * cols
	}
	for _, idx := range r.Subset(rows*cols, budget) {
		v := 1.0
		if r.Float64() < 0.5 {
			v = -1
		}
		out.Data[(idx/cols)*out.Stride+idx%cols] = v
	}
	return out
}

func identity(n int) *mat.Dense {
	out := mat.NewDense(n, n)
	for i := 0; i < n; i++ {
		out.Set(i, i, 1)
	}
	return out
}

func frobSq(m *mat.Dense) float64 {
	var s float64
	for i := 0; i < m.Rows; i++ {
		for _, v := range m.Row(i) {
			s += v * v
		}
	}
	return s
}

// axpyDense computes y += alpha·x elementwise over equal-shaped matrices.
func axpyDense(alpha float64, x, y *mat.Dense) {
	for i := 0; i < y.Rows; i++ {
		mat.Axpy(alpha, x.Row(i), y.Row(i))
	}
}

func cloneAll(factors []*mat.Dense) []*mat.Dense {
	out := make([]*mat.Dense, len(factors))
	for i, f := range factors {
		out[i] = f.Clone()
	}
	return out
}

// denseToCSC converts one fitted factor to the CSC layout the chain kernels
// run on.
func denseToCSC(m *mat.Dense) *sparse.CSC {
	out := &sparse.CSC{Rows: m.Rows, Cols: m.Cols, ColPtr: make([]int, m.Cols+1)}
	for j := 0; j < m.Cols; j++ {
		for i := 0; i < m.Rows; i++ {
			if v := m.At(i, j); v != 0 {
				out.RowIdx = append(out.RowIdx, i)
				out.Val = append(out.Val, v)
			}
		}
		out.ColPtr[j+1] = len(out.Val)
	}
	return out
}
