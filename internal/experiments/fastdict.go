package experiments

import (
	"fmt"
	"math"

	"extdict/internal/cluster"
	"extdict/internal/dataset"
	"extdict/internal/dist"
	"extdict/internal/faust"
	"extdict/internal/rng"
	"extdict/internal/tune"
)

// FastDictCell is one (dataset, platform) comparison of the three operator
// families on a single Gram iteration: the untransformed AᵀA, the ExD
// operator with its dense dictionary, and the FastDict operator applying
// the same dictionary as a sparse-factor chain.
type FastDictCell struct {
	Platform cluster.Topology
	// IterTime maps family name → modeled seconds for one Gram iteration
	// (cluster.Stats.ModeledTime, the runtime side of the Eq. 2 critical
	// path the lint contracts prove).
	IterTime map[string]float64
	// Resident maps family name → the worst rank's peak resident set in
	// bytes for one iteration.
	Resident map[string]int64
	// Improvement is FastDict's runtime speedup over the untransformed
	// iteration — the fig7-comparable headline (fig7 reports the same
	// ratio for ExtDict).
	Improvement float64
	// VsExD is FastDict's runtime speedup over the ExD iteration: the
	// chain's win over the dense dictionary it factors.
	VsExD float64
	// ChosenL is the ExD dictionary size tuned for this platform; both
	// transformed operators run at it.
	ChosenL int
	// BreakEvenReuse is the modeled iteration count after which the
	// one-time PALM factorization has amortized against the per-iteration
	// saving (0 when the chain does not save — fastdict then never wins).
	BreakEvenReuse int
}

// FastDictDataset holds one dataset's platform sweep plus the
// platform-independent factorization quality.
type FastDictDataset struct {
	Name string
	// RelError is ‖D − S₁·…·S_k‖_F/‖D‖_F for the sweep's worst cell — the
	// reconstruction error the chain trades for its speedup.
	RelError float64
	// NNZRatio is nnz(chain)/(M·L) for that factorization: the structural
	// compression driving both the flop and the byte saving.
	NNZRatio float64
	Cells    []FastDictCell
}

// FastDictResult extends the Fig. 7 methodology to the FastDict operator
// family: per (dataset, platform) cell, one simulated Gram iteration
// through AᵀA, ExD, and the factor chain, all at the platform-tuned L.
// Where Fig. 7 reports ExtDict's improvement over the untransformed
// iteration, this reports FastDict's — the chain replaces ExD's dense
// M×L dictionary hop with Σ nnz(Sᵢ) sparse entries, so its improvement
// must dominate Fig. 7's on every cell where the dictionary term matters.
type FastDictResult struct {
	Epsilon  float64
	Datasets []FastDictDataset
}

// FastDictFamilies lists the comparison columns in display order.
var FastDictFamilies = []string{"AᵀA", "ExtDict", "FastDict"}

// FastDict runs the sweep.
func FastDict(cfg Config) (*FastDictResult, error) {
	cfg = cfg.filled()
	const eps = 0.1
	res := &FastDictResult{Epsilon: eps}
	for _, name := range dataset.PresetNames() {
		u, err := loadPreset(name, cfg)
		if err != nil {
			return nil, err
		}
		n := u.A.Cols
		x := make([]float64, n)
		rr := rng.New(cfg.Seed + 17)
		for i := range x {
			x[i] = rr.NormFloat64()
		}
		y := make([]float64, n)

		ds := FastDictDataset{Name: name}
		for _, plat := range cluster.PaperPlatforms() {
			cell := FastDictCell{
				Platform: plat.Topology,
				IterTime: map[string]float64{},
				Resident: map[string]int64{},
			}

			run := func(family string, op dist.Operator) {
				st := op.Apply(x, y)
				cell.IterTime[family] = st.ModeledTime
				cell.Resident[family] = st.MaxResident
			}
			run("AᵀA", dist.NewDenseGram(cluster.NewComm(plat), u.A))

			tr, _, err := tune.TuneAndFit(u.A, plat, tune.Config{
				Epsilon: eps, Workers: cfg.Workers, Seed: cfg.Seed,
			})
			if err != nil {
				return nil, err
			}
			cell.ChosenL = tr.L()
			exdOp, err := dist.NewExDGram(cluster.NewComm(plat), tr.D, tr.C)
			if err != nil {
				return nil, err
			}
			run("ExtDict", exdOp)

			// Factorize THIS platform's tuned dictionary into the default
			// chain (k=4 at 4× compression) and run the same iteration
			// through it.
			fd, err := faust.Factorize(tr.D, faust.Options{Seed: cfg.Seed})
			if err != nil {
				return nil, err
			}
			fastOp, err := dist.NewFastGram(cluster.NewComm(plat), fd, tr.C)
			if err != nil {
				return nil, err
			}
			run("FastDict", fastOp)

			cell.Improvement = cell.IterTime["AᵀA"] / cell.IterTime["FastDict"]
			cell.VsExD = cell.IterTime["ExtDict"] / cell.IterTime["FastDict"]

			// The amortization edge the tuner decides on: factorization
			// flops at platform flop time against the per-iteration saving.
			plan := faust.NewPlan(tr.D.Rows, tr.D.Cols, 0, 0)
			if saving := cell.IterTime["ExtDict"] - cell.IterTime["FastDict"]; saving > 0 {
				prep := float64(plan.FactorizeFlops(0, 0)) * plat.Cost.FlopTime
				cell.BreakEvenReuse = int(prep/saving) + 1
			}

			// Record the sweep's worst factorization quality (the hardest
			// tuned dictionary for the fixed 4× budget).
			if rel := fd.RelError(tr.D); rel > ds.RelError {
				ds.RelError = rel
				ds.NNZRatio = float64(fd.NNZ()) / float64(tr.D.Rows*tr.D.Cols)
			}
			ds.Cells = append(ds.Cells, cell)
		}
		res.Datasets = append(res.Datasets, ds)
	}
	return res, nil
}

// Table renders one block per dataset.
func (r *FastDictResult) Table() string {
	out := fmt.Sprintf("FastDict — Gram-iteration runtime by operator family (eps=%.2f)\n", r.Epsilon)
	for _, ds := range r.Datasets {
		header := []string{"platform", "L*"}
		for _, m := range FastDictFamilies {
			header = append(header, m+"(µs)")
		}
		header = append(header, "vs AᵀA", "vs ExD", "break-even")
		tw := &tableWriter{header: header}
		for _, c := range ds.Cells {
			row := []string{c.Platform.String(), fmt.Sprintf("%d", c.ChosenL)}
			for _, m := range FastDictFamilies {
				row = append(row, fmt.Sprintf("%.1f", c.IterTime[m]*1e6))
			}
			be := "never"
			if c.BreakEvenReuse > 0 {
				be = fmt.Sprintf("%d iters", c.BreakEvenReuse)
			}
			row = append(row, fmt.Sprintf("%.2fx", c.Improvement), fmt.Sprintf("%.2fx", c.VsExD), be)
			tw.addRow(row...)
		}
		out += fmt.Sprintf("\n%s  (chain rel-error %.3f, nnz ratio %.3f = %.1fx compression)\n%s",
			ds.Name, ds.RelError, ds.NNZRatio, 1/math.Max(ds.NNZRatio, 1e-9), tw.String())
	}
	return out
}
