package experiments

import (
	"fmt"

	"extdict/internal/cluster"
	"extdict/internal/dataset"
	"extdict/internal/dist"
	"extdict/internal/rng"
	"extdict/internal/transform"
	"extdict/internal/tune"
)

// Fig7Cell is one (dataset, platform) comparison of iteration runtimes.
type Fig7Cell struct {
	Platform cluster.Topology
	// IterTime maps method name → modeled seconds for one Gram iteration.
	IterTime map[string]float64
	// IterEnergy maps method name → modeled joules for one iteration
	// (Eq. 3; the paper notes energy follows the same flop+word counts).
	IterEnergy map[string]float64
	// Improvement maps method name → ExtDict's runtime speedup over it.
	Improvement map[string]float64
	// EnergyImprovement maps method name → ExtDict's energy gain over it.
	EnergyImprovement map[string]float64
	// Resident maps method name → the worst rank's peak resident set in
	// bytes for one iteration (cluster.Stats.MaxResident, as the operators
	// charge it).
	Resident map[string]int64
	// ChosenL is the ExD dictionary size tuned for this platform.
	ChosenL int
	// InRegime reports whether this cell is in the paper's operating
	// regime N/P ≫ L (we require N/P ≥ 2·L). Outside it, the serial
	// dictionary term M·L dominates the per-rank cost and the transformed
	// iteration cannot win — exactly what the cost model predicts. The
	// paper's datasets have N/P ≥ 846, always in regime; scaled-down runs
	// may leave it on the largest platforms.
	InRegime bool
}

// Fig7Dataset holds one dataset's platform sweep.
type Fig7Dataset struct {
	Name  string
	Cells []Fig7Cell
}

// Fig7Result reproduces Fig. 7: the runtime improvement of one iterative
// Gram update using ExtDict over the original AᵀA and over the RCSS, oASIS,
// and RankMap transforms, across the four platforms. All transforms run at
// ε = 0.1; ExD alone re-tunes its dictionary size per platform.
type Fig7Result struct {
	Epsilon  float64
	Datasets []Fig7Dataset
}

// Fig7Methods lists the comparison columns in display order.
var Fig7Methods = []string{"AᵀA", "RCSS", "oASIS", "RankMap", "ExtDict"}

// Fig7 runs the full sweep.
func Fig7(cfg Config) (*Fig7Result, error) {
	cfg = cfg.filled()
	const eps = 0.1
	res := &Fig7Result{Epsilon: eps}
	for _, name := range dataset.PresetNames() {
		u, err := loadPreset(name, cfg)
		if err != nil {
			return nil, err
		}
		n := u.A.Cols
		x := make([]float64, n)
		rr := rng.New(cfg.Seed + 11)
		for i := range x {
			x[i] = rr.NormFloat64()
		}
		y := make([]float64, n)

		// Fit the platform-oblivious baselines once (their output is the
		// same regardless of the platform, as the paper stresses).
		baseline := map[string]*transform.Result{}
		for _, m := range []transform.Method{transform.RCSS{}, transform.OASIS{}, transform.RankMap{Workers: cfg.Workers}} {
			fit, err := m.Fit(u.A, eps, rng.New(cfg.Seed+hashName(m.Name())))
			if err != nil {
				return nil, err
			}
			baseline[m.Name()] = fit
		}

		ds := Fig7Dataset{Name: name}
		for _, plat := range cluster.PaperPlatforms() {
			cell := Fig7Cell{
				Platform:          plat.Topology,
				IterTime:          map[string]float64{},
				IterEnergy:        map[string]float64{},
				Improvement:       map[string]float64{},
				EnergyImprovement: map[string]float64{},
				Resident:          map[string]int64{},
			}

			// Original data.
			dense := dist.NewDenseGram(cluster.NewComm(plat), u.A)
			st := dense.Apply(x, y)
			cell.IterTime["AᵀA"] = st.ModeledTime
			cell.IterEnergy["AᵀA"] = st.ModeledEnergy
			cell.Resident["AᵀA"] = st.MaxResident

			// Baseline transforms through the same Algorithm 2 engine.
			for nameB, fit := range baseline {
				op, err := dist.NewTransformedGram(cluster.NewComm(plat), fit.D, fit.C, nameB)
				if err != nil {
					return nil, err
				}
				st := op.Apply(x, y)
				cell.IterTime[nameB] = st.ModeledTime
				cell.IterEnergy[nameB] = st.ModeledEnergy
				cell.Resident[nameB] = st.MaxResident
			}

			// ExtDict: tune L for THIS platform, then measure.
			tr, _, err := tune.TuneAndFit(u.A, plat, tune.Config{
				Epsilon: eps, Workers: cfg.Workers, Seed: cfg.Seed,
			})
			if err != nil {
				return nil, err
			}
			cell.ChosenL = tr.L()
			cell.InRegime = n/plat.Topology.P() >= 2*tr.L()
			op, err := dist.NewExDGram(cluster.NewComm(plat), tr.D, tr.C)
			if err != nil {
				return nil, err
			}
			stE := op.Apply(x, y)
			cell.IterTime["ExtDict"] = stE.ModeledTime
			cell.IterEnergy["ExtDict"] = stE.ModeledEnergy
			cell.Resident["ExtDict"] = stE.MaxResident

			for _, m := range Fig7Methods[:4] {
				cell.Improvement[m] = cell.IterTime[m] / cell.IterTime["ExtDict"]
				cell.EnergyImprovement[m] = cell.IterEnergy[m] / cell.IterEnergy["ExtDict"]
			}
			ds.Cells = append(ds.Cells, cell)
		}
		res.Datasets = append(res.Datasets, ds)
	}
	return res, nil
}

// Table renders one block per dataset: iteration time per method and
// ExtDict's improvement factors.
func (r *Fig7Result) Table() string {
	out := fmt.Sprintf("Fig.7 — Gram-iteration runtime and ExtDict improvement (eps=%.2f)\n", r.Epsilon)
	for _, ds := range r.Datasets {
		header := []string{"platform", "L*", "regime"}
		for _, m := range Fig7Methods {
			header = append(header, m+"(µs)")
		}
		for _, m := range Fig7Methods[:4] {
			header = append(header, "vs "+m)
		}
		header = append(header, "energy vs AᵀA")
		tw := &tableWriter{header: header}
		for _, c := range ds.Cells {
			row := []string{c.Platform.String(), fmt.Sprintf("%d", c.ChosenL), fmt.Sprintf("%v", c.InRegime)}
			for _, m := range Fig7Methods {
				row = append(row, fmt.Sprintf("%.1f", c.IterTime[m]*1e6))
			}
			for _, m := range Fig7Methods[:4] {
				row = append(row, fmt.Sprintf("%.2fx", c.Improvement[m]))
			}
			row = append(row, fmt.Sprintf("%.2fx", c.EnergyImprovement["AᵀA"]))
			tw.addRow(row...)
		}
		out += fmt.Sprintf("\n%s\n%s", ds.Name, tw.String())
	}
	return out
}
