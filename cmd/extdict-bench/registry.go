package main

import (
	"fmt"

	"extdict/internal/experiments"
)

// benchConfig mirrors experiments.Config without exposing the internal type
// in main's flag plumbing.
type benchConfig struct {
	Scale   float64
	Seed    uint64
	Workers int
}

func (c benchConfig) cfg() experiments.Config {
	return experiments.Config{Scale: c.Scale, Seed: c.Seed, Workers: c.Workers}
}

// artifact is one experiment's rendered output: the human-readable table
// plus the machine-readable metrics the -json mode emits. Metrics carry the
// numbers the paper reports (α, L_min, error, speedups, preprocessing
// times), so a kernel-layer change can be checked for identical results
// against a committed baseline.
type artifact struct {
	Table   string
	Metrics map[string]float64
}

// runner executes one experiment and renders its artifact.
type runner func(benchConfig) (artifact, error)

// tableOnly wraps a table-rendering experiment that exposes no scalar
// metrics beyond its wall time.
func tableOnly(table string) artifact {
	return artifact{Table: table, Metrics: map[string]float64{}}
}

// registry maps experiment ids to drivers.
func registry(trials, components int) map[string]runner {
	return map[string]runner{
		"fig4": func(c benchConfig) (artifact, error) {
			r, err := experiments.Fig4(c.cfg(), trials)
			if err != nil {
				return artifact{}, err
			}
			m := map[string]float64{
				"l_min":  float64(r.LMin),
				"points": float64(len(r.Points)),
			}
			for _, p := range r.Points {
				m[fmt.Sprintf("alpha_L%d", p.L)] = p.AlphaMean
				m[fmt.Sprintf("rel_error_L%d", p.L)] = p.RelError
			}
			return artifact{Table: r.Table(), Metrics: m}, nil
		},
		"fig5": func(c benchConfig) (artifact, error) {
			r, err := experiments.Fig5(c.cfg())
			if err != nil {
				return artifact{}, err
			}
			return tableOnly(r.Table()), nil
		},
		"fig6": func(c benchConfig) (artifact, error) {
			r, err := experiments.Fig6(c.cfg())
			if err != nil {
				return artifact{}, err
			}
			return tableOnly(r.Table()), nil
		},
		"tab2": func(c benchConfig) (artifact, error) {
			r, err := experiments.Table2(c.cfg())
			if err != nil {
				return artifact{}, err
			}
			m := map[string]float64{}
			for _, row := range r.Rows {
				m["tuning_ms_"+row.Dataset] = row.TuningMS
				m["transf_ms_"+row.Dataset] = row.TransfMS
				m["chosen_l_"+row.Dataset] = float64(row.ChosenL)
				m["alpha_"+row.Dataset] = row.Alpha
				m["resident_bytes_"+row.Dataset] = row.ResidentBytes
			}
			return artifact{Table: r.Table(), Metrics: m}, nil
		},
		"fig7": func(c benchConfig) (artifact, error) {
			r, err := experiments.Fig7(c.cfg())
			if err != nil {
				return artifact{}, err
			}
			m := map[string]float64{}
			for _, ds := range r.Datasets {
				for _, cell := range ds.Cells {
					key := fmt.Sprintf("%s_P%d", ds.Name, cell.Platform.P())
					m["improvement_"+key] = cell.Improvement["AᵀA"]
					m["chosen_l_"+key] = float64(cell.ChosenL)
					m["resident_ata_"+key] = float64(cell.Resident["AᵀA"])
					m["resident_exd_"+key] = float64(cell.Resident["ExtDict"])
				}
			}
			return artifact{Table: r.Table(), Metrics: m}, nil
		},
		"tab3": func(c benchConfig) (artifact, error) {
			r, err := experiments.Table3(c.cfg())
			if err != nil {
				return artifact{}, err
			}
			return tableOnly(r.Table()), nil
		},
		"fig8": func(c benchConfig) (artifact, error) {
			r, err := experiments.Fig8(c.cfg())
			if err != nil {
				return artifact{}, err
			}
			return tableOnly(r.Table()), nil
		},
		"fig9": func(c benchConfig) (artifact, error) {
			r, err := experiments.Fig9(c.cfg())
			if err != nil {
				return artifact{}, err
			}
			return tableOnly(r.Table()), nil
		},
		"fig10": func(c benchConfig) (artifact, error) {
			r, err := experiments.Fig10(c.cfg(), components)
			if err != nil {
				return artifact{}, err
			}
			return tableOnly(r.Table()), nil
		},
		"fig11": func(c benchConfig) (artifact, error) {
			r, err := experiments.Fig11(c.cfg())
			if err != nil {
				return artifact{}, err
			}
			return tableOnly(r.Table()), nil
		},
		"fig12": func(c benchConfig) (artifact, error) {
			r, err := experiments.Fig12(c.cfg(), components)
			if err != nil {
				return artifact{}, err
			}
			return tableOnly(r.Table()), nil
		},
		"serve": runServe,
	}
}
