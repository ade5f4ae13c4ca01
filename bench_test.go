package extdict_test

// The repository-level benchmarks regenerate every table and figure of the
// paper's evaluation (§VIII) through the internal/experiments drivers. Each
// benchmark runs its experiment once per iteration and reports, alongside
// ns/op, experiment-specific metrics extracted from the result (improvement
// factors, model error, memory ratios) so `go test -bench=.` prints the
// numbers EXPERIMENTS.md records.
//
// Scale: benches default to 0.5× the preset sizes so the full suite
// completes in minutes on a laptop while every trend stays in the paper's
// operating regime on the in-regime platforms. Set the scale to 1 via
// cmd/extdict-bench for full-size runs and printed tables.

import (
	"testing"

	"extdict/internal/experiments"
)

func benchCfg() experiments.Config {
	return experiments.Config{Scale: 0.5, Seed: 1, Workers: 0}
}

// BenchmarkFig4AlphaCurve regenerates Fig. 4: α(L) and transformation error
// vs dictionary size with variance over random dictionary draws.
func BenchmarkFig4AlphaCurve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4(benchCfg(), 5)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			first, last := r.Points[0], r.Points[len(r.Points)-1]
			b.ReportMetric(first.AlphaMean, "alpha@Lmin")
			b.ReportMetric(last.AlphaMean, "alpha@N")
			b.ReportMetric(float64(r.LMin), "Lmin")
		}
	}
}

// BenchmarkFig5Tunability regenerates Fig. 5: α(L) per dataset and ε.
func BenchmarkFig5Tunability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			// Tunability span on the first dataset: densest ε curve start
			// over sparsest curve end.
			ds := r.Datasets[0]
			tight := ds.Series[0].Alpha[0]
			loose := ds.Series[len(ds.Series)-1].Alpha[len(ds.Ls)-1]
			b.ReportMetric(tight/loose, "alpha-span")
		}
	}
}

// BenchmarkFig6SubsetEstimation regenerates Fig. 6: α(L) from nested
// subsets; the reported metric is the worst small-subset discrepancy.
func BenchmarkFig6SubsetEstimation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			worst := 0.0
			for di := range r.Datasets {
				if d := r.FinalDiscrepancy(di); d > worst {
					worst = d
				}
			}
			b.ReportMetric(100*worst, "worst-discrepancy-%")
		}
	}
}

// BenchmarkTable2Preprocessing regenerates Table II: tuning + transformation
// overhead per dataset.
func BenchmarkTable2Preprocessing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table2(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range r.Rows {
				b.ReportMetric(row.OverallMS, row.Dataset+"-ms")
			}
		}
	}
}

// BenchmarkFig7RuntimeImprovement regenerates Fig. 7: Gram-iteration runtime
// of ExtDict vs AᵀA, RCSS, oASIS, and RankMap across platforms.
func BenchmarkFig7RuntimeImprovement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			best := map[string]float64{}
			for _, ds := range r.Datasets {
				for _, c := range ds.Cells {
					for m, v := range c.Improvement {
						if v > best[m] {
							best[m] = v
						}
					}
				}
			}
			for m, v := range best {
				b.ReportMetric(v, "best-vs-"+m)
			}
		}
	}
}

// BenchmarkTable3Memory regenerates Table III: storage per transform.
func BenchmarkTable3Memory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table3(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			row := r.Rows[0]
			bestExt := row.ExtDict[64]
			b.ReportMetric(float64(row.Original)/float64(bestExt), "mem-vs-original")
			b.ReportMetric(float64(row.Baselines["RCSS"])/float64(bestExt), "mem-vs-RCSS")
			b.ReportMetric(float64(row.Baselines["RankMap"])/float64(bestExt), "mem-vs-RankMap")
		}
	}
}

// BenchmarkFig8ModelVerification regenerates Fig. 8: predicted vs measured
// iteration cost across L and platforms.
func BenchmarkFig8ModelVerification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(100*r.MaxRelError(), "worst-model-err-%")
		}
	}
}

// BenchmarkFig9LassoVsSGD regenerates Fig. 9: denoising and super-resolution
// solve time, ExtDict gradient descent vs SGD.
func BenchmarkFig9LassoVsSGD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, app := range r.Apps {
				best := 0.0
				for _, c := range app.Cells {
					if c.Improvement > best {
						best = c.Improvement
					}
				}
				b.ReportMetric(best, app.Name+"-best-x")
			}
		}
	}
}

// BenchmarkFig10PowerMethod regenerates Fig. 10: Power-method runtime on raw
// vs transformed data.
func BenchmarkFig10PowerMethod(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10(benchCfg(), 10)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, ds := range r.Datasets {
				best := 0.0
				for _, c := range ds.Cells {
					if c.Improvement > best {
						best = c.Improvement
					}
				}
				b.ReportMetric(best, ds.Name+"-best-x")
			}
		}
	}
}

// BenchmarkFig11ErrorTradeoff regenerates Fig. 11: reconstruction error and
// PSNR vs transformation error.
func BenchmarkFig11ErrorTradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, app := range r.Apps {
				b.ReportMetric(app.Points[0].PSNRdB, app.Name+"-psnr-dB")
			}
		}
	}
}

// BenchmarkFig12PCAError regenerates Fig. 12: PCA eigenvalue learning error
// vs transformation error.
func BenchmarkFig12PCAError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig12(benchCfg(), 10)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			worst := 0.0
			for _, ds := range r.Datasets {
				for _, p := range ds.Points {
					if p.LearningError > worst {
						worst = p.LearningError
					}
				}
			}
			b.ReportMetric(100*worst, "worst-eig-err-%")
		}
	}
}
