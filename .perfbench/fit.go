package main

import (
	"fmt"
	"math"
	"time"

	"extdict/internal/dataset"
	"extdict/internal/exd"
	"extdict/internal/mat"
	"extdict/internal/omp"
	"extdict/internal/perf"
	"extdict/internal/rng"
	"extdict/internal/sparse"
	"extdict/internal/tune"
)

const (
	// fitEpsilon is the transformation error tolerance of every fit.
	fitEpsilon = 0.1
	// fitDatasets is how many datasets fit_union generates and fits per run.
	fitDatasets = 4
)

// runFitUnion is ExtDict preprocessing (Table II): tune.TuneAndFit on the
// cancercell preset, the densest geometry. The measured phase fits every
// dataset in turn, in whole cycles, until the time is up. op_ms_p50 is the
// median fit time.
func runFitUnion(cfg runConfig, rep *report) error {
	scale := 1.0
	if cfg.small {
		scale = 0.05
	}
	params, err := dataset.Preset("cancercell", scale)
	if err != nil {
		return err
	}
	// Every set-up round generates one dataset; the measured phase fits
	// them all in turn, so a run's figures average over several inputs.
	data := make([]*mat.Dense, fitDatasets)
	setupTimes := make([]float64, fitDatasets)
	for k := range data {
		id := rep.tr.begin("dataset", "GenerateUnion", -1, 0)
		start := time.Now()
		u, err := dataset.GenerateUnion(params, rng.New(cfg.subSeed(uint64(k))))
		setupTimes[k] = time.Since(start).Seconds()
		rep.tr.end(id)
		if err != nil {
			return err
		}
		data[k] = u.A
	}
	// Warm the runtime (worker pool, heap size) with one fit of a column
	// subset, so the first measured fit is not the only cold one.
	warm := data[0].ColRange(0, data[0].Cols/8).Clone()
	if _, _, err := tune.TuneAndFit(warm, platform, tune.Config{Epsilon: fitEpsilon, Workers: workers, Seed: cfg.seed}); err != nil {
		return fmt.Errorf("warm-up fit: %w", err)
	}

	first := make([]*exd.Transform, len(data))
	var fitTimes, rounds, probeCols []float64
	ph := startPhase()
	deadline := cfg.deadline()
	for cycle := 0; cycle == 0 || time.Now().Before(deadline); cycle++ {
		for k, a := range data {
			tc := tune.Config{Epsilon: fitEpsilon, Workers: workers, Seed: cfg.subSeed(uint64(k))}
			id := rep.tr.begin("tune", "TuneAndFit", -1, 0)
			start := time.Now()
			tr, res, err := tune.TuneAndFit(a, platform, tc)
			fitTimes = append(fitTimes, time.Since(start).Seconds())
			rep.tr.end(id)
			if err != nil {
				rep.attempted++
				rep.fail("dataset %d: %v", k, err)
				continue
			}
			rep.check(checkFit(a, tr, first[k]))
			if first[k] == nil {
				first[k] = tr
			}
			rounds = append(rounds, float64(res.Rounds))
			probeCols = append(probeCols, float64(sumInts(res.SubsetSizes)))
			if cfg.trace {
				attributeFit(rep, a, tr, tc)
			}
		}
	}
	ph.end(rep)

	var quality, pred, ls, alphas, iters []float64
	for k, tr := range first {
		if tr == nil {
			continue
		}
		a := data[k]
		quality = append(quality, -20*math.Log10(tr.RelError(a)))
		pred = append(pred, perf.PredictTransformed(a.Rows, a.Cols, tr.L(), tr.C.NNZ(), platform).Time*1e6)
		ls = append(ls, float64(tr.L()))
		alphas = append(alphas, tr.Alpha())
		iters = append(iters, float64(tr.OMPIters))
	}
	rep.e2e["setup_s"] = median(setupTimes)
	rep.e2e["op_ms_p50"] = median(fitTimes) * 1e3
	rep.layer["quality_db"] = median(quality)
	rep.layer["exd.pred_iter_us"] = median(pred)

	t := rep.tr
	rep.layer["dataset.gen_s"] = median(t.durations("dataset", "GenerateUnion"))
	rep.layer["tune.s"] = median(t.durations("tune", "Tune"))
	rep.layer["tune.rounds"] = median(rounds)
	rep.layer["tune.probe_cols"] = median(probeCols)
	rep.layer["exd.fit_s"] = median(t.durations("exd", "Fit"))
	rep.layer["exd.l"] = median(ls)
	rep.layer["exd.alpha"] = median(alphas)
	gram, enc := t.durations("omp", "NewBatchCoder"), t.durations("omp", "EncodeColumns")
	rep.layer["omp.gram_s"] = median(gram)
	rep.layer["omp.encode_s"] = median(enc)
	rep.layer["omp.iters"] = median(iters)
	if e := median(enc); e > 0 {
		rep.layer["omp.iters_per_s"] = median(iters) / e
	}
	if d := first[0]; d != nil {
		rep.layer["mat.mulvect_gbps"] = mulVecTGBps(t, d.D)
	}
	return nil
}

// checkFit verifies a fit meets the error tolerance on the full data and,
// when an earlier fit of the same data exists, reproduces it bit for bit.
func checkFit(a *mat.Dense, tr, earlier *exd.Transform) error {
	if e := tr.RelError(a); !(e <= fitEpsilon*(1+1e-9)) {
		return fmt.Errorf("fit: relative error %.6g exceeds epsilon %v", e, fitEpsilon)
	}
	if earlier != nil && !sameCSC(tr.C, earlier.C) {
		return fmt.Errorf("fit: repeat fit of the same data gave different coefficients")
	}
	return nil
}

// attributeFit splits one TuneAndFit into its layers by re-running each
// step under its own span, and checks that the re-run reproduces the fit.
func attributeFit(rep *report, a *mat.Dense, tr *exd.Transform, tc tune.Config) {
	t := rep.tr
	id := t.begin("tune", "Tune", -1, 0)
	_, err := tune.Tune(a, platform, tc)
	t.end(id)
	rep.check(err)

	id = t.begin("exd", "Fit", -1, 0)
	again, err := exd.Fit(a, tr.Params)
	t.end(id)
	if err == nil && !sameCSC(again.C, tr.C) {
		err = fmt.Errorf("fit: exd.Fit re-run differs from TuneAndFit's transform")
	}
	rep.check(err)

	id = t.begin("omp", "NewBatchCoder", -1, 0)
	bc := omp.NewBatchCoder(tr.D)
	t.end(id)
	id = t.begin("omp", "EncodeColumns", -1, 0)
	c, iters := bc.EncodeColumns(a, tr.Params.Epsilon, tr.Params.MaxAtoms, workers)
	t.end(id)
	err = nil
	if !sameCSC(c, tr.C) || iters != tr.OMPIters {
		err = fmt.Errorf("fit: EncodeColumns re-run differs from the fitted coefficients")
	}
	rep.check(err)
}

// mulVecTGBps times Dᵀ·x at D's shape and returns the achieved bandwidth
// from the kernel's byte contract, 8·(rows·cols + rows + cols) per call.
func mulVecTGBps(t *tracer, d *mat.Dense) float64 {
	const calls = 2000
	x := make([]float64, d.Rows)
	y := make([]float64, d.Cols)
	for i := range x {
		x[i] = 1 / float64(i+1)
	}
	id := t.begin("mat", "MulVecT", -1, 0)
	start := time.Now()
	for i := 0; i < calls; i++ {
		d.MulVecT(x, y)
	}
	sec := time.Since(start).Seconds()
	t.end(id)
	bytes := 8 * float64(d.Rows*d.Cols+d.Rows+d.Cols) * calls
	return bytes / sec / 1e9
}

// sameCSC reports whether two sparse matrices are identical bit for bit.
func sameCSC(a, b *sparse.CSC) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || len(a.Val) != len(b.Val) {
		return false
	}
	for j := range a.ColPtr {
		if a.ColPtr[j] != b.ColPtr[j] {
			return false
		}
	}
	for i := range a.Val {
		if a.RowIdx[i] != b.RowIdx[i] || math.Float64bits(a.Val[i]) != math.Float64bits(b.Val[i]) {
			return false
		}
	}
	return true
}

func sumInts(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}
