package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"extdict/internal/cluster"
	"extdict/internal/dataset"
	"extdict/internal/dist"
	"extdict/internal/exd"
	"extdict/internal/imgproc"
	"extdict/internal/mat"
	"extdict/internal/perf"
	"extdict/internal/rng"
	"extdict/internal/solver"
	"extdict/internal/tune"
)

const (
	// inputSNR is the noise level of every noisy patch, as in the paper's
	// denoising application (§VIII-A).
	inputSNR = 20
	// minPatches is how many patches denoise_lf always solves, so that
	// quality_db covers the same patches in every run of a seed.
	minPatches = 24
	// psnrGainFloor is how much the first minPatches denoised patches must
	// improve on their noisy inputs, in dB on average, to pass the output
	// check. Single patches may lose a little; the mean gain is about 4 dB.
	psnrGainFloor = 2.0
	// smallGainFloor replaces psnrGainFloor for the reduced inputs tests
	// use: a model fitted to 256 patches gains only 1 to 1.5 dB.
	smallGainFloor = 0.5
)

// lfModel is one set-up round of the light-field workloads: training
// patches, held-out clean patches, and the ExD model fitted to the
// training patches.
type lfModel struct {
	train *mat.Dense // column-normalized training patches
	clean [][]float64
	tr    *exd.Transform
}

// lfSetups generates and fits `setups` light-field models and records the
// median set-up time as setup_s.
func lfSetups(cfg runConfig, rep *report) ([]*lfModel, error) {
	nTrain, nHeld := 2048, 64
	if cfg.small {
		nTrain, nHeld = 256, 8
	}
	models := make([]*lfModel, setups)
	times := make([]float64, setups)
	for k := range models {
		start := time.Now()
		p := dataset.LightFieldParams{Grid: 5, Patch: 8, NumSources: 16, SceneSize: 192, NumPatches: nTrain + nHeld}
		id := rep.tr.begin("dataset", "GenerateLightField", -1, 0)
		lf, err := dataset.GenerateLightField(p, rng.New(cfg.subSeed(uint64(k))))
		rep.tr.end(id)
		if err != nil {
			return nil, err
		}
		m := &lfModel{train: lf.A.ColRange(0, nTrain).Clone()}
		m.train.NormalizeColumns()
		for j := 0; j < nHeld; j++ {
			m.clean = append(m.clean, lf.A.Col(nTrain+j, nil))
		}
		id = rep.tr.begin("tune", "TuneAndFit", -1, 0)
		m.tr, _, err = tune.TuneAndFit(m.train, platform, tune.Config{
			Epsilon: fitEpsilon, Workers: workers, Seed: cfg.subSeed(uint64(k)),
		})
		rep.tr.end(id)
		times[k] = time.Since(start).Seconds()
		if err != nil {
			return nil, err
		}
		rep.check(checkFit(m.train, m.tr, nil))
		models[k] = m
	}
	rep.e2e["setup_s"] = median(times)
	var pred, ls, alphas []float64
	for _, m := range models {
		pred = append(pred, perf.PredictTransformed(m.train.Rows, m.train.Cols, m.tr.L(), m.tr.C.NNZ(), platform).Time*1e6)
		ls = append(ls, float64(m.tr.L()))
		alphas = append(alphas, m.tr.Alpha())
	}
	rep.layer["exd.pred_iter_us"] = median(pred)
	rep.layer["exd.l"] = median(ls)
	rep.layer["exd.alpha"] = median(alphas)
	rep.layer["dataset.gen_s"] = median(rep.tr.durations("dataset", "GenerateLightField"))
	return models, nil
}

// noisyPatch returns the i-th noisy input drawn from a model's held-out
// patches, and the clean patch it came from.
func noisyPatch(cfg runConfig, m *lfModel, i int) (noisy, clean []float64) {
	clean = m.clean[i%len(m.clean)]
	return dataset.AddNoise(clean, inputSNR, rng.New(cfg.subSeed(uint64(1000+i)))), clean
}

// patchResult is what a run keeps of one denoised patch: scalars and a
// digest, so that the live heap does not grow with the patches solved.
type patchResult struct {
	model, index int
	// digest hashes the bits of the solution.
	digest uint64
	// psnr and noisy are the PSNR of the denoised and the noisy patch;
	// objective is the final LASSO objective and y2 = ‖y‖², its value at
	// x = 0.
	psnr, noisy, objective, y2 float64
	iters                      int
	stats                      cluster.Stats
}

func newPatchResult(model, index int, res solver.LassoResult, clean, y, recon []float64) patchResult {
	return patchResult{
		model: model, index: index, digest: digest(res.X),
		psnr: imgproc.PSNR(clean, recon, 0), noisy: imgproc.PSNR(clean, y, 0),
		objective: res.Objective, y2: mat.Dot(y, y), iters: res.Iters, stats: res.Stats,
	}
}

// runDenoise is the paper's light-field denoising application: each noisy
// held-out patch is solved by LASSO over the ExD Gram operator of a model
// fitted in set-up. Patches cycle over the set-up models; op_ms_p50 is the
// median time to denoise one patch.
func runDenoise(cfg runConfig, rep *report) error {
	models, err := lfSetups(cfg, rep)
	if err != nil {
		return err
	}
	ops := make([]*dist.ExDGram, len(models))
	for k, m := range models {
		if ops[k], err = dist.NewExDGram(cluster.NewComm(platform), m.tr.D, m.tr.C); err != nil {
			return err
		}
	}

	var results []patchResult
	var patchTimes []float64
	ph := startPhase()
	deadline := cfg.deadline()
	for i := 0; i < minPatches || time.Now().Before(deadline); i++ {
		k := i % len(models)
		m := models[k]
		y, clean := noisyPatch(cfg, m, i/len(models))
		start := time.Now()
		res, recon := denoisePatch(rep.tr, m.train, ops[k], y)
		patchTimes = append(patchTimes, time.Since(start).Seconds())
		results = append(results, newPatchResult(k, i/len(models), res, clean, y, recon))
	}
	ph.end(rep)

	for _, r := range results {
		rep.check(checkPatch(r))
	}
	floor := psnrGainFloor
	if cfg.small {
		floor = smallGainFloor
	}
	rep.check(checkGain(results[:minPatches], floor))
	// Re-solve a sample of patches on fresh operators: the solutions must
	// repeat bit for bit.
	step := max(1, len(results)/4)
	for i := 0; i < len(results); i += step {
		r := results[i]
		m := models[r.model]
		op, err := dist.NewExDGram(cluster.NewComm(platform), m.tr.D, m.tr.C)
		if err != nil {
			return err
		}
		y, _ := noisyPatch(cfg, m, r.index)
		again, _ := denoisePatch(newTracer(false), m.train, op, y)
		rep.check(checkDigest(digest(again.X), r))
	}

	var psnrs []float64
	for _, r := range results[:minPatches] {
		psnrs = append(psnrs, r.psnr)
	}
	rep.e2e["op_ms_p50"] = median(patchTimes) * 1e3
	rep.layer["quality_db"] = sum(psnrs) / float64(len(psnrs))
	denoiseLayers(rep, results, models[0])
	return nil
}

// denoisePatch solves one patch: Aᵀy, then LASSO over the Gram operator,
// then the reconstruction A·x in patch space.
func denoisePatch(t *tracer, train *mat.Dense, op dist.Operator, y []float64) (solver.LassoResult, []float64) {
	id := t.begin("solver", "patch", -1, 0)
	a := t.begin("solver", "aty", id, 0)
	aty := train.MulVecT(y, nil)
	t.end(a)
	s := t.begin("solver", "Lasso", id, 0)
	if t.on {
		op = &timedOp{Operator: op, t: t, parent: s}
	}
	res := solver.Lasso(op, aty, mat.Dot(y, y), solver.LassoOpts{Lambda: 0.05 * mat.NormInf(aty)})
	t.end(s)
	r := t.begin("mat", "MulVec", id, 0)
	recon := train.MulVec(res.X, nil)
	t.end(r)
	t.end(id)
	return res, recon
}

// timedOp records a span around every Gram product.
type timedOp struct {
	dist.Operator
	t      *tracer
	parent int
}

// Apply implements dist.Operator.
func (o *timedOp) Apply(x, y []float64) cluster.Stats {
	id := o.t.begin("dist", "Apply", o.parent, 0)
	st := o.Operator.Apply(x, y)
	o.t.end(id)
	return st
}

// checkPatch verifies a solve ended with a finite reconstruction and an
// objective below its value at x = 0.
func checkPatch(r patchResult) error {
	if math.IsNaN(r.psnr) || math.IsInf(r.psnr, 0) || !(r.objective < r.y2) {
		return fmt.Errorf("denoise: patch %d of model %d: PSNR %.3f dB, objective %.6g against %.6g at zero",
			r.index, r.model, r.psnr, r.objective, r.y2)
	}
	return nil
}

// checkGain verifies the patches' mean PSNR gain over their noisy inputs
// reaches floor dB.
func checkGain(rs []patchResult, floor float64) error {
	var gain float64
	for _, r := range rs {
		gain += r.psnr - r.noisy
	}
	if gain /= float64(len(rs)); !(gain >= floor) {
		return fmt.Errorf("denoise: mean PSNR gain %.3f dB over %d patches is below %v dB", gain, len(rs), floor)
	}
	return nil
}

// checkDigest verifies a re-solved patch's solution digest equals the
// measured run's.
func checkDigest(again uint64, r patchResult) error {
	if r.digest != again {
		return fmt.Errorf("denoise: patch %d of model %d: solution digest %016x, re-solve %016x", r.index, r.model, r.digest, again)
	}
	return nil
}

// digest hashes the bits of a vector.
func digest(x []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range x {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// denoiseLayers derives denoise_lf's per-layer metrics from the spans and
// the operators' exact counters.
func denoiseLayers(rep *report, results []patchResult, m *lfModel) {
	t := rep.tr
	applies := t.durations("dist", "Apply")
	lasso := t.durations("solver", "Lasso")
	rep.layer["dist.apply_us_p50"] = quantile(applies, 0.5) * 1e6
	rep.layer["dist.apply_us_p90"] = quantile(applies, 0.9) * 1e6
	if l := sum(lasso); l > 0 {
		rep.layer["dist.apply_share"] = sum(applies) / l
	}
	rep.layer["solver.aty_us"] = median(t.durations("solver", "aty")) * 1e6

	var iters, words, flops, bytes, phases, modeled []float64
	for _, r := range results {
		n := float64(r.iters)
		st := r.stats
		iters = append(iters, n)
		words = append(words, float64(st.PathWords)/n)
		flops = append(flops, float64(st.MaxFlops)/n)
		bytes = append(bytes, float64(st.MaxBytes)/n)
		phases = append(phases, float64(st.Phases)/n)
		modeled = append(modeled, st.ModeledTime/n*1e6)
	}
	rep.layer["solver.iters_per_patch"] = median(iters)
	rep.layer["cluster.path_words_per_apply"] = median(words)
	rep.layer["cluster.max_flops_per_apply"] = median(flops)
	rep.layer["cluster.max_bytes_per_apply"] = median(bytes)
	rep.layer["cluster.phases_per_apply"] = median(phases)
	rep.layer["cluster.modeled_us_per_apply"] = median(modeled)
	if a := quantile(applies, 0.5); a > 0 {
		rep.layer["cluster.model_over_wall"] = median(modeled) / (a * 1e6)
	}
	if t.on {
		rep.layer["sparse.c_mulvec_gbps"] = cMulVecGBps(t, m)
	}
}

// cMulVecGBps times C·x at the model's coefficient shape and returns the
// achieved bandwidth from the kernel's byte contract,
// 16·nnz + 8·(len(x) + len(y) + cols + 1) per call.
func cMulVecGBps(t *tracer, m *lfModel) float64 {
	const calls = 500
	c := m.tr.C
	x := make([]float64, c.Cols)
	y := make([]float64, c.Rows)
	for i := range x {
		x[i] = 1 / float64(i+1)
	}
	id := t.begin("sparse", "MulVec", -1, 0)
	start := time.Now()
	for i := 0; i < calls; i++ {
		c.MulVec(x, y)
	}
	sec := time.Since(start).Seconds()
	t.end(id)
	bytes := float64(16*c.NNZ()+8*(len(x)+len(y)+c.Cols+1)) * calls
	return bytes / sec / 1e9
}

// medianModel returns the set-up model whose dictionary size is the median.
func medianModel(models []*lfModel) *lfModel {
	s := append([]*lfModel(nil), models...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].tr.L() < s[j].tr.L() })
	return s[len(s)/2]
}
