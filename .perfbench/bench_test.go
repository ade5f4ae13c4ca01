package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"extdict/internal/cluster"
	"extdict/internal/dataset"
	"extdict/internal/dist"
	"extdict/internal/mat"
	"extdict/internal/omp"
	"extdict/internal/rng"
	"extdict/internal/serve"
	"extdict/internal/sparse"
	"extdict/internal/tune"
)

// TestBenchmarkJSONMatchesProgram pins the metric and workload lists in
// BENCHMARK.json to the ones the program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames(); !equalStrings(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", got, want)
	}
	for _, set := range []struct {
		name  string
		spec  []struct{ Name, Unit string }
		units map[string]string
	}{{"end_to_end", spec.EndToEnd, e2eUnits}, {"per_layer", spec.PerLayer, layerUnits}} {
		if len(set.spec) != len(set.units) {
			t.Errorf("%s lists %d metrics, program reports %d", set.name, len(set.spec), len(set.units))
		}
		for _, m := range set.spec {
			if u, ok := set.units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s metric %s (%s): program unit %q", set.name, m.Name, m.Unit, u)
			}
		}
	}
}

// TestWorkloadsOnTwoSeeds runs every workload at a reduced size on two
// seeds: each must pass every check and report every metric.
func TestWorkloadsOnTwoSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames() {
		for _, seed := range []uint64{1, 2} {
			for _, trace := range []bool{false, true} {
				rep := newReport(trace)
				if err := workloads[name](runConfig{seed: seed, seconds: 0.3, trace: trace, small: true}, rep); err != nil {
					t.Fatalf("%s seed %d: %v", name, seed, err)
				}
				res, err := rep.finish(trace)
				if err != nil {
					t.Fatalf("%s seed %d: %v", name, seed, err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Errorf("%s seed %d trace %v: %d of %d checks failed: %v", name, seed, trace, res.Failed, res.Attempted, rep.failures)
				}
				want := e2eUnits
				if trace {
					want = layerUnits
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%s seed %d: %d metrics, want %d", name, seed, len(res.Metrics), len(want))
				}
				if !trace {
					for m, v := range res.Metrics {
						if !(v.Value > 0) || math.IsInf(v.Value, 0) {
							t.Errorf("%s seed %d: end-to-end metric %s = %v", name, seed, m, v.Value)
						}
					}
				}
			}
		}
	}
}

// TestFitCheckFiresOnCorruptedTransform corrupts one coefficient of a real
// fit and expects both fit checks to fire.
func TestFitCheckFiresOnCorruptedTransform(t *testing.T) {
	p, err := dataset.Preset("cancercell", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	u, err := dataset.GenerateUnion(p, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	tr, _, err := tune.TuneAndFit(u.A, platform, tune.Config{Epsilon: fitEpsilon, Workers: workers, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFit(u.A, tr, tr); err != nil {
		t.Fatalf("clean fit: %v", err)
	}
	bad := *tr
	bad.C = cloneCSC(tr.C)
	bad.C.Val[0] += 1e3
	if checkFit(u.A, &bad, nil) == nil {
		t.Error("error-tolerance check passed a corrupted coefficient")
	}
	flipped := *tr
	flipped.C = cloneCSC(tr.C)
	flipped.C.Val[len(flipped.C.Val)-1] = math.Nextafter(flipped.C.Val[len(flipped.C.Val)-1], 2)
	if checkFit(u.A, &flipped, tr) == nil {
		t.Error("repeat check passed a coefficient one ulp off")
	}
}

// TestDenoiseChecksFireOnCorruptedSolution solves real patches, then
// corrupts a solution bit and the reconstruction quality.
func TestDenoiseChecksFireOnCorruptedSolution(t *testing.T) {
	cfg := runConfig{seed: 5, small: true}
	models, err := lfSetups(cfg, newReport(false))
	if err != nil {
		t.Fatal(err)
	}
	m := models[0]
	op := mustExDGram(t, m)
	var rs []patchResult
	var xs [][]float64
	for i := 0; i < 4; i++ {
		y, clean := noisyPatch(cfg, m, i)
		res, recon := denoisePatch(newTracer(false), m.train, op, y)
		rs = append(rs, newPatchResult(0, i, res, clean, y, recon))
		xs = append(xs, res.X)
	}
	for i, r := range rs {
		if err := checkPatch(r); err != nil {
			t.Fatalf("clean patch: %v", err)
		}
		if err := checkDigest(digest(xs[i]), r); err != nil {
			t.Fatalf("clean patch: %v", err)
		}
	}
	if err := checkGain(rs, smallGainFloor); err != nil {
		t.Fatalf("clean patches: %v", err)
	}

	r := rs[0]
	x := append([]float64(nil), xs[0]...)
	x[len(x)/2] = math.Float64frombits(math.Float64bits(x[len(x)/2]) ^ 1)
	if checkDigest(digest(x), r) == nil {
		t.Error("digest check passed a solution with one flipped bit")
	}
	worse := append([]patchResult(nil), rs...)
	for i := range worse {
		worse[i].psnr = worse[i].noisy
	}
	if checkGain(worse, smallGainFloor) == nil {
		t.Error("PSNR floor passed patches no better than their noisy inputs")
	}
	r.objective = r.y2
	if checkPatch(r) == nil {
		t.Error("objective check passed a solve that did not descend")
	}
}

// TestServeCheckFiresOnCorruptedResponse builds responses from the serial
// reference and expects the bit-for-bit check to reject a one-bit change.
func TestServeCheckFiresOnCorruptedResponse(t *testing.T) {
	r := rng.New(9)
	d := mat.NewDense(48, 12)
	for i := range d.Data {
		d.Data[i] = r.NormFloat64()
	}
	d.NormalizeColumns()
	bc := omp.NewBatchCoder(d)
	signal := make([]float64, d.Rows)
	for i := range signal {
		signal[i] = r.NormFloat64()
	}
	ref := bc.Encode(signal, serveTol, 0, nil)
	c := &serveCase{ref: ref, denoised: reconstruct(d, ref)}

	enc := serve.EncodeResponse{Idx: ref.Idx, Coef: append([]float64(nil), ref.Coef...), Resid2: ref.Resid2, Iters: ref.Iters}
	den := serve.DenoiseResponse{Denoised: append([]float64(nil), c.denoised...), Resid2: ref.Resid2, Iters: ref.Iters}
	if err := checkResponse(mustJSON(t, enc), false, c); err != nil {
		t.Fatalf("clean encode: %v", err)
	}
	if err := checkResponse(mustJSON(t, den), true, c); err != nil {
		t.Fatalf("clean denoise: %v", err)
	}
	enc.Coef[0] = math.Nextafter(enc.Coef[0], math.Inf(1))
	if checkResponse(mustJSON(t, enc), false, c) == nil {
		t.Error("encode check passed a coefficient one ulp off")
	}
	den.Denoised[3] = math.Nextafter(den.Denoised[3], math.Inf(-1))
	if checkResponse(mustJSON(t, den), true, c) == nil {
		t.Error("denoise check passed a reconstruction one ulp off")
	}
}

// TestStalledResponseChargedToQueuedRequests stalls both connections and
// checks that the request due behind them is charged the wait.
func TestStalledResponseChargedToQueuedRequests(t *testing.T) {
	const stall = 80 * time.Millisecond
	due := []time.Duration{0, 0, 10 * time.Millisecond, 200 * time.Millisecond}
	samples := openLoop(due, 2, func(i int) ([]byte, error) {
		if i < 2 {
			time.Sleep(stall)
		}
		return nil, nil
	}, func(int, []byte, error) {})
	queued := samples[2]
	if lat := queued.done - queued.due; lat < stall-10*time.Millisecond {
		t.Errorf("request queued behind stalled connections has latency %v, want at least %v", lat, stall-10*time.Millisecond)
	}
	if wait := queued.sent - queued.wake; wait < stall-20*time.Millisecond {
		t.Errorf("queued request waited %v for a connection, want about %v", wait, stall-10*time.Millisecond)
	}
	if lat := samples[3].done - samples[3].due; lat > 50*time.Millisecond {
		t.Errorf("request due after the stall cleared has latency %v", lat)
	}
}

// TestPoissonScheduleIsSeeded checks the schedule repeats for a seed,
// differs across seeds and has about the requested rate.
func TestPoissonScheduleIsSeeded(t *testing.T) {
	a := poissonSchedule(rng.New(1), 300, 10*time.Second)
	b := poissonSchedule(rng.New(1), 300, 10*time.Second)
	c := poissonSchedule(rng.New(2), 300, 10*time.Second)
	if len(a) != len(b) || a[len(a)/2] != b[len(b)/2] {
		t.Error("same seed gave different schedules")
	}
	if len(a) == len(c) && a[len(a)/2] == c[len(c)/2] {
		t.Error("different seeds gave the same schedule")
	}
	if n := len(a); n < 2800 || n > 3200 {
		t.Errorf("%d arrivals in 10 s at 300/s", n)
	}
}

// TestRunRejectsBadArguments checks the command exits non-zero without a
// result line on bad input.
func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "fit_union", "--trace", "2"},
		{"--workload", "fit_union", "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

func mustExDGram(t *testing.T, m *lfModel) *dist.ExDGram {
	t.Helper()
	op, err := dist.NewExDGram(cluster.NewComm(platform), m.tr.D, m.tr.C)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func cloneCSC(c *sparse.CSC) *sparse.CSC {
	return &sparse.CSC{
		Rows: c.Rows, Cols: c.Cols,
		ColPtr: append([]int(nil), c.ColPtr...),
		RowIdx: append([]int(nil), c.RowIdx...),
		Val:    append([]float64(nil), c.Val...),
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
