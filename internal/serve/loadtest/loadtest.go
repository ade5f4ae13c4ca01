// Package loadtest is a deterministic closed-loop load generator for the
// ExtDict serving layer. N concurrent clients replay seeded signal streams
// against a running server, and every response is checked bit for bit
// against a serial reference encode of the same signal — proving that
// request coalescing changes only throughput and latency, never a single
// coefficient. The harness reports a latency histogram (p50/p99) and the
// achieved batch-size distribution from the server's statsz counters, which
// is what the committed BENCH_PR9.json artifact captures.
package loadtest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"

	"extdict/internal/mat"
	"extdict/internal/omp"
	"extdict/internal/perf"
	"extdict/internal/rng"
	"extdict/internal/serve"
)

// Config describes one load-test run against a live server.
type Config struct {
	// BaseURL is the server under test, e.g. "http://127.0.0.1:8347".
	BaseURL string
	// Dict is the reference dictionary — the same matrix (bit for bit) the
	// server loaded. The harness encodes every signal serially against it
	// to get the ground-truth codes. Required.
	Dict *mat.Dense
	// Name is the dictionary name sent in requests ("" = server default).
	Name string
	// Clients is the number of concurrent closed-loop clients (default 8).
	Clients int
	// Requests is the request count per client (default 50).
	Requests int
	// Seed drives the signal generator; the same seed replays the same
	// signal streams (default 1).
	Seed uint64
	// DenoiseEvery routes every k-th request per client to /v1/denoise
	// instead of /v1/encode (0 = encode only).
	DenoiseEvery int
	// Tol and MaxAtoms must match the server's OMP configuration, or the
	// reference codes will legitimately differ.
	Tol      float64
	MaxAtoms int
}

// withDefaults returns cfg with unset fields at their defaults.
func (c Config) withDefaults() Config {
	if c.Clients < 1 {
		c.Clients = 8
	}
	if c.Requests < 1 {
		c.Requests = 50
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Tol <= 0 {
		c.Tol = 0.1
	}
	return c
}

// Result summarizes a run.
type Result struct {
	// Sent counts issued requests; OK + Shed + Failed partitions them.
	Sent int
	// OK counts 200 responses (all compared against the serial reference).
	OK int
	// Shed counts 429 admission sheds.
	Shed int
	// Failed counts transport errors and unexpected statuses.
	Failed int
	// Mismatches counts 200 responses whose code differed bitwise from the
	// serial reference encode. Zero is the bit-identity property.
	Mismatches int

	// Latency percentiles over the OK responses, in milliseconds.
	P50MS, P99MS, MeanMS, MaxMS float64

	// BatchHist is the server's achieved batch-size distribution:
	// BatchHist[b-1] panels coded with exactly b columns.
	BatchHist []int64
	// MeanBatch is signals coded per panel; MaxBatch the largest panel.
	MeanBatch float64
	MaxBatch  int
}

// clientStats is one client's tally, sent back over the results channel.
type clientStats struct {
	ok, shed, failed, mismatches int
	latMS                        []float64
	err                          error
}

// Run drives the configured load against cfg.BaseURL and returns the
// aggregate. A non-nil error reports a harness failure (unreachable server,
// undecodable stats); response mismatches are data, not errors.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Dict == nil {
		return Result{}, fmt.Errorf("loadtest: Config.Dict is required")
	}
	if cfg.BaseURL == "" {
		return Result{}, fmt.Errorf("loadtest: Config.BaseURL is required")
	}

	// One independently-built coder: NewBatchCoder's Gram precompute is
	// deterministic, so its codes are bit-identical to the server's.
	ref := omp.NewBatchCoder(cfg.Dict)

	// The harness owns its transport, so the keep-alive connections it
	// leaves open are closed when Run ends rather than idling against a
	// server about to drain.
	transport := http.DefaultTransport.(*http.Transport).Clone()
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport}

	ch := make(chan clientStats, cfg.Clients)
	for c := 0; c < cfg.Clients; c++ {
		id := c
		go func() {
			ch <- runClient(client, id, cfg, ref)
		}()
	}

	res := Result{}
	var all []float64
	var harnessErr error
	for c := 0; c < cfg.Clients; c++ {
		cs := <-ch
		if cs.err != nil && harnessErr == nil {
			harnessErr = cs.err
		}
		res.OK += cs.ok
		res.Shed += cs.shed
		res.Failed += cs.failed
		res.Mismatches += cs.mismatches
		all = append(all, cs.latMS...)
	}
	res.Sent = cfg.Clients * cfg.Requests
	if harnessErr != nil {
		return res, harnessErr
	}

	sort.Float64s(all)
	if len(all) > 0 {
		res.P50MS = percentile(all, 0.50)
		res.P99MS = percentile(all, 0.99)
		res.MaxMS = all[len(all)-1]
		sum := 0.0
		for _, v := range all {
			sum += v
		}
		res.MeanMS = sum / float64(len(all))
	}

	if err := fetchBatchStats(client, cfg.BaseURL, &res); err != nil {
		return res, err
	}
	return res, nil
}

// runClient replays one client's seeded signal stream: generate, reference-
// encode, then fire closed-loop requests and compare every answer.
func runClient(client *http.Client, id int, cfg Config, ref *omp.BatchCoder) clientStats {
	// Distinct golden-ratio-spaced streams per client; replaying the same
	// (Seed, id) replays the same signals.
	r := rng.New(cfg.Seed + uint64(id)*0x9e3779b97f4a7c15 + 1)
	sigs := make([][]float64, cfg.Requests)
	for i := range sigs {
		sigs[i] = sparseSignal(r, cfg.Dict)
	}

	// Reference pass, outside the timed loop. This loop is the harness's
	// hot region: the Encode calls reuse one workspace and nothing else
	// allocates per iteration.
	refs := make([]omp.Result, cfg.Requests)
	ws := &omp.Workspace{}
	for i := range sigs {
		refs[i] = ref.Encode(sigs[i], cfg.Tol, cfg.MaxAtoms, ws)
	}
	wantDenoised := make([][]float64, cfg.Requests)
	for i := range sigs {
		if cfg.DenoiseEvery > 0 && (i+1)%cfg.DenoiseEvery == 0 {
			wantDenoised[i] = reconstruct(cfg.Dict, refs[i])
		}
	}

	cs := clientStats{latMS: make([]float64, 0, cfg.Requests)}
	for i := range sigs {
		body, err := json.Marshal(&serve.EncodeRequest{Dict: cfg.Name, Signal: sigs[i]})
		if err != nil {
			cs.err = err
			return cs
		}
		path := "/v1/encode"
		if wantDenoised[i] != nil {
			path = "/v1/denoise"
		}
		sw := perf.StartWall()
		resp, err := client.Post(cfg.BaseURL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			cs.err = err
			return cs
		}
		payload, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		ms := float64(sw.Elapsed().Nanoseconds()) / 1e6
		if err != nil {
			cs.err = err
			return cs
		}
		switch resp.StatusCode {
		case http.StatusOK:
			cs.ok++
			cs.latMS = append(cs.latMS, ms)
			if !sameAnswer(payload, wantDenoised[i], refs[i]) {
				cs.mismatches++
			}
		case http.StatusTooManyRequests:
			cs.shed++
		default:
			cs.failed++
		}
	}
	return cs
}

// sparseSignal draws a signal as a 3-atom combination of dictionary columns
// plus small dense noise — the workload the coder is built for.
func sparseSignal(r *rng.RNG, d *mat.Dense) []float64 {
	sig := make([]float64, d.Rows)
	for a := 0; a < 3; a++ {
		j := r.Intn(d.Cols)
		c := 0.5 + r.Float64()
		for row := 0; row < d.Rows; row++ {
			sig[row] += c * d.At(row, j)
		}
	}
	for row := range sig {
		sig[row] += 0.01 * r.NormFloat64()
	}
	return sig
}

// sameAnswer checks a 200 payload bit for bit against the serial reference:
// every index, coefficient, residual, and iteration count must round-trip
// identically (Go's float64 JSON encoding is exact).
func sameAnswer(payload []byte, wantDenoised []float64, want omp.Result) bool {
	if wantDenoised != nil {
		var got serve.DenoiseResponse
		if err := json.Unmarshal(payload, &got); err != nil {
			return false
		}
		return got.Iters == want.Iters &&
			math.Float64bits(got.Resid2) == math.Float64bits(want.Resid2) &&
			sameFloats(got.Denoised, wantDenoised)
	}
	var got serve.EncodeResponse
	if err := json.Unmarshal(payload, &got); err != nil {
		return false
	}
	if got.Iters != want.Iters ||
		math.Float64bits(got.Resid2) != math.Float64bits(want.Resid2) {
		return false
	}
	if len(got.Idx) != len(want.Idx) {
		return false
	}
	for i := range got.Idx {
		if got.Idx[i] != want.Idx[i] {
			return false
		}
	}
	return sameFloats(got.Coef, want.Coef)
}

// sameFloats reports bitwise equality of two float slices.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// reconstruct mirrors the server's denoise reconstruction D·γ exactly —
// same accumulation order, so the sums carry the same rounding.
func reconstruct(d *mat.Dense, r omp.Result) []float64 {
	y := make([]float64, d.Rows)
	for i, jj := range r.Idx {
		c := r.Coef[i]
		for row := 0; row < d.Rows; row++ {
			y[row] += c * d.At(row, jj)
		}
	}
	return y
}

// percentile reads the q-quantile from an ascending-sorted slice with the
// nearest-rank rule.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// fetchBatchStats pulls /v1/statsz and folds the achieved batch-size
// distribution (summed across shards) into res.
func fetchBatchStats(client *http.Client, baseURL string, res *Result) error {
	resp, err := client.Get(baseURL + "/v1/statsz")
	if err != nil {
		return err
	}
	payload, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("loadtest: statsz returned %d", resp.StatusCode)
	}
	var st serve.Statsz
	if err := json.Unmarshal(payload, &st); err != nil {
		return err
	}
	var batches, coded int64
	for _, sh := range st.Dicts {
		for b1, n := range sh.BatchHist {
			if n == 0 {
				continue
			}
			for len(res.BatchHist) <= b1 {
				res.BatchHist = append(res.BatchHist, 0)
			}
			res.BatchHist[b1] += n
			batches += n
			coded += int64(b1+1) * n
			if b1+1 > res.MaxBatch {
				res.MaxBatch = b1 + 1
			}
		}
	}
	if batches > 0 {
		res.MeanBatch = float64(coded) / float64(batches)
	}
	return nil
}
