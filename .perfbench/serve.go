package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"extdict/internal/imgproc"
	"extdict/internal/mat"
	"extdict/internal/omp"
	"extdict/internal/rng"
	"extdict/internal/serve"
)

const (
	// conns is the number of HTTP connections the load generator opens.
	conns = 2
	// lateLimit is how long after its due time a request may complete
	// before it counts as failed.
	lateLimit = 250 * time.Millisecond
	// serveTol is the server's default OMP tolerance; the reference codes
	// use it too.
	serveTol = 0.1
	// reqHeader carries a request's index, so the traced run can pair the
	// client's span with the handler's.
	reqHeader = "X-Bench-Req"
)

// sample is one scheduled request's timeline, as offsets from the start
// of the schedule.
type sample struct {
	due, wake, sent, done time.Duration
}

// openLoop issues len(due) requests on a fixed schedule over `conns`
// connections. The dispatcher releases each request at its due time
// whether or not earlier ones have completed; a released request waits for
// a free connection, and that wait is part of its latency (done - due).
// wake - due is how late the dispatcher itself ran. send performs request
// i; check receives its outcome once its completion time is stamped.
func openLoop(due []time.Duration, conns int, send func(i int) ([]byte, error), check func(i int, body []byte, err error)) []sample {
	out := make([]sample, len(due))
	// Sized to the number of sends, so the dispatcher never blocks.
	queue := make(chan int, len(due))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				out[i].sent = time.Since(start)
				body, err := send(i)
				out[i].done = time.Since(start)
				check(i, body, err)
			}
		}()
	}
	for i, d := range due {
		if wait := d - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		out[i].due = d
		out[i].wake = time.Since(start)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

// poissonSchedule returns due times of a Poisson arrival process at rate
// per second, covering the given duration.
func poissonSchedule(r *rng.RNG, rate float64, length time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += -math.Log(1-r.Float64()) / rate
		d := time.Duration(t * float64(time.Second))
		if d >= length {
			return due
		}
		due = append(due, d)
	}
}

// serveCase is one distinct request body and its serial reference answer.
type serveCase struct {
	body  []byte
	clean []float64
	ref   omp.Result
	// denoised is D·ref in the server's summation order.
	denoised []float64
}

// runServe serves encode and denoise requests (3:1) for the fitted
// light-field dictionary over loopback HTTP, driven open loop by a seeded
// Poisson schedule at the given rate. op_ms_p50 is the median latency
// measured from each request's due time.
func runServe(cfg runConfig, rep *report, rate float64) error {
	models, err := lfSetups(cfg, rep)
	if err != nil {
		return err
	}
	m := medianModel(models)
	d := m.tr.D

	nBodies := 128
	if cfg.small {
		nBodies, rate = 16, rate/4
	}
	ref := omp.NewBatchCoder(d.Clone())
	cases := make([]serveCase, nBodies)
	for j := range cases {
		signal, clean := noisyPatch(cfg, m, j)
		body, err := json.Marshal(serve.EncodeRequest{Signal: signal})
		if err != nil {
			return err
		}
		res := ref.Encode(signal, serveTol, 0, nil)
		cases[j] = serveCase{body: body, clean: clean, ref: res, denoised: reconstruct(ref.D, res)}
	}

	srv, err := serve.New(map[string]*mat.Dense{"lf": d.Clone()}, serve.Config{})
	if err != nil {
		return err
	}
	handler := srv.Mux()
	if cfg.trace {
		handler = tracedHandler(handler, rep.tr)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	hs := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx) // the run's result is already decided
		srv.Close()
		<-served
	}()

	client := &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
	}
	defer client.CloseIdleConnections()
	base := "http://" + ln.Addr().String()

	// The schedule: due times, request kind and body, all from the seed.
	r := rng.New(cfg.subSeed(3000))
	length := time.Duration(cfg.seconds * float64(time.Second))
	due := poissonSchedule(r, rate, length)
	denoise := make([]bool, len(due))
	pick := make([]int, len(due))
	for i := range due {
		denoise[i] = r.Intn(4) == 3
		pick[i] = r.Intn(len(cases))
	}
	send := func(i int) ([]byte, error) {
		return post(client, base, denoise[i], cases[pick[i]].body, i+1, rep.tr)
	}

	// Warm up connections and caches with every body once, unmeasured.
	for j := range cases {
		if _, err := post(client, base, j%4 == 3, cases[j].body, 0, newTracer(false)); err != nil {
			return fmt.Errorf("warm-up request: %w", err)
		}
	}

	errs := make([]error, len(due))
	before := srv.Stats().Dicts["lf"]
	ph := startPhase()
	samples := openLoop(due, conns, send, func(i int, body []byte, err error) {
		if err == nil {
			err = checkResponse(body, denoise[i], &cases[pick[i]])
		}
		errs[i] = err
	})
	ph.end(rep)
	after := srv.Stats().Dicts["lf"]

	var lat, late, psnrs []float64
	for i, s := range samples {
		rep.attempted++
		if errs[i] == nil && s.done-s.due > lateLimit {
			errs[i] = fmt.Errorf("serve: request %d completed %v after its due time", i, s.done-s.due)
		}
		if errs[i] != nil {
			rep.fail("%v", errs[i])
		}
		lat = append(lat, (s.done-s.due).Seconds()*1e3)
		late = append(late, (s.wake-s.due).Seconds()*1e3)
		if denoise[i] {
			c := &cases[pick[i]]
			psnrs = append(psnrs, imgproc.PSNR(c.clean, c.denoised, 0))
		}
	}
	rep.e2e["op_ms_p50"] = quantile(lat, 0.5)
	rep.layer["quality_db"] = sum(psnrs) / float64(max(len(psnrs), 1))
	rep.layer["serve.lat_ms_p99"] = quantile(lat, 0.99)
	rep.layer["serve.gen_late_ms_p50"] = quantile(late, 0.5)
	rep.layer["serve.gen_late_ms_p99"] = quantile(late, 0.99)
	if b := after.Batches - before.Batches; b > 0 {
		rep.layer["serve.mean_batch"] = float64(after.Encoded-before.Encoded) / float64(b)
	}
	rep.layer["serve.depth_peak"] = float64(after.DepthPeak)
	rep.layer["serve.shed"] = float64(after.ShedLatency + after.ShedQueue - before.ShedLatency - before.ShedQueue)
	if cfg.trace {
		serveLayers(rep, ref, cases)
	}
	return nil
}

// post sends one encode or denoise request and returns the 200 body.
func post(client *http.Client, base string, denoise bool, body []byte, req int, t *tracer) ([]byte, error) {
	path := "/v1/encode"
	if denoise {
		path = "/v1/denoise"
	}
	hr, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if t.on {
		hr.Header.Set(reqHeader, strconv.Itoa(req))
	}
	id := t.begin("serve", "request", -1, int64(req))
	resp, err := client.Do(hr)
	if err != nil {
		t.end(id)
		return nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t.end(id)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("serve: %s answered %d: %s", path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// checkResponse verifies a 200 body is bit-identical to the serial
// reference encode of its signal, or to that encode's reconstruction for
// a denoise request.
func checkResponse(body []byte, denoise bool, c *serveCase) error {
	if denoise {
		var got serve.DenoiseResponse
		if err := json.Unmarshal(body, &got); err != nil {
			return fmt.Errorf("serve: denoise body: %w", err)
		}
		if got.Iters != c.ref.Iters || !sameBits([]float64{got.Resid2}, []float64{c.ref.Resid2}) || !sameBits(got.Denoised, c.denoised) {
			return errors.New("serve: denoise response differs from the serial reference")
		}
		return nil
	}
	var got serve.EncodeResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("serve: encode body: %w", err)
	}
	if got.Iters != c.ref.Iters || !sameBits([]float64{got.Resid2}, []float64{c.ref.Resid2}) ||
		!sameBits(got.Coef, c.ref.Coef) || len(got.Idx) != len(c.ref.Idx) {
		return errors.New("serve: encode response differs from the serial reference")
	}
	for i := range got.Idx {
		if got.Idx[i] != c.ref.Idx[i] {
			return errors.New("serve: encode response support differs from the serial reference")
		}
	}
	return nil
}

// reconstruct returns D·γ for one code, summing in the server's order.
func reconstruct(d *mat.Dense, r omp.Result) []float64 {
	y := make([]float64, d.Rows)
	for i, j := range r.Idx {
		c := r.Coef[i]
		for row := 0; row < d.Rows; row++ {
			y[row] += c * d.At(row, j)
		}
	}
	return y
}

func sameBits(a, b []float64) bool {
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

// tracedHandler records a span around every request the server handles.
func tracedHandler(h http.Handler, t *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64) // untagged requests record as 0
		id := t.begin("serve", "handler", -1, req)
		h.ServeHTTP(w, r)
		t.end(id)
	})
}

// serveLayers derives the serve workloads' per-layer metrics from the
// client and handler spans, and times the panel encodes the server runs.
func serveLayers(rep *report, ref *omp.BatchCoder, cases []serveCase) {
	t := rep.tr
	handler := t.byReq("serve", "handler")
	client := t.byReq("serve", "request")
	var hs, transport []float64
	for req, c := range client {
		if h, ok := handler[req]; ok && req > 0 {
			hs = append(hs, h*1e3)
			transport = append(transport, (c-h)*1e3)
		}
	}
	rep.layer["serve.handler_ms_p50"] = quantile(hs, 0.5)
	rep.layer["serve.transport_ms_p50"] = quantile(transport, 0.5)

	signals := make([][]float64, 2)
	for j := range signals {
		var in serve.EncodeRequest
		if err := json.Unmarshal(cases[j].body, &in); err != nil {
			rep.check(err)
			return
		}
		signals[j] = in.Signal
	}
	for b := 1; b <= 2; b++ {
		id := t.begin("omp", "EncodePanel", -1, 0)
		sec := timeIt(300, func() { ref.EncodePanel(signals[:b], serveTol, 0, workers) })
		t.end(id)
		rep.layer["omp.panel_us_b"+strconv.Itoa(b)] = sec * 1e6
	}
	rep.layer["mat.mulvect_gbps"] = mulVecTGBps(t, ref.D)
}
