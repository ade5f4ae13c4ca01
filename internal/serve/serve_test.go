package serve

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
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"extdict/internal/cluster"
	"extdict/internal/cluster/clustertest"
	"extdict/internal/mat"
	"extdict/internal/matio"
	"extdict/internal/omp"
	"extdict/internal/perf"
	"extdict/internal/rng"
)

// unitDictionary returns an M×L dictionary with unit-norm random columns.
func unitDictionary(r *rng.RNG, m, l int) *mat.Dense {
	d := mat.NewDense(m, l)
	for i := range d.Data {
		d.Data[i] = r.NormFloat64()
	}
	d.NormalizeColumns()
	return d
}

// randSignal draws a dense random signal of dimension m.
func randSignal(r *rng.RNG, m int) []float64 {
	sig := make([]float64, m)
	for i := range sig {
		sig[i] = r.NormFloat64()
	}
	return sig
}

// newTestServer builds a server plus an httptest front end and returns both
// with a cleanup-registered shutdown.
func newTestServer(t *testing.T, dicts map[string]*mat.Dense, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(dicts, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Mux())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// postJSON marshals v against the URL and returns status plus raw body.
func postJSON(t *testing.T, url string, v any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, buf.Bytes()
}

// sameResult asserts a response code equals the serial reference bit for bit.
func sameResult(t *testing.T, got EncodeResponse, want omp.Result) {
	t.Helper()
	if got.Iters != want.Iters {
		t.Fatalf("iters: got %d want %d", got.Iters, want.Iters)
	}
	if math.Float64bits(got.Resid2) != math.Float64bits(want.Resid2) {
		t.Fatalf("resid2 bits differ: got %v want %v", got.Resid2, want.Resid2)
	}
	if len(got.Idx) != len(want.Idx) {
		t.Fatalf("support size: got %d want %d", len(got.Idx), len(want.Idx))
	}
	for i := range got.Idx {
		if got.Idx[i] != want.Idx[i] {
			t.Fatalf("idx[%d]: got %d want %d", i, got.Idx[i], want.Idx[i])
		}
		if math.Float64bits(got.Coef[i]) != math.Float64bits(want.Coef[i]) {
			t.Fatalf("coef[%d] bits differ: got %v want %v", i, got.Coef[i], want.Coef[i])
		}
	}
}

func TestEncodeBitIdenticalToSerial(t *testing.T) {
	r := rng.New(7)
	d := unitDictionary(r, 24, 60)
	_, ts := newTestServer(t, map[string]*mat.Dense{"d": d}, Config{Tol: 0.05})

	ref := omp.NewBatchCoder(d)
	ws := &omp.Workspace{}
	for i := 0; i < 20; i++ {
		sig := randSignal(r, d.Rows)
		want := ref.Encode(sig, 0.05, 0, ws)
		status, body := postJSON(t, ts.URL+"/v1/encode", EncodeRequest{Signal: sig})
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, status, body)
		}
		var got EncodeResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if got.Dict != "d" || got.Epoch != 1 || got.Batch < 1 {
			t.Fatalf("metadata: %+v", got)
		}
		sameResult(t, got, want)
	}
}

func TestDenoiseMatchesReconstruction(t *testing.T) {
	r := rng.New(11)
	d := unitDictionary(r, 16, 40)
	_, ts := newTestServer(t, map[string]*mat.Dense{"d": d}, Config{Tol: 0.1})

	ref := omp.NewBatchCoder(d)
	sig := randSignal(r, d.Rows)
	want := ref.Encode(sig, 0.1, 0, &omp.Workspace{})
	wantY := reconstruct(d, want)

	status, body := postJSON(t, ts.URL+"/v1/denoise", EncodeRequest{Signal: sig})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var got DenoiseResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(got.Denoised) != len(wantY) {
		t.Fatalf("denoised length %d want %d", len(got.Denoised), len(wantY))
	}
	for i := range wantY {
		if math.Float64bits(got.Denoised[i]) != math.Float64bits(wantY[i]) {
			t.Fatalf("denoised[%d] bits differ: got %v want %v", i, got.Denoised[i], wantY[i])
		}
	}
}

func TestRequestValidation(t *testing.T) {
	r := rng.New(3)
	d1 := unitDictionary(r, 8, 16)
	d2 := unitDictionary(r, 12, 20)
	_, ts := newTestServer(t, map[string]*mat.Dense{"a": d1, "b": d2}, Config{})

	cases := []struct {
		name string
		req  EncodeRequest
		want int
	}{
		{"wrong length", EncodeRequest{Dict: "a", Signal: make([]float64, 5)}, http.StatusBadRequest},
		{"unknown dict", EncodeRequest{Dict: "zzz", Signal: make([]float64, 8)}, http.StatusNotFound},
		{"ambiguous empty name", EncodeRequest{Signal: make([]float64, 8)}, http.StatusNotFound},
	}
	for _, tc := range cases {
		status, body := postJSON(t, ts.URL+"/v1/encode", tc.req)
		if status != tc.want {
			t.Errorf("%s: status %d want %d (%s)", tc.name, status, tc.want, body)
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body missing: %s", tc.name, body)
		}
	}

	resp, err := http.Post(ts.URL+"/v1/encode", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d want 400", resp.StatusCode)
	}
}

// TestOverflowSignalAnswers500 sends finite signals whose squared norm
// overflows, so the code's residual is +Inf and has no JSON form. Both
// coding endpoints must answer 500 with an error body, not 200 with an
// empty one.
func TestOverflowSignalAnswers500(t *testing.T) {
	r := rng.New(4)
	srv, ts := newTestServer(t, map[string]*mat.Dense{"d": unitDictionary(r, 4, 10)}, Config{})
	bodies := []string{
		`{"signal":[1e200,1e200,1e200,1e200]}`,
		`{"signal":[1e300,-1e300,1e300,-1e300]}`,
	}
	for _, path := range []string{"/v1/encode", "/v1/denoise"} {
		for _, body := range bodies {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatalf("POST %s: %v", path, err)
			}
			var buf bytes.Buffer
			_, err = buf.ReadFrom(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("read body: %v", err)
			}
			if resp.StatusCode != http.StatusInternalServerError {
				t.Errorf("%s %s: status %d want 500 (%q)", path, body, resp.StatusCode, buf.String())
			}
			var er ErrorResponse
			if err := json.Unmarshal(buf.Bytes(), &er); err != nil || er.Error == "" {
				t.Errorf("%s %s: error body missing: %q", path, body, buf.String())
			}
		}
	}
	// statsz counts every one of those 500s against the shard.
	if got, want := srv.Stats().Dicts["d"].Unrepresentable, int64(4); got != want {
		t.Errorf("statsz unrepresentable = %d, want %d", got, want)
	}
}

func TestHealthzAndStatsz(t *testing.T) {
	r := rng.New(5)
	dicts := map[string]*mat.Dense{
		"beta":  unitDictionary(r, 8, 16),
		"alpha": unitDictionary(r, 8, 12),
	}
	_, ts := newTestServer(t, dicts, Config{})

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	var h HealthResponse
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	if h.Status != "ok" || len(h.Dicts) != 2 || h.Dicts[0] != "alpha" || h.Dicts[1] != "beta" {
		t.Fatalf("healthz: %+v", h)
	}

	status, _ := postJSON(t, ts.URL+"/v1/encode", EncodeRequest{Dict: "alpha", Signal: randSignal(r, 8)})
	if status != http.StatusOK {
		t.Fatalf("encode status %d", status)
	}

	resp, err = http.Get(ts.URL + "/v1/statsz")
	if err != nil {
		t.Fatalf("statsz: %v", err)
	}
	var st Statsz
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode statsz: %v", err)
	}
	a := st.Dicts["alpha"]
	if a.Accepted != 1 || a.Encoded != 1 || a.Batches != 1 || a.Epoch != 1 {
		t.Fatalf("alpha stats: %+v", a)
	}
	if a.BatchHist[0] != 1 {
		t.Fatalf("batch hist: %v", a.BatchHist)
	}
	if st.Dicts["beta"].Accepted != 0 {
		t.Fatalf("beta stats: %+v", st.Dicts["beta"])
	}
	if st.PoolBudget < 1 || st.BatchMax < 1 {
		t.Fatalf("config echo: %+v", st)
	}
}

func TestReloadSwapsEpoch(t *testing.T) {
	r := rng.New(9)
	d1 := unitDictionary(r, 10, 24)
	d2 := unitDictionary(r, 10, 30)
	_, ts := newTestServer(t, map[string]*mat.Dense{"d": d1}, Config{Tol: 0.05})

	var csv bytes.Buffer
	if err := matio.WriteCSV(&csv, d2); err != nil {
		t.Fatalf("write csv: %v", err)
	}
	// The reference must see exactly what the server sees: the CSV
	// round-trip re-normalized, same as handleReload does.
	d2ref, err := matio.ReadCSV(bytes.NewReader(csv.Bytes()))
	if err != nil {
		t.Fatalf("read csv back: %v", err)
	}
	d2ref.NormalizeColumns()
	resp, err := http.Post(ts.URL+"/v1/reloadz?dict=d&format=csv", "text/csv", &csv)
	if err != nil {
		t.Fatalf("reloadz: %v", err)
	}
	var rl ReloadResponse
	err = json.NewDecoder(resp.Body).Decode(&rl)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode reload: %v", err)
	}
	if rl.Epoch != 2 || rl.Rows != 10 || rl.Cols != 30 {
		t.Fatalf("reload: %+v", rl)
	}

	// Post-swap responses carry the new epoch and the new dictionary's codes.
	ref := omp.NewBatchCoder(d2ref)
	sig := randSignal(r, 10)
	want := ref.Encode(sig, 0.05, 0, &omp.Workspace{})
	status, body := postJSON(t, ts.URL+"/v1/encode", EncodeRequest{Signal: sig})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var got EncodeResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got.Epoch != 2 {
		t.Fatalf("epoch: got %d want 2", got.Epoch)
	}
	sameResult(t, got, want)

	// A mismatched shape is rejected and the epoch stays put.
	bad := unitDictionary(r, 4, 6)
	var badCSV bytes.Buffer
	if err := matio.WriteCSV(&badCSV, bad); err != nil {
		t.Fatalf("write csv: %v", err)
	}
	resp, err = http.Post(ts.URL+"/v1/reloadz?dict=d&format=csv", "text/csv", &badCSV)
	if err != nil {
		t.Fatalf("reloadz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad shape: status %d want 400", resp.StatusCode)
	}
}

func TestCloseDrainsAndRejects(t *testing.T) {
	r := rng.New(13)
	d := unitDictionary(r, 8, 16)
	srv, err := New(map[string]*mat.Dense{"d": d}, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv.Close()
	srv.Close() // idempotent

	sh := srv.shards["d"]
	req := &request{kind: kindEncode, signal: randSignal(r, 8), done: make(chan struct{})}
	if _, err := sh.submit(req); err != ErrClosed {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
	if sh.stats.rejected.Load() != 1 {
		t.Fatalf("rejected counter: %d", sh.stats.rejected.Load())
	}
}

func TestNewValidation(t *testing.T) {
	r := rng.New(1)
	d := unitDictionary(r, 4, 8)
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("New with no dictionaries should fail")
	}
	if _, err := New(map[string]*mat.Dense{"": d}, Config{}); err == nil {
		t.Fatal("New with empty name should fail")
	}
	if _, err := New(map[string]*mat.Dense{"d": nil}, Config{}); err == nil {
		t.Fatal("New with nil dictionary should fail")
	}
	for _, c := range corruptDicts {
		bad, err := matio.ReadCSV(strings.NewReader(c.csv))
		if err != nil {
			t.Fatalf("%s: read csv: %v", c.name, err)
		}
		bad.NormalizeColumns()
		if srv, err := New(map[string]*mat.Dense{"d": bad}, Config{}); err == nil {
			srv.Close()
			t.Errorf("New accepted the %s dictionary", c.name)
		}
	}
}

// corruptDicts are 4×3 CSV dictionaries whose column 0 normalization
// cannot repair: an Inf entry (normalized to NaN), entries whose squared
// norm overflows (normalized to zero), and an all-zero column. Served, each
// codes every signal to an empty support with resid2 = 1.
var corruptDicts = []struct{ name, csv string }{
	{"inf entry", "Inf,1,0\n0,0,1\n0,1,0\n1,0,1\n"},
	{"overflowing norm", "1e200,1,0\n1e200,0,1\n1e200,1,0\n1e200,0,1\n"},
	{"zero column", "0,1,0\n0,0,1\n0,1,0\n0,0,1\n"},
}

// TestReloadRejectsCorruptDictionary posts each corrupt dictionary to
// /v1/reloadz. Each must answer 400 with an error body and leave epoch 1
// serving, so a signal still codes to a real support.
func TestReloadRejectsCorruptDictionary(t *testing.T) {
	r := rng.New(19)
	srv, ts := newTestServer(t, map[string]*mat.Dense{"d": unitDictionary(r, 4, 10)}, Config{})
	for _, c := range corruptDicts {
		resp, err := http.Post(ts.URL+"/v1/reloadz?format=csv", "text/csv", strings.NewReader(c.csv))
		if err != nil {
			t.Fatalf("%s: reloadz: %v", c.name, err)
		}
		var er ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil || er.Error == "" {
			t.Fatalf("%s: status %d (%v, %+v), want 400 with an error body", c.name, resp.StatusCode, err, er)
		}
		if epoch, _ := srv.Epoch("d"); epoch != 1 {
			t.Fatalf("%s: epoch %d after a rejected reload, want 1", c.name, epoch)
		}
		status, body := postJSON(t, ts.URL+"/v1/encode", EncodeRequest{Signal: []float64{0, 1, 0, 0}})
		var got EncodeResponse
		if err := json.Unmarshal(body, &got); status != http.StatusOK || err != nil {
			t.Fatalf("%s: encode status %d: %s", c.name, status, body)
		}
		if got.Epoch != 1 || len(got.Idx) == 0 || got.Resid2 >= 1 {
			t.Fatalf("%s: encode after rejected reload: %+v", c.name, got)
		}
	}
}

// newIdleServer builds a one-dictionary server whose batcher has not
// started: accepted requests wait in the queue until the test runs it.
func newIdleServer(d *mat.Dense) *Server {
	s := &Server{cfg: (Config{}).withDefaults(), names: []string{"d"}}
	s.shards = map[string]*shard{"d": newShard("d", d, &s.cfg)}
	s.mux = s.routes()
	return s
}

// TestHandlerReturnsWhenClientGoes cancels a client while its request
// waits in the queue. The handler must return without the batcher having
// run, and the abandoned request must still be coded and counted once the
// batcher starts.
func TestHandlerReturnsWhenClientGoes(t *testing.T) {
	r := rng.New(29)
	s := newIdleServer(unitDictionary(r, 8, 16))
	sh := s.shards["d"]
	returned := make(chan struct{}, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		s.Mux().ServeHTTP(w, req)
		returned <- struct{}{}
	}))
	t.Cleanup(ts.Close) // after the batcher's cleanup has answered every request
	startLater := startBatcherLater(t, sh)

	body, err := json.Marshal(EncodeRequest{Signal: randSignal(r, 8)})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/encode", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	clientErr := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(hr)
		if err == nil {
			resp.Body.Close()
		}
		clientErr <- err
	}()

	clustertest.Watchdog(t, func() {
		for sh.inflight.Load() == 0 {
			runtime.Gosched()
		}
		cancel()
		if err := <-clientErr; err == nil {
			t.Error("cancelled client got a response")
		}
		<-returned
	})
	if got := sh.stats.encoded.Load(); got != 0 {
		t.Fatalf("encoded %d before the batcher ran", got)
	}

	startLater()
	clustertest.Watchdog(t, func() {
		for sh.inflight.Load() != 0 {
			runtime.Gosched()
		}
	})
	if st := s.Stats().Dicts["d"]; st.Encoded != 1 || st.InFlight != 0 || st.Accepted != 1 {
		t.Fatalf("abandoned request not coded and counted: %+v", st)
	}
}

func TestModeledLatencyPureAndMonotone(t *testing.T) {
	// One core, so the critical path grows with every queued column and the
	// prediction is strictly monotone in depth.
	plat := cluster.NewPlatform(1, 1)
	prev := 0.0
	for queued := 1; queued <= 128; queued *= 2 {
		a := ModeledLatency(64, 256, queued, 32, 0, plat)
		b := ModeledLatency(64, 256, queued, 32, 0, plat)
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("queued=%d: not reproducible: %v vs %v", queued, a, b)
		}
		if a <= prev {
			t.Fatalf("queued=%d: modeled latency %v not increasing past %v", queued, a, prev)
		}
		prev = a
	}
}

func TestLatencyBudgetSheds(t *testing.T) {
	r := rng.New(21)
	d := unitDictionary(r, 32, 64)
	srv, err := New(map[string]*mat.Dense{"d": d}, Config{
		LatencyBudget: time.Nanosecond, // below any modeled batch cost
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()

	sh := srv.shards["d"]
	req := &request{kind: kindEncode, signal: randSignal(r, 32), done: make(chan struct{})}
	modeled, err := sh.submit(req)
	if err != ErrShedLatency {
		t.Fatalf("submit: %v, want ErrShedLatency", err)
	}
	if modeled <= 0 {
		t.Fatalf("modeled latency %v, want > 0", modeled)
	}
	if sh.stats.shedLatency.Load() != 1 {
		t.Fatalf("shedLatency counter: %d", sh.stats.shedLatency.Load())
	}
}

func TestStartServesAndCloses(t *testing.T) {
	r := rng.New(17)
	d := unitDictionary(r, 8, 16)
	srv, err := New(map[string]*mat.Dense{"d": d}, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	h, err := Start("127.0.0.1:0", srv)
	if err != nil {
		srv.Close()
		t.Fatalf("Start: %v", err)
	}
	base := fmt.Sprintf("http://%s", h.Addr())
	status, body := postJSON(t, base+"/v1/encode", EncodeRequest{Signal: randSignal(r, 8)})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if err := h.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := http.Get(base + "/v1/healthz"); err == nil {
		t.Fatal("healthz after Close should fail to connect")
	}
}

// TestCloseCutsConnectionWithoutRequest dials the listener and sends
// nothing — the socket an HTTP client leaves behind when a pre-dial loses
// the race to a freed keep-alive connection. It holds no accepted request,
// so Close must cut it and return nil well inside drainTimeout rather than
// wait the socket out until the drain deadline.
func TestCloseCutsConnectionWithoutRequest(t *testing.T) {
	r := rng.New(19)
	srv, err := New(map[string]*mat.Dense{"d": unitDictionary(r, 8, 16)}, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	h, err := Start("127.0.0.1:0", srv)
	if err != nil {
		srv.Close()
		t.Fatalf("Start: %v", err)
	}
	raw, err := net.Dial("tcp", h.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer raw.Close()
	// The accept loop takes connections in order, so once a request on a
	// second connection is answered the silent socket has been accepted.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := client.Get("http://" + h.Addr() + "/v1/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()

	sw := perf.StartWall()
	if err := h.Close(); err != nil {
		t.Fatalf("Close: %v, want nil: the silent socket carries no request", err)
	}
	if elapsed := sw.Elapsed(); elapsed > drainTimeout/5 {
		t.Fatalf("Close took %v, want well inside the %v drain deadline", elapsed, drainTimeout)
	}
	// The server closed its end: the client reads EOF.
	clustertest.Watchdog(t, func() {
		if _, err := raw.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
			t.Errorf("read after Close: %v, want EOF", err)
		}
	})
}

// TestCloseBoundedByStalledClient holds Close against two connections that
// never finish on their own: a request accepted into a queue whose batcher
// has not started, and a client that sends full headers plus the start of
// its body and then stalls. Close must still return, reporting the cut at
// the drain deadline, and the accepted request must be coded once the
// batcher drains.
func TestCloseBoundedByStalledClient(t *testing.T) {
	r := rng.New(31)
	s := newIdleServer(unitDictionary(r, 8, 16))
	sh := s.shards["d"]
	startLater := startBatcherLater(t, sh)
	h, err := Start("127.0.0.1:0", s)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}

	body, err := json.Marshal(EncodeRequest{Signal: randSignal(r, 8)})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	clientErr := make(chan error, 1)
	go func() {
		resp, err := http.Post("http://"+h.Addr()+"/v1/encode", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
		clientErr <- err
	}()

	stalled, err := net.Dial("tcp", h.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer stalled.Close()
	head := "POST /v1/encode HTTP/1.1\r\nHost: stall\r\nContent-Type: application/json\r\nContent-Length: 4096\r\n\r\n"
	if _, err := io.WriteString(stalled, head+`{"signal": [0.5,`); err != nil {
		t.Fatalf("write: %v", err)
	}

	var closeErr error
	clustertest.Watchdog(t, func() {
		for sh.inflight.Load() == 0 {
			runtime.Gosched()
		}
		closeErr = h.Close()
		<-clientErr
	})
	if !errors.Is(closeErr, context.DeadlineExceeded) {
		t.Fatalf("Close: %v, want the drain deadline reported", closeErr)
	}
	if got := sh.stats.encoded.Load(); got != 0 {
		t.Fatalf("encoded %d before the batcher ran", got)
	}

	startLater()
	clustertest.Watchdog(t, func() {
		for sh.inflight.Load() != 0 {
			runtime.Gosched()
		}
	})
	if st := s.Stats().Dicts["d"]; st.Encoded != 1 || st.Accepted != 1 {
		t.Fatalf("accepted request not coded after Close: %+v", st)
	}
}
