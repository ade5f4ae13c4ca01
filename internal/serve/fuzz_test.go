package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"extdict/internal/mat"
	"extdict/internal/rng"
)

// fuzzRoutes are the requests FuzzMux can make: every /v1 endpoint, plus a
// wrong method and an unknown path, which the mux itself answers.
var fuzzRoutes = []struct{ method, path string }{
	{http.MethodPost, "/v1/encode"},
	{http.MethodPost, "/v1/denoise"},
	{http.MethodPost, "/v1/reloadz"},
	{http.MethodGet, "/v1/healthz"},
	{http.MethodGet, "/v1/statsz"},
	{http.MethodGet, "/v1/encode"},
	{http.MethodPost, "/v1/nope"},
}

// documentedStatus is every status the API answers with: 200; 400 for a
// bad body, signal or matrix; 404 for an unknown dictionary or path; 405
// for a wrong method; 429 for a shed; 500 for a response JSON cannot
// carry; 503 while draining.
var documentedStatus = map[int]bool{
	http.StatusOK: true, http.StatusBadRequest: true, http.StatusNotFound: true,
	http.StatusMethodNotAllowed: true, http.StatusTooManyRequests: true,
	http.StatusInternalServerError: true, http.StatusServiceUnavailable: true,
}

// FuzzMux drives the /v1 API in process with arbitrary routes, queries and
// bodies against a small dictionary. Whatever the input, every answer must
// carry a documented status, every JSON error must name its error, every
// 200 must decode as its endpoint's response, and a served code or
// reconstruction must be finite. After the fuzzed request, a fixed encode
// and denoise run through the same checks, so a reload that was let
// through is held to them too.
func FuzzMux(f *testing.F) {
	f.Add(uint8(0), "", []byte(`{"signal":[1e200,1e200,1e200,1e200]}`))
	f.Add(uint8(1), "", []byte(`{"signal":[1e300,-1e300,1e300,-1e300]}`))
	for _, c := range corruptDicts {
		f.Add(uint8(2), "format=csv", []byte(c.csv))
	}
	f.Add(uint8(2), "format=csv&dict=d", []byte("0.5,1,0\n1,0,1\n0,1,0\n1,0,1\n"))
	f.Add(uint8(0), "", []byte(`{"signal":[0.5,1`))
	f.Add(uint8(1), "", []byte(`{"signal":[1,2,3]}`))
	f.Add(uint8(0), "", []byte(`{"dict":"d","signal":[0,1,0,0]}`))
	f.Add(uint8(4), "", []byte(nil))

	d := unitDictionary(rng.New(3), 4, 10)
	f.Fuzz(func(t *testing.T, route uint8, query string, body []byte) {
		srv, err := New(map[string]*mat.Dense{"d": d.Clone()}, Config{})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		defer srv.Close()
		rt := fuzzRoutes[int(route)%len(fuzzRoutes)]
		checkAnswer(t, srv, rt.method, rt.path, query, body)
		checkAnswer(t, srv, http.MethodPost, "/v1/encode", "", []byte(`{"signal":[0,1,0,0]}`))
		checkAnswer(t, srv, http.MethodPost, "/v1/denoise", "", []byte(`{"signal":[0.5,-1,0.25,2]}`))
	})
}

// checkAnswer serves one request through srv's mux and checks the answer
// against the API's contract.
func checkAnswer(t *testing.T, srv *Server, method, path, query string, body []byte) {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	req.URL.RawQuery = query
	rec := httptest.NewRecorder()
	srv.Mux().ServeHTTP(rec, req)

	status, out := rec.Code, rec.Body.Bytes()
	if !documentedStatus[status] {
		t.Fatalf("%s %s?%s: undocumented status %d: %s", method, path, query, status, out)
	}
	if status != http.StatusOK {
		if rec.Header().Get("Content-Type") == "application/json" {
			var er ErrorResponse
			if err := json.Unmarshal(out, &er); err != nil || er.Error == "" {
				t.Fatalf("%s %s: status %d with an unreadable error body: %q", method, path, status, out)
			}
		}
		return
	}
	decode := func(dst any) {
		if err := json.Unmarshal(out, dst); err != nil {
			t.Fatalf("%s %s: 200 body does not decode: %v: %q", method, path, err, out)
		}
	}
	switch path {
	case "/v1/encode":
		var er EncodeResponse
		decode(&er)
		if len(er.Idx) != len(er.Coef) || !finite(er.Coef) || !finite([]float64{er.Resid2}) {
			t.Fatalf("encode answered 200 with a malformed code: %s", out)
		}
	case "/v1/denoise":
		var dr DenoiseResponse
		decode(&dr)
		if len(dr.Denoised) != 4 || !finite(dr.Denoised) {
			t.Fatalf("denoise answered 200 with a malformed reconstruction: %s", out)
		}
	case "/v1/reloadz":
		decode(&ReloadResponse{})
	case "/v1/healthz":
		decode(&HealthResponse{})
	case "/v1/statsz":
		decode(&Statsz{})
	default:
		t.Fatalf("%s %s answered 200", method, path)
	}
}

// finite reports whether every value is neither NaN nor ±Inf.
func finite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
