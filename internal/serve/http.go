package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"extdict/internal/mat"
	"extdict/internal/matio"
)

// maxBodyBytes bounds request bodies: signals are M floats (a few KB), and
// reloadz matrices at paper scale stay well under this.
const maxBodyBytes = 256 << 20

// EncodeRequest is the body of POST /v1/encode and POST /v1/denoise. Dict
// may be empty when exactly one dictionary is served.
type EncodeRequest struct {
	Dict   string    `json:"dict,omitempty"`
	Signal []float64 `json:"signal"`
}

// EncodeResponse is the 200 body of POST /v1/encode: the sparse code of
// the signal against the snapshot that coded it, plus the size of the
// coalesced panel the request rode in.
type EncodeResponse struct {
	Dict   string    `json:"dict"`
	Epoch  uint64    `json:"epoch"`
	Batch  int       `json:"batch"`
	Idx    []int     `json:"idx"`
	Coef   []float64 `json:"coef"`
	Resid2 float64   `json:"resid2"`
	Iters  int       `json:"iters"`
}

// DenoiseResponse is the 200 body of POST /v1/denoise: the reconstruction
// D·γ of the signal's sparse code.
type DenoiseResponse struct {
	Dict     string    `json:"dict"`
	Epoch    uint64    `json:"epoch"`
	Batch    int       `json:"batch"`
	Denoised []float64 `json:"denoised"`
	Resid2   float64   `json:"resid2"`
	Iters    int       `json:"iters"`
}

// ErrorResponse is the body of every non-200 answer. ModeledMS carries the
// admission controller's predicted latency on 429 sheds so clients can
// back off proportionally.
type ErrorResponse struct {
	Error     string  `json:"error"`
	ModeledMS float64 `json:"modeled_ms,omitempty"`
}

// ReloadResponse is the 200 body of POST /v1/reloadz.
type ReloadResponse struct {
	Dict  string `json:"dict"`
	Epoch uint64 `json:"epoch"`
	Rows  int    `json:"rows"`
	Cols  int    `json:"cols"`
}

// HealthResponse is the GET /v1/healthz body.
type HealthResponse struct {
	Status string   `json:"status"`
	Dicts  []string `json:"dicts"`
}

// ShardStats is one dictionary's entry in the statsz report.
type ShardStats struct {
	Rows           int     `json:"rows"`
	Cols           int     `json:"cols"`
	Epoch          uint64  `json:"epoch"`
	Accepted       int64   `json:"accepted"`
	ShedLatency    int64   `json:"shed_latency"`
	ShedQueue      int64   `json:"shed_queue"`
	RejectedClosed int64   `json:"rejected_closed"`
	Batches        int64   `json:"batches"`
	Encoded        int64   `json:"encoded"`
	InFlight       int64   `json:"in_flight"`
	DepthPeak      int64   `json:"depth_peak"`
	BatchHist      []int64 `json:"batch_hist"` // BatchHist[b-1] = panels of b columns
}

// Statsz is the GET /v1/statsz body: per-shard serving counters plus the
// shared kernel pool's budget accounting.
type Statsz struct {
	Dicts           map[string]ShardStats `json:"dicts"`
	PoolBudget      int                   `json:"pool_budget"`
	PoolPeak        int                   `json:"pool_peak"`
	BatchWindowMS   float64               `json:"batch_window_ms"`
	BatchMax        int                   `json:"batch_max"`
	QueueCap        int                   `json:"queue_cap"`
	LatencyBudgetMS float64               `json:"latency_budget_ms"`
}

// routes builds the server's mux.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/encode", func(w http.ResponseWriter, r *http.Request) {
		s.handleCode(w, r, kindEncode)
	})
	mux.HandleFunc("POST /v1/denoise", func(w http.ResponseWriter, r *http.Request) {
		s.handleCode(w, r, kindDenoise)
	})
	mux.HandleFunc("POST /v1/reloadz", s.handleReload)
	mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/statsz", s.handleStats)
	return mux
}

// Mux returns the HTTP handler serving the /v1 API.
func (s *Server) Mux() http.Handler { return s.mux }

// handleCode is the shared encode/denoise path: decode, validate, admit,
// wait for the batcher, respond.
func (s *Server) handleCode(w http.ResponseWriter, r *http.Request, kind reqKind) {
	var in EncodeRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(&in); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error(), 0)
		return
	}
	sh, err := s.shardFor(in.Dict)
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error(), 0)
		return
	}
	if len(in.Signal) != sh.rows {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("serve: signal has %d entries, dictionary %q wants %d", len(in.Signal), sh.name, sh.rows), 0)
		return
	}
	// Non-finite entries cannot arrive: JSON has no NaN/Inf tokens and the
	// decoder rejects out-of-range numbers, so decode success implies a
	// finite signal. Arithmetic on it can still overflow (‖a‖² of entries
	// near 1e200 is +Inf); writeJSON answers such a result with a 500.

	req := &request{kind: kind, signal: in.Signal, done: make(chan struct{})}
	modeled, err := sh.submit(req)
	if err != nil {
		status := http.StatusTooManyRequests
		if errors.Is(err, ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, err.Error(), modeled*1e3)
		return
	}
	<-req.done

	if kind == kindDenoise {
		writeJSON(w, http.StatusOK, DenoiseResponse{
			Dict: sh.name, Epoch: req.epoch, Batch: req.batch,
			Denoised: req.denoised, Resid2: req.res.Resid2, Iters: req.res.Iters,
		})
		return
	}
	writeJSON(w, http.StatusOK, EncodeResponse{
		Dict: sh.name, Epoch: req.epoch, Batch: req.batch,
		Idx: req.res.Idx, Coef: req.res.Coef, Resid2: req.res.Resid2, Iters: req.res.Iters,
	})
}

// handleReload hot-swaps a dictionary from the request body: a CSV or EDM
// binary matrix (query parameter format=csv|edm), columns normalized
// before publication.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("dict")
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var d *mat.Dense
	var err error
	switch format := r.URL.Query().Get("format"); format {
	case "csv":
		d, err = matio.ReadCSV(body)
	case "", "edm":
		d, err = matio.ReadBinary(body)
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("serve: unknown matrix format %q (want csv or edm)", format), 0)
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad matrix body: "+err.Error(), 0)
		return
	}
	d.NormalizeColumns()
	epoch, err := s.Swap(name, d)
	if err != nil {
		status := http.StatusBadRequest
		if _, lookupErr := s.shardFor(name); lookupErr != nil {
			status = http.StatusNotFound
		}
		writeError(w, status, err.Error(), 0)
		return
	}
	writeJSON(w, http.StatusOK, ReloadResponse{Dict: name, Epoch: epoch, Rows: d.Rows, Cols: d.Cols})
}

// handleHealth reports liveness and the served dictionary names.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok", Dicts: s.names})
}

// handleStats renders the serving counters. Shards iterate in sorted-name
// order so the report is stable.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// Stats assembles the statsz report from the shards' atomic counters.
func (s *Server) Stats() Statsz {
	out := Statsz{
		Dicts:           make(map[string]ShardStats, len(s.names)),
		PoolBudget:      mat.PoolBudget(),
		PoolPeak:        mat.PoolPeakWorkers(),
		BatchWindowMS:   float64(s.cfg.BatchWindow.Nanoseconds()) / 1e6,
		BatchMax:        s.cfg.BatchMax,
		QueueCap:        s.cfg.QueueCap,
		LatencyBudgetMS: float64(s.cfg.LatencyBudget.Nanoseconds()) / 1e6,
	}
	for _, name := range s.names {
		sh := s.shards[name]
		snap := sh.snap.Load()
		st := ShardStats{
			Rows:           sh.rows,
			Cols:           snap.dict.Cols,
			Epoch:          snap.epoch,
			Accepted:       sh.stats.accepted.Load(),
			ShedLatency:    sh.stats.shedLatency.Load(),
			ShedQueue:      sh.stats.shedQueue.Load(),
			RejectedClosed: sh.stats.rejected.Load(),
			Batches:        sh.stats.batches.Load(),
			Encoded:        sh.stats.encoded.Load(),
			InFlight:       sh.inflight.Load(),
			DepthPeak:      sh.stats.depthPeak.Load(),
			BatchHist:      make([]int64, len(sh.stats.hist)),
		}
		for i := range sh.stats.hist {
			st.BatchHist[i] = sh.stats.hist[i].Load()
		}
		out.Dicts[name] = st
	}
	return out
}

// writeJSON renders v with the given status. v is marshalled before the
// status goes out, so a value JSON cannot represent — a +Inf residual from
// a finite but huge signal — becomes a 500 with an ErrorResponse, never a
// 200 with an empty body. A write error means the client hung up
// mid-response; there is no one left to tell.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = json.Marshal(ErrorResponse{Error: "serve: response is not representable as JSON: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(body, '\n'))
}

// writeError renders the error body; modeledMS > 0 adds the admission
// controller's latency prediction.
func writeError(w http.ResponseWriter, status int, msg string, modeledMS float64) {
	writeJSON(w, status, ErrorResponse{Error: msg, ModeledMS: modeledMS})
}
