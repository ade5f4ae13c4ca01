package serve

import (
	"math"
	"sync"
	"testing"
	"time"

	"extdict/internal/cluster"
	"extdict/internal/cluster/clustertest"
	"extdict/internal/mat"
	"extdict/internal/omp"
	"extdict/internal/rng"
)

// newIdleShard builds a shard whose batcher has not started, so submits
// only fill its queue. Panel composition is then a pure function of what
// was queued when startBatcher runs.
func newIdleShard(d *mat.Dense, cfg Config) *shard {
	cfg = cfg.withDefaults()
	return newShard("d", d, &cfg)
}

// startBatcher starts the shard's batcher now; see startBatcherLater.
func startBatcher(t *testing.T, sh *shard) { startBatcherLater(t, sh)() }

// startBatcherLater launches the shard's batcher parked behind a gate and
// returns the function that opens it. A cleanup opens the gate if the test
// did not, drains the shard and waits for the batcher to exit, so a test
// that fails early never leaves a handler waiting on an uncoded request.
func startBatcherLater(t *testing.T, sh *shard) (start func()) {
	t.Helper()
	gate, done := make(chan struct{}), make(chan struct{})
	var once sync.Once
	start = func() { once.Do(func() { close(gate) }) }
	go func() {
		defer close(done)
		<-gate
		sh.run()
	}()
	t.Cleanup(func() {
		start()
		sh.close()
		clustertest.Watchdog(t, func() { <-done })
	})
	return start
}

// submitN submits n fresh requests built from the signal stream and returns
// them. Every submit must be accepted.
func submitN(t *testing.T, sh *shard, r *rng.RNG, n int) []*request {
	t.Helper()
	reqs := make([]*request, n)
	for i := range reqs {
		reqs[i] = &request{kind: kindEncode, signal: randSignal(r, sh.rows), done: make(chan struct{})}
		if _, err := sh.submit(reqs[i]); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	return reqs
}

// awaitAll waits, under the watchdog, until every request is answered.
func awaitAll(t *testing.T, reqs []*request) {
	t.Helper()
	clustertest.Watchdog(t, func() {
		for _, req := range reqs {
			<-req.done
		}
	})
}

// TestBatcherMatchesSerialUnderSeededArrivals is the core batching
// property. A seeded number of requests n is queued before the batcher
// starts, so the work-conserving batcher must code exactly ⌊n/BatchMax⌋
// full panels and one panel of n mod BatchMax, in submission order. Every
// coded request must be bit-identical to coding its signal alone, and every
// accepted request must be answered.
func TestBatcherMatchesSerialUnderSeededArrivals(t *testing.T) {
	const batchMax = 4
	r := rng.New(101)
	d := unitDictionary(r, 16, 48)
	ref := omp.NewBatchCoder(d)
	ws := &omp.Workspace{}

	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(5*batchMax)
		sh := newIdleShard(d, Config{BatchMax: batchMax, QueueCap: 64, Tol: 0.05, Workers: 2})
		all := submitN(t, sh, r, n)
		startBatcher(t, sh)
		awaitAll(t, all)

		wantHist := make([]int64, batchMax)
		wantHist[batchMax-1] = int64(n / batchMax)
		if rem := n % batchMax; rem > 0 {
			wantHist[rem-1] = 1
		}
		for b1 := range wantHist {
			if got := sh.stats.hist[b1].Load(); got != wantHist[b1] {
				t.Fatalf("trial %d (n=%d): %d panels of %d columns, want %d", trial, n, got, b1+1, wantHist[b1])
			}
		}
		for i, req := range all {
			wantBatch := batchMax
			if i >= n/batchMax*batchMax {
				wantBatch = n % batchMax
			}
			if req.batch != wantBatch {
				t.Fatalf("trial %d: request %d rode a panel of %d columns, want %d", trial, i, req.batch, wantBatch)
			}
			want := ref.Encode(req.signal, 0.05, 0, ws)
			if req.res.Iters != want.Iters || len(req.res.Idx) != len(want.Idx) ||
				math.Float64bits(req.res.Resid2) != math.Float64bits(want.Resid2) {
				t.Fatalf("trial %d: request %d differs from serial encode", trial, i)
			}
			for k := range want.Idx {
				if req.res.Idx[k] != want.Idx[k] ||
					math.Float64bits(req.res.Coef[k]) != math.Float64bits(want.Coef[k]) {
					t.Fatalf("trial %d: request %d coef/idx differ from serial encode", trial, i)
				}
			}
		}
		if got := sh.inflight.Load(); got != 0 {
			t.Fatalf("trial %d: %d requests still in flight after completion", trial, got)
		}
		if got := sh.stats.encoded.Load(); got != int64(n) {
			t.Fatalf("trial %d: encoded %d, want %d", trial, got, n)
		}
	}
}

// TestBatcherFullPanelWithoutWindow proves that a queue of exactly
// BatchMax requests codes as one full panel, with no remainder panel and
// nothing to wait for.
func TestBatcherFullPanelWithoutWindow(t *testing.T) {
	r := rng.New(55)
	d := unitDictionary(r, 8, 24)
	sh := newIdleShard(d, Config{BatchMax: 4, QueueCap: 64})
	reqs := submitN(t, sh, r, 4)
	startBatcher(t, sh)
	awaitAll(t, reqs)
	for _, req := range reqs {
		if req.batch != 4 {
			t.Fatalf("batch %d, want the full panel of 4", req.batch)
		}
	}
	if got := sh.stats.batches.Load(); got != 1 {
		t.Fatalf("%d panels coded, want 1", got)
	}
}

// TestLoneRequestCodesAtOnce proves the batcher is work-conserving: one
// request on an idle, running shard is coded by itself, without waiting for
// batch-mates that never come.
func TestLoneRequestCodesAtOnce(t *testing.T) {
	r := rng.New(61)
	d := unitDictionary(r, 8, 24)
	sh := newIdleShard(d, Config{BatchMax: 32, QueueCap: 64})
	startBatcher(t, sh)
	reqs := submitN(t, sh, r, 1)
	awaitAll(t, reqs)
	if reqs[0].batch != 1 {
		t.Fatalf("lone request rode a panel of %d, want 1", reqs[0].batch)
	}
}

// TestAdmissionTraceReplays proves admission is a pure function of the
// submit sequence: two fresh shards driven with the same seeded signals
// produce bitwise-identical accept/shed decisions and modeled latencies.
func TestAdmissionTraceReplays(t *testing.T) {
	const n = 40
	d := unitDictionary(rng.New(5), 16, 48)
	plat := cluster.NewPlatform(1, 4)
	// A budget that the model itself crosses at depth 21, so the trace has a
	// real accept→shed transition whatever the platform constants are.
	budget := time.Duration(ModeledLatency(d.Rows, d.Cols, 20, n, 0, plat) * float64(time.Second))

	type decision struct {
		modeledBits uint64
		err         error
	}
	drive := func() []decision {
		// No batcher runs, so the queue depth during the submit run is
		// exactly the accepted count — deterministic.
		sh := newIdleShard(d, Config{
			BatchMax: n, QueueCap: n, LatencyBudget: budget, Platform: plat,
		})
		r := rng.New(77)
		trace := make([]decision, n)
		for i := range trace {
			req := &request{kind: kindEncode, signal: randSignal(r, sh.rows), done: make(chan struct{})}
			m, err := sh.submit(req)
			trace[i] = decision{modeledBits: math.Float64bits(m), err: err}
		}
		return trace
	}

	a, b := drive(), drive()
	accepted, shed := 0, 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs between replays: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].err != nil {
			shed++
		} else {
			accepted++
		}
	}
	if accepted == 0 || shed == 0 {
		t.Fatalf("schedule should mix accepts and sheds: %d accepted, %d shed", accepted, shed)
	}
}

// TestQueueCapSheds proves the queue bound: with no batcher draining the
// channel, exactly QueueCap submits are accepted and the rest shed with
// ErrShedQueue — a deterministic count.
func TestQueueCapSheds(t *testing.T) {
	const qcap = 4
	r := rng.New(23)
	d := unitDictionary(r, 8, 24)
	sh := newIdleShard(d, Config{QueueCap: qcap})

	shed := 0
	for i := 0; i < 3*qcap; i++ {
		req := &request{kind: kindEncode, signal: randSignal(r, sh.rows), done: make(chan struct{})}
		if _, err := sh.submit(req); err == ErrShedQueue {
			shed++
		} else if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if shed != 2*qcap {
		t.Fatalf("shed %d submits, want exactly %d", shed, 2*qcap)
	}
	if got := sh.stats.shedQueue.Load(); got != int64(shed) {
		t.Fatalf("shedQueue counter %d, want %d", got, shed)
	}
}

// TestDrainCompletesAcceptedRequests proves the no-drop guarantee: a shard
// closed before its batcher ever ran still codes every accepted request,
// while later submits fail with ErrClosed.
func TestDrainCompletesAcceptedRequests(t *testing.T) {
	r := rng.New(31)
	d := unitDictionary(r, 8, 24)
	sh := newIdleShard(d, Config{BatchMax: 16, QueueCap: 64})

	reqs := submitN(t, sh, r, 5)
	sh.close()
	startBatcher(t, sh)
	awaitAll(t, reqs)
	for i, req := range reqs {
		if len(req.res.Idx) == 0 && req.res.Iters == 0 {
			t.Fatalf("request %d drained without being coded", i)
		}
		if req.batch != 5 {
			t.Fatalf("request %d rode a panel of %d, want the 5 queued", i, req.batch)
		}
	}
	late := &request{kind: kindEncode, signal: randSignal(r, sh.rows), done: make(chan struct{})}
	if _, err := sh.submit(late); err != ErrClosed {
		t.Fatalf("post-drain submit: %v, want ErrClosed", err)
	}
}
