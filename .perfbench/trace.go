package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one recorded call from the benchmark into a layer.
type span struct {
	layer, name string
	start, end  time.Duration
	// parent is the index of the enclosing span, or -1.
	parent int
	// req tags spans that belong to one served request (0 = none).
	req int64
}

// tracer keeps spans in memory for the run. A disabled tracer records
// nothing, and its begin/end cost one branch.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span and returns its handle (-1 when tracing is off).
func (t *tracer) begin(layer, name string, parent int, req int64) int {
	if !t.on {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{layer: layer, name: name, start: now, end: -1, parent: parent, req: req})
	return len(t.spans) - 1
}

// end closes the span opened by begin.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// durations returns the seconds of every closed span with this layer and
// name, in recording order.
func (t *tracer) durations(layer, name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.layer == layer && s.name == name && s.end >= 0 {
			out = append(out, (s.end - s.start).Seconds())
		}
	}
	return out
}

// byReq returns the duration in seconds of each closed span with this
// layer and name, keyed by request tag.
func (t *tracer) byReq(layer, name string) map[int64]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[int64]float64{}
	for _, s := range t.spans {
		if s.layer == layer && s.name == name && s.end >= 0 {
			out[s.req] = (s.end - s.start).Seconds()
		}
	}
	return out
}

// overheadFrac estimates the share of the run the tracer itself cost: the
// measured price of one begin/end pair times the number of spans, over
// the run's wall time.
func (t *tracer) overheadFrac() float64 {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	n := len(t.spans)
	t.mu.Unlock()
	wall := time.Since(t.t0)
	probe := &tracer{on: true, t0: time.Now()}
	const pairs = 20000
	probe.spans = make([]span, 0, pairs)
	start := time.Now()
	for i := 0; i < pairs; i++ {
		probe.end(probe.begin("probe", "probe", -1, 0))
	}
	perPair := time.Since(start) / pairs
	return float64(perPair) * float64(n) / float64(wall)
}

// memWatch samples the live heap, with GC left on, for the whole run.
// The Go runtime publishes the heap marked live by the last collection;
// the watch keeps the largest value it sees. A transient that lives
// between two collections is missed, so the figure varies from run to run.
type memWatch struct {
	stopc    chan struct{}
	done     chan struct{}
	peakLive uint64
}

const (
	liveHeapMetric = "/gc/heap/live:bytes"
	allocMetric    = "/gc/heap/allocs:bytes"
	gcMetric       = "/gc/cycles/total:gc-cycles"
)

func startMemWatch() *memWatch {
	w := &memWatch{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		sample := []metrics.Sample{{Name: liveHeapMetric}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			w.peakLive = max(w.peakLive, sample[0].Value.Uint64())
			select {
			case <-w.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// stop ends sampling and waits for the sampler to exit; peakLive is final
// afterwards.
func (w *memWatch) stop() {
	select {
	case <-w.stopc:
	default:
		close(w.stopc)
	}
	<-w.done
}

// allocCounters reads the cumulative bytes allocated and GC cycles.
func allocCounters() (bytes, cycles uint64) {
	s := []metrics.Sample{{Name: allocMetric}, {Name: gcMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// phase measures the allocation counters across a measured phase.
type phase struct{ bytes, cycles uint64 }

func startPhase() phase {
	b, c := allocCounters()
	return phase{b, c}
}

// end records the phase's allocation and GC counts as per-layer metrics,
// then collects and records the live heap as heap_live_mb. Callers end the
// phase while they still hold their inputs, models and server.
func (p phase) end(r *report) {
	b, c := allocCounters()
	r.layer["alloc_mb"] = float64(b-p.bytes) / 1e6
	r.layer["gc_cycles"] = float64(c - p.cycles)
	runtime.GC()
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	r.e2e["heap_live_mb"] = float64(s[0].Value.Uint64()) / 1e6
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// timeIt runs f reps times and returns the median seconds per call.
func timeIt(reps int, f func()) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		start := time.Now()
		f()
		ts[i] = time.Since(start).Seconds()
	}
	return median(ts)
}
