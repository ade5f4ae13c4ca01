package lint

import "testing"

// Each analyzer is proven to fire (and to stay quiet) on its testdata
// fixtures, run under the import path named in the fixture's package doc.

func TestNoRandFixture(t *testing.T) {
	runFixture(t, NoRand, fixturePath("norand", "bad.go"), "extdict/internal/solver")
	runFixture(t, NoRand, fixturePath("norand", "allowed.go"), "extdict/internal/rng")
}

func TestNoClockFixture(t *testing.T) {
	runFixture(t, NoClock, fixturePath("noclock", "bad.go"), "extdict/internal/solver")
	runFixture(t, NoClock, fixturePath("noclock", "allowed.go"), "extdict/internal/perf")
	// Aliased imports and uncalled references need the type-aware layer.
	runFixture(t, NoClock, fixturePath("noclock", "aliased.go"), "extdict/internal/solver")
}

func TestGoroutinesFixture(t *testing.T) {
	runFixture(t, Goroutines, fixturePath("goroutines", "bad.go"), "extdict/internal/dist")
	runFixture(t, Goroutines, fixturePath("goroutines", "allowed.go"), "extdict/internal/mat")
	// serve owns the batcher and accept-loop goroutines.
	runFixture(t, Goroutines, fixturePath("goroutines", "allowed.go"), "extdict/internal/serve")
}

func TestCollectiveFixture(t *testing.T) {
	runFixture(t, Collective, fixturePath("collective", "bad.go"), "extdict/internal/dist")
	runFixture(t, Collective, fixturePath("collective", "allowed.go"), "extdict/internal/dist")
	runFixture(t, Collective, fixturePath("collective", "interproc.go"), "extdict/internal/dist")
}

func TestScheduleFixture(t *testing.T) {
	runFixture(t, Schedule, fixturePath("schedule", "fixture.go"), "extdict/internal/dist")
	// Outside dist/solver no schedule is demanded.
	runFixtureExpectNone(t, Schedule, fixturePath("schedule", "fixture.go"), "extdict/internal/experiments")
}

func TestHotAllocFixture(t *testing.T) {
	runFixture(t, HotAlloc, fixturePath("hotalloc", "bad.go"), "extdict/internal/solver")
	// Outside dist/solver/omp the check does not apply.
	runFixtureExpectNone(t, HotAlloc, fixturePath("hotalloc", "bad.go"), "extdict/internal/experiments")
}

func TestHotAllocOmpFixture(t *testing.T) {
	runFixture(t, HotAlloc, fixturePath("hotalloc", "omp.go"), "extdict/internal/omp")
	runFixtureExpectNone(t, HotAlloc, fixturePath("hotalloc", "omp.go"), "extdict/internal/experiments")
}

func TestErrCheckFixture(t *testing.T) {
	runFixture(t, ErrCheck, fixturePath("errcheck", "fixture.go"), "extdict/internal/experiments")
}

func TestPanicMsgFixture(t *testing.T) {
	runFixture(t, PanicMsg, fixturePath("panicmsg", "fixture.go"), "extdict/internal/imgproc")
}

func TestNoFloatEqFixture(t *testing.T) {
	runFixture(t, NoFloatEq, fixturePath("nofloateq", "fixture.go"), "extdict/internal/solver")
}

func TestExportedDocFixture(t *testing.T) {
	runFixture(t, ExportedDoc, fixturePath("exporteddoc", "fixture.go"), "extdict/internal/fixture")
	// Outside internal/ the check does not apply.
	runFixtureExpectNone(t, ExportedDoc, fixturePath("exporteddoc", "fixture.go"), "extdict/cmd/fixture")
}

func TestSuppressionFixture(t *testing.T) {
	runFixture(t, NoFloatEq, fixturePath("directive", "fixture.go"), "extdict/internal/solver")
}

func TestSharedStateFixture(t *testing.T) {
	runFixture(t, SharedState, fixturePath("sharedstate", "fixture.go"), "extdict/internal/mat")
	// The serving layer's sharing shapes: snapshot pointers, request
	// hand-off with a done barrier, and the drain protocol.
	runFixture(t, SharedState, fixturePath("sharedstate", "serve.go"), "extdict/internal/serve")
}

func TestLockOrderFixture(t *testing.T) {
	runFixture(t, LockOrder, fixturePath("lockorder", "fixture.go"), "extdict/internal/mat")
}

func TestDetOrderFixture(t *testing.T) {
	runFixture(t, DetOrder, fixturePath("detorder", "fixture.go"), "extdict/internal/mat/fixture")
	// Outside the result-affecting packages the same file is not audited,
	// and the clustertest scaffolding is excluded by name.
	runFixtureExpectNone(t, DetOrder, fixturePath("detorder", "fixture.go"), "extdict/internal/solver")
	runFixtureExpectNone(t, DetOrder, fixturePath("detorder", "fixture.go"), "extdict/internal/cluster/clustertest")
}
