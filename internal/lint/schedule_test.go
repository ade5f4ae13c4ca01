package lint

import (
	"encoding/json"
	"os"
	"strconv"
	"sync"
	"testing"

	"extdict/internal/cluster"
	"extdict/internal/dataset"
	"extdict/internal/dist"
	"extdict/internal/exd"
	"extdict/internal/mat"
	"extdict/internal/rng"
)

// moduleProg loads the whole module once per test binary: the program build
// (parse + type-check of every package) dominates these tests' cost.
var moduleProg struct {
	sync.Once
	prog *Program
	pkgs []*Package
	err  error
}

func loadModuleProgram(t *testing.T) (*Program, []*Package) {
	t.Helper()
	moduleProg.Do(func() {
		root, module, err := ModuleRoot(".")
		if err != nil {
			moduleProg.err = err
			return
		}
		pkgs, err := Load(root, module, []string{"./..."})
		if err != nil {
			moduleProg.err = err
			return
		}
		moduleProg.pkgs = pkgs
		moduleProg.prog = NewProgram(pkgs)
	})
	if moduleProg.err != nil {
		t.Fatal(moduleProg.err)
	}
	return moduleProg.prog, moduleProg.pkgs
}

// moduleTraces collects the static schedule of every package, sorted the
// way cmd/extdict-lint -trace emits it.
func moduleTraces(t *testing.T) []OpTrace {
	t.Helper()
	prog, pkgs := loadModuleProgram(t)
	var traces []OpTrace
	for _, pkg := range pkgs {
		traces = append(traces, Traces(prog, pkg)...)
	}
	return traces
}

// TestStaticTraceGolden pins the static collective schedule of every shipped
// rank operator to the checked-in golden file; an operator whose schedule
// drifts must update the golden deliberately.
func TestStaticTraceGolden(t *testing.T) {
	traces := moduleTraces(t)
	got, err := json.MarshalIndent(traces, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	want, err := os.ReadFile(fixturePath("schedule.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("static schedule drifted from the golden file.\nRegenerate with:\n  go run ./cmd/extdict-lint -checks schedule -trace internal/lint/testdata/schedule.golden.json ./...\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func genMatrix(t *testing.T, m, n int, seed uint64) *mat.Dense {
	t.Helper()
	u, err := dataset.GenerateUnion(dataset.UnionParams{M: m, N: n, Ks: []int{3, 4}}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return u.A
}

func fitTransform(t *testing.T, a *mat.Dense, l int) *exd.Transform {
	t.Helper()
	tr, err := exd.Fit(a, exd.Params{L: l, Epsilon: 0.05, Seed: 7, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestStaticTraceMatchesRuntime executes every exported dist operator with
// runtime tracing on and checks the recorded schedule is exactly the static
// trace with its symbolic sizes bound to the instance's dimensions — the
// end-to-end proof that the abstract interpretation models the machine.
func TestStaticTraceMatchesRuntime(t *testing.T) {
	static := make(map[string]OpTrace)
	for _, tr := range moduleTraces(t) {
		static[tr.Func] = tr
	}

	newComm := func() *cluster.Comm {
		c := cluster.NewComm(cluster.NewPlatform(1, 4))
		c.EnableTrace()
		// Arm an empty fault plan: the injection hooks must be perfectly
		// transparent to the collective schedule, so the runtime trace still
		// has to match the static one word for word.
		c.InstallFaultPlan(&cluster.FaultPlan{})
		return c
	}

	cases := []struct {
		fn   string
		bind map[string]int
		run  func(t *testing.T) cluster.Stats
	}{
		{
			fn:   "DenseGram.Apply#1",
			bind: map[string]int{"m": 24},
			run: func(t *testing.T) cluster.Stats {
				a := genMatrix(t, 24, 90, 1)
				g := dist.NewDenseGram(newComm(), a)
				return g.Apply(make([]float64, 90), make([]float64, 90))
			},
		},
		{
			// Case 1 (L=20 ≤ M=30) runs the second rank literal.
			fn:   "ExDGram.Apply#2",
			bind: map[string]int{"m": 30, "l": 20},
			run: func(t *testing.T) cluster.Stats {
				a := genMatrix(t, 30, 80, 3)
				tr := fitTransform(t, a, 20)
				g, err := dist.NewExDGram(newComm(), tr.D, tr.C)
				if err != nil {
					t.Fatal(err)
				}
				return g.Apply(make([]float64, 80), make([]float64, 80))
			},
		},
		{
			// Case 2 (L=80 > M=30) runs the first rank literal.
			fn:   "ExDGram.Apply#1",
			bind: map[string]int{"m": 30, "l": 80},
			run: func(t *testing.T) cluster.Stats {
				a := genMatrix(t, 30, 120, 3)
				tr := fitTransform(t, a, 80)
				g, err := dist.NewExDGram(newComm(), tr.D, tr.C)
				if err != nil {
					t.Fatal(err)
				}
				return g.Apply(make([]float64, 120), make([]float64, 120))
			},
		},
		{
			fn:   "BatchGram.Apply#1",
			bind: map[string]int{"len(batch)": 8},
			run: func(t *testing.T) cluster.Stats {
				a := genMatrix(t, 40, 100, 12)
				g := dist.NewBatchGram(newComm(), a, 8, 99)
				return g.Apply(make([]float64, 100), make([]float64, 100))
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.fn, func(t *testing.T) {
			want, ok := static[tc.fn]
			if !ok {
				t.Fatalf("no static trace for %s; have %v", tc.fn, static)
			}
			got := tc.run(t).Trace
			if len(got) != len(want.Ops) {
				t.Fatalf("runtime trace has %d phases, static has %d: %v vs %v", len(got), len(want.Ops), got, want.Ops)
			}
			for i, op := range want.Ops {
				rt := got[i]
				if op.Op != rt.Op {
					t.Errorf("phase %d: static %s, runtime %s", i, op.Op, rt.Op)
				}
				root, err := strconv.Atoi(op.Root)
				if err != nil {
					t.Fatalf("phase %d: static root %q is not constant", i, op.Root)
				}
				if root != rt.Root {
					t.Errorf("phase %d: static root %d, runtime %d", i, root, rt.Root)
				}
				size, ok := tc.bind[op.Size]
				if !ok {
					if size, err = strconv.Atoi(op.Size); err != nil {
						t.Fatalf("phase %d: static size %q has no binding", i, op.Size)
					}
				}
				if size != rt.Words {
					t.Errorf("phase %d: static size %s=%d, runtime %d words", i, op.Size, size, rt.Words)
				}
			}
		})
	}
}
