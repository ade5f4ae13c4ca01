package lint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"extdict/internal/cluster"
	"extdict/internal/faust"
	"extdict/internal/perf"
)

// TestCapacityGolden pins the static capacity report: the peak-resident
// polynomials derived from the shipped rank entry points, evaluated at the
// documented reference shapes and classified against the default platform's
// per-rank RAM, must match the checked-in artifact byte for byte. Any
// change to an operator's resident set — or to the capacity itself — shows
// up as a diff here (and in scripts/ci.sh, which performs the same
// comparison through the CLI).
func TestCapacityGolden(t *testing.T) {
	prog, _ := loadModuleProgram(t)
	var rows []CapacityRow
	for _, path := range []string{"extdict/internal/dist", "extdict/internal/solver"} {
		if pkg := prog.packageByPath(path); pkg != nil {
			rows = append(rows, Capacity(pkg)...)
		}
	}
	if len(rows) == 0 {
		t.Fatal("no capacity rows derived from the shipped tree")
	}
	report := NewCapacityReport(cluster.NewPlatform(1, 1).MemBytesCapacity(), rows)
	got, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	goldenPath := filepath.Join("testdata", "capacity.golden.json")
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("capacity report drifted from %s; regenerate with\n\tgo run ./cmd/extdict-lint -capacity %s ./...\ngot:\n%s", goldenPath, goldenPath, got)
	}
}

// TestCapacityGoldenVerdicts pins the report's punchline independent of the
// exact byte values: every shipped figure configuration fits in the default
// 2 GiB per rank, and the ROADMAP item 5 shape (5 billion stored
// coefficients over a 100M-column corpus) does not — the static motivation
// for the out-of-core schedule.
func TestCapacityGoldenVerdicts(t *testing.T) {
	prog, _ := loadModuleProgram(t)
	distPkg := prog.packageByPath("extdict/internal/dist")
	if distPkg == nil {
		t.Fatal("dist package not loaded")
	}
	report := NewCapacityReport(cluster.NewPlatform(1, 1).MemBytesCapacity(), Capacity(distPkg))
	if len(report.Entries) == 0 {
		t.Fatal("empty capacity report")
	}
	for _, row := range report.Entries {
		want := "fits"
		if row.Config == "roadmap5-5Bnnz" {
			want = "needs-out-of-core"
		}
		if row.Verdict != want {
			t.Errorf("%s at %s: verdict %q, want %q (%d bytes against %d)",
				row.Func, row.Config, row.Verdict, want, row.BytesPerRank, report.CapacityBytes)
		}
	}
}

// TestCapacityAgreesWithRuntime closes the loop the capacity report stands
// on: the resident-set polynomials derived from ExDGram.applyCase1, with
// the held dictionary hop's footprint bound to each implementation and
// evaluated per rank at a real instance's
// dimensions (guarded terms on rank 0 only), must reproduce the simulator's
// PeakResidentPerRank exactly — so a "fits" verdict is a statement about
// the machine's counters, not an estimate. The allocmodel analyzer proves
// each AddResident claim equals the derived polynomial; this test proves
// the derived polynomials are the runtime high-water marks.
func TestCapacityAgreesWithRuntime(t *testing.T) {
	pkg := distPackage(t)
	tr, plat, insts := case1Instances(t)
	fc := findFunc(t, deriveResident(pkg), "ExDGram.applyCase1")
	shapes := buildShapes(pkg)
	for _, in := range insts {
		st := in.op.Apply(make([]float64, symN), make([]float64, symN))
		if len(st.PeakResidentPerRank) != symP {
			t.Fatalf("runtime reported %d resident ranks, want %d", len(st.PeakResidentPerRank), symP)
		}
		for i := 0; i < symP; i++ {
			// Bind the hop's footprint symbols to the implementation's own
			// derived values, as the capacity report does.
			bind := rankBind(tr, plat, in, i)
			for _, m := range []string{"ResidentWords", "MaxInterDim"} {
				p, ok := returnPoly(pkg, shapes, in.hop, m)
				if !ok {
					t.Fatalf("cannot derive %s.%s", in.hop, m)
				}
				v, ok := evalSym(p, nil, bind)
				if !ok {
					t.Fatalf("cannot evaluate %s.%s = %s under %v", in.hop, m, p.render(), bind)
				}
				bind[m+"(hop)"] = v
			}
			static := sumClaims(t, fc, bind, i)
			if static != st.PeakResidentPerRank[i] {
				t.Fatalf("%s rank %d: static resident set %d bytes, runtime counted %d", in.hop, i, static, st.PeakResidentPerRank[i])
			}
			if static == 0 {
				t.Fatalf("%s rank %d: zero derived resident set", in.hop, i)
			}
		}
	}
}

// TestPerfMemoryAgreesWithCapacityModel pins perf.Estimate.MemoryWordsPerRank
// to the allocmodel polynomials: at a shape where the uniform partition is
// exact, each predictor's words-per-rank, scaled to bytes, must equal the
// corresponding entry point's derived worst-rank resident set (all claim
// regions summed — rank 0 carries the guarded dictionary term). This is the
// regression gate for the Eq. 4 closed forms: a formula drifting from the
// operators' actual allocations fails here, not in a reviewer's head.
func TestPerfMemoryAgreesWithCapacityModel(t *testing.T) {
	distPkg := distPackage(t)
	// The worst rank's resident set: every claim region summed, composed
	// with each held hop exactly as the capacity report composes it.
	derived := make(map[string]poly)
	for _, c := range deriveResident(distPkg) {
		total := symExpr(symConst(0))
		for _, term := range claimTerms(c.terms) {
			total = symAdd{total, term.derived}
		}
		if p, ok := normalize(total, c.subst); ok {
			for fn, vp := range hopVariants(distPkg, buildShapes(distPkg), c.fn, p) {
				derived[fn] = vp
			}
		}
	}
	worst := func(fn string, bind map[string]int64) int64 {
		p, ok := derived[fn]
		if !ok {
			t.Fatalf("no derived resident set for %s", fn)
		}
		v, ok := evalSym(p, nil, bind)
		if !ok {
			t.Fatalf("%s: cannot evaluate %s under %v", fn, p.render(), bind)
		}
		return v
	}

	const M, N, L, NNZ, B, P = 128, 16384, 256, 524288, 64, 4
	plat := cluster.NewPlatform(1, P)
	plan := faust.NewPlan(M, L, 0, 0)
	chain := perf.ChainTerms{
		NNZ:           plan.NNZ(),
		VecWords:      plan.VecWords(),
		ResidentWords: plan.ResidentWords(),
		InterDim:      int64(plan.InterDim()),
	}
	cases := []struct {
		fn    string
		words float64
		bind  map[string]int64
	}{
		{
			fn:    "ExDGram.applyCase1[denseHop]",
			words: perf.PredictTransformed(M, N, L, NNZ, plat).MemoryWordsPerRank,
			bind: map[string]int64{
				"m": M, "l": L,
				"NNZ(blocks[])": NNZ / P,
				"ranges[][0]":   0,
				"ranges[][1]":   N / P,
			},
		},
		{
			fn:    "ExDGram.applyCase1[chainHop]",
			words: perf.PredictFastDict(M, N, L, NNZ, chain, plat).MemoryWordsPerRank,
			bind: map[string]int64{
				"m": M, "l": L,
				"NNZ(blocks[])":     NNZ / P,
				"ranges[][0]":       0,
				"ranges[][1]":       N / P,
				"ResidentWords(fd)": plan.ResidentWords(),
				"MaxInterDim(fd)":   int64(plan.InterDim()),
			},
		},
		{
			fn:    "DenseGram.Apply#1",
			words: perf.PredictDense(M, N, plat).MemoryWordsPerRank,
			bind: map[string]int64{
				"m":           M,
				"ranges[][0]": 0,
				"ranges[][1]": N / P,
			},
		},
		{
			fn:    "BatchGram.Apply#1",
			words: perf.PredictSGD(M, N, B, plat).MemoryWordsPerRank,
			bind:  map[string]int64{"a.Rows": M, "n": N, "B": B},
		},
	}
	for _, tc := range cases {
		static := worst(tc.fn, tc.bind)
		if got := int64(tc.words) * 8; got != static {
			t.Errorf("%s: perf predicts %d resident bytes per rank, capacity model derives %d", tc.fn, got, static)
		}
	}
}
