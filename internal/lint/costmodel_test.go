package lint

import (
	"testing"

	"extdict/internal/cluster"
	"extdict/internal/dist"
	"extdict/internal/exd"
	"extdict/internal/faust"
)

// The symbolic tests share one Case 1 instance — M=30, L=20, N=80 on four
// ranks, the instance of dist's TestExDGramFlopAccounting — built once per
// dictionary hop, and evaluate the composed applyCase1 terms against the
// runtime counters of a real Apply.
const symM, symL, symN, symP = 30, 20, 80, 4

// hopInstance is the shared instance over one dictionary hop: the operator,
// the bindings of the hop's own symbols, and the flops and bytes one
// dictionary step costs.
type hopInstance struct {
	hop       string // implementation type, "denseHop" or "chainHop"
	op        *dist.ExDGram
	bind      map[string]int64
	stepFlops int64
	stepBytes int64
}

// case1Instances builds the shared instance over the dense dictionary and
// over a factor chain of it.
func case1Instances(t *testing.T) (*exd.Transform, cluster.Platform, []hopInstance) {
	t.Helper()
	tr := fitTransform(t, genMatrix(t, symM, symN, 10), symL)
	plat := cluster.NewPlatform(1, symP)
	dense, err := dist.NewExDGram(cluster.NewComm(plat), tr.D, tr.C)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := faust.Factorize(tr.D, faust.Options{Factors: 3, Budget: 6 * symL, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	chain, err := dist.NewFastGram(cluster.NewComm(plat), fd, tr.C)
	if err != nil {
		t.Fatal(err)
	}
	return tr, plat, []hopInstance{
		{
			hop: "denseHop", op: dense,
			stepFlops: 2 * symM * symL,
			stepBytes: 8 * (symM*symL + symM + symL),
		},
		{
			hop: "chainHop", op: chain,
			bind: map[string]int64{
				"NNZ(fd)":           fd.NNZ(),
				"VecWords(fd)":      fd.VecWords(),
				"ResidentWords(fd)": fd.ResidentWords(),
				"MaxInterDim(fd)":   int64(fd.MaxInterDim()),
			},
			stepFlops: 2 * fd.NNZ(),
			stepBytes: 16*fd.NNZ() + 8*fd.VecWords(),
		},
	}
}

// rankBind binds the instance's symbols for rank i: the shape, the rank's
// column window and sparse population, and the hop's own symbols.
func rankBind(tr *exd.Transform, plat cluster.Platform, in hopInstance, i int) map[string]int64 {
	ranges := dist.WeightedBlockRanges(symN, plat.RankSpeeds())
	bind := map[string]int64{
		"m": symM, "l": symL,
		"NNZ(blocks[])": int64(tr.C.ColSliceRange(ranges[i][0], ranges[i][1]).NNZ()),
		"ranges[][0]":   int64(ranges[i][0]),
		"ranges[][1]":   int64(ranges[i][1]),
	}
	for k, v := range in.bind {
		bind[k] = v
	}
	return bind
}

// findFunc finds one rank function among the package's derived functions.
func findFunc(t *testing.T, derived []funcCost, fn string) funcCost {
	t.Helper()
	for _, c := range derived {
		if c.fn == fn {
			return c
		}
	}
	t.Fatalf("no derived terms for %s", fn)
	return funcCost{}
}

// case1Claims evaluates one rank's share of a Case 1 Apply over the given
// hop: the claim terms of ExDGram.applyCase1 plus, on rank 0 — where
// Case 1 runs the dictionary steps — those of the hop's mulVec and
// mulVecT.
func case1Claims(t *testing.T, derived []funcCost, hop string, bind map[string]int64, rank int) int64 {
	t.Helper()
	total := sumClaims(t, findFunc(t, derived, "ExDGram.applyCase1"), bind, rank)
	if rank == 0 {
		for _, step := range []string{"mulVec", "mulVecT"} {
			total += sumClaims(t, findFunc(t, derived, hop+"."+step), bind, rank)
		}
	}
	return total
}

// sumClaims evaluates the claim-closing terms of fc on one rank: unguarded
// terms on every rank, "r.ID == 0" terms on rank 0 only. Each claim must
// equal its derived side; the derived side is what is summed, so the
// caller exercises the derivation, not the annotation.
func sumClaims(t *testing.T, fc funcCost, bind map[string]int64, rank int) int64 {
	t.Helper()
	var total int64
	for _, term := range claimTerms(fc.terms) {
		switch term.guard {
		case "":
		case "r.ID == 0":
			if rank != 0 {
				continue
			}
		default:
			t.Fatalf("unexpected guard %q in %s", term.guard, fc.fn)
		}
		pd, okD := normalize(term.derived, fc.subst)
		pc, okC := normalize(term.claim, fc.subst)
		if !okD || !okC || !equalPoly(pd, pc) {
			t.Fatalf("%s: claim %s does not match derived %s", fc.fn, term.claim.render(), term.derived.render())
		}
		v, ok := evalSym(term.derived, fc.subst, bind)
		if !ok {
			t.Fatalf("%s: cannot evaluate %s under %v", fc.fn, term.derived.render(), bind)
		}
		total += v
	}
	return total
}

func distPackage(t *testing.T) *Package {
	t.Helper()
	prog, _ := loadModuleProgram(t)
	pkg := prog.packageByPath("extdict/internal/dist")
	if pkg == nil {
		t.Fatal("dist package not loaded")
	}
	return pkg
}

// TestCostModelSymbolicFlops reproduces TestExDGramFlopAccounting's expected
// value from the static cost model alone, over both dictionary hops: the
// symbolic terms of applyCase1 — 2·nnz_i per sparse product on every rank
// — and of the hop's two dictionary steps, which Case 1 runs on rank 0,
// are evaluated with the instance's dimensions and must sum to
// exactly the runtime-counted TotalFlops. This pins the code's flop
// accounting to Eqs. 2-4 in both directions: the analyzer proves each claim
// equals the derived expression, and this test proves the derived
// expressions predict the machine.
func TestCostModelSymbolicFlops(t *testing.T) {
	pkg := distPackage(t)
	tr, plat, insts := case1Instances(t)
	for _, in := range insts {
		derived := deriveCosts(pkg)
		st := in.op.Apply(make([]float64, symN), make([]float64, symN))
		var total int64
		for i := 0; i < symP; i++ {
			total += case1Claims(t, derived, in.hop, rankBind(tr, plat, in, i), i)
		}
		// Case 1 totals: 4·nnz(C) for the sparse products + both dictionary
		// steps on rank 0.
		if want := 4*int64(tr.C.NNZ()) + 2*in.stepFlops; total != want {
			t.Fatalf("%s: symbolic total %d, want %d", in.hop, total, want)
		}
		if total != st.TotalFlops {
			t.Fatalf("%s: symbolic total %d, runtime counted %d", in.hop, total, st.TotalFlops)
		}
	}
}
