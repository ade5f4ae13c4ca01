package lint

import (
	"go/ast"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// AllocModel statically pins the per-rank resident-set accounting of
// internal/dist and internal/solver to the code — the capacity axis of the
// paper's Eq. 4 that decides whether a shape fits in RAM at all. It derives
// a symbolic allocation-size polynomial for the region of a rank body
// preceding each r.AddResident call, from the operator's constructor
// contracts:
//
//	make([]T, n)            allocSizes.Sizeof(T)·n bytes
//	mat.NewDense(r, c)      8·r·c bytes
//	Dense.ColRange(lo, hi)  8·rows·(hi−lo) bytes — the rank's owned window
//	CSC.ColSliceRange       16·nnz + 8·(cols+1) bytes (values + row indices
//	                        + column pointers)
//	workspace structs       sum of their recorded make'd fields
//
// Allocations are classified persistent or transient. Per-rank constructor
// slots (blocks[i], scratch[i]) and operator-shared matrix fields (the
// dictionary d, SGD's full data matrix a) are persistent: they escape every
// region and form the rank's steady-state resident set — slots are charged
// at rank-body entry, shared fields at their first textual touch, which
// places the Case 1 dictionary naturally under its "r.ID == 0" guard. An
// in-body make that stays local is transient: it is charged to the region
// it lives in (peak, not sum — a later region's claim must NOT re-count
// it). An in-body allocation stored through a field escapes its region;
// allocmodel reports it, because resident state established outside the
// constructor is invisible to the capacity polynomial of every other entry
// point (and to hotalloc's allocation-free guarantee).
//
// A rank function that merely delegates to another rank method of the same
// operator (ExDGram.Apply's closures) is not charged: the callee claims the
// residency. A type that reports its own footprint through ResidentWords
// (a dictionary hop) is charged by its holder, 8·ResidentWords at first
// touch (ExDGram charges its hop once per Run); its own rank methods are
// not charged for its fields, and 8·ResidentWords is checked against their
// contracts like a claim. The per-entry-point polynomials this analyzer proves
// are the rows of the static capacity report (extdict-lint -capacity) and
// the ground truth for perf.Estimate.MemoryWordsPerRank.
var AllocModel = &Analyzer{
	Name: "allocmodel",
	Doc: "every r.AddResident argument must symbolically equal the " +
		"resident-set polynomial derived from the operator's constructor " +
		"contracts and in-region allocations, the capacity side of Eq. 4",
	SkipTests: true,
	Run: func(p *Pass) {
		if !inAnyPkg(p.Pkg.ImportPath, "extdict/internal/dist", "extdict/internal/solver") {
			return
		}
		if p.Pkg.TypesInfo == nil {
			return
		}
		for _, fc := range deriveResident(p.Pkg) {
			subst := fc.subst
			for _, term := range fc.terms {
				switch {
				case term.unsupported:
					p.Reportf(term.pos,
						"AddResident inside a loop cannot be checked against the static capacity model; hoist the accounting out of the loop")
				case term.claim != nil:
					pd, okD := normalize(term.derived, subst)
					pc, okC := normalize(term.claim, subst)
					if !okD || !okC {
						p.Reportf(term.pos,
							"cannot derive a symbolic resident-set size for the region preceding this AddResident; restructure so allocation sizes resolve through the operator constructor")
						continue
					}
					if !equalPoly(pd, pc) {
						p.Reportf(term.pos,
							"AddResident claims %s but the region's resident set is %s bytes%s (capacity-model conformance, Eq. 4)",
							pc.render(), pd.render(), guardSuffix(term.guard))
					}
				default:
					// Trailing residency with no AddResident to absorb it.
					p.Reportf(term.pos,
						"resident bytes established here are not covered by any AddResident call%s; the capacity model under-counts this entry point", guardSuffix(term.guard))
				}
			}
		}
		eachRankFunc(p.Pkg, func(name string, ft *ast.FuncType, body *ast.BlockStmt) {
			reportEscapingAllocs(p, body)
		})
	},
}

// deriveResident derives the symbolic resident-set terms of every rank
// function in the package — the data behind the allocmodel analyzer and the
// static capacity report.
func deriveResident(pkg *Package) []funcCost {
	shapes := buildShapes(pkg)
	held := selfReportingTypes(pkg)
	var out []funcCost
	eachRankFunc(pkg, func(name string, ft *ast.FuncType, body *ast.BlockStmt) {
		opType, _, _ := strings.Cut(name, ".")
		if !strings.Contains(name, ".") {
			opType = ""
		}
		aw := &allocWalk{
			costWalk: costWalk{
				st:        newSymState(pkg, shapes),
				shapes:    shapes,
				opType:    opType,
				claimName: "AddResident",
			},
			charged: make(map[string]bool),
			shared:  sharedContracts(shapes, opType),
		}
		if slices.Contains(held, opType) {
			aw.shared = nil // its holder charges the footprint
		}
		aw.stmtCost = aw.stmtResident
		aw.st.envFixpoint(body)
		terms := aw.region(body.List, "")
		if !delegatesResidency(pkg.TypesInfo, opType, body) {
			terms = chargeEntry(terms, slotContracts(shapes, opType), body)
		}
		out = append(out, funcCost{fn: name, terms: terms, subst: shapes.substFor(opType)})
	})
	// A self-reported footprint is checked like a claim: 8·ResidentWords
	// must equal the contracts of the shared fields its holder's charge
	// stands for.
	for _, name := range held {
		term := costTerm{claim: symUnknown{}, derived: symConst(0), pos: pkg.Types.Scope().Lookup(name).Pos()}
		if got, ok := returnPoly(pkg, shapes, name, "ResidentWords"); ok {
			term.claim = symMul{symConst(8), got}
		}
		for _, c := range sharedContracts(shapes, name) {
			term.derived = symAdd{term.derived, c}
		}
		out = append(out, funcCost{fn: name + ".ResidentWords", terms: []costTerm{term}, subst: shapes.substFor(name)})
	}
	return out
}

// allocWalk derives symbolic resident-set expressions over one rank body,
// reusing the costWalk region machinery with allocation semantics: in-body
// make / mat.NewDense calls are priced through the allocation contracts,
// and the first touch of a shared persistent matrix field charges its
// steady-state size. Loops charge their body once — residency is an
// idempotent high-water mark, not a per-iteration flow.
type allocWalk struct {
	costWalk
	charged map[string]bool    // shared fields already charged this body
	shared  map[string]symExpr // field -> steady-state resident size
}

// stmtResident derives the resident bytes one statement establishes.
func (c *allocWalk) stmtResident(s ast.Stmt) symExpr {
	total := symExpr(symConst(0))
	ast.Inspect(s, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if sz, ok := c.allocSize(n); ok {
				total = symAdd{total, sz}
			}
		case *ast.SelectorExpr:
			if tn, key, ok := c.st.canonRef(n); ok && tn == c.opType {
				base, _, _ := strings.Cut(key, ".")
				base, _, _ = strings.Cut(base, "[")
				if e, ok := c.shared[base]; ok && !c.charged[base] {
					c.charged[base] = true
					total = symAdd{total, e}
				}
			}
		}
		return true
	})
	return total
}

// allocSize prices one allocation call through the contracts; ok=false for
// calls that allocate nothing the model tracks.
func (c *allocWalk) allocSize(call *ast.CallExpr) (symExpr, bool) {
	if id, ok := call.Fun.(*ast.Ident); ok && isBuiltinObj(c.st.info.Uses[id]) && id.Name == "make" && len(call.Args) >= 2 {
		// make([]T, len[, cap]) reserves cap elements when given.
		n := c.st.symVal(call.Args[len(call.Args)-1])
		if isUnknown(n) {
			return symUnknown{}, true
		}
		return symMul{symConst(sliceElemBytes(c.st.info.TypeOf(call))), n}, true
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "NewDense" && len(call.Args) == 2 {
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
			if pn, ok := c.st.info.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "extdict/internal/mat" {
				r, cc := c.st.symVal(call.Args[0]), c.st.symVal(call.Args[1])
				if isUnknown(r) || isUnknown(cc) {
					return symUnknown{}, true
				}
				return symMul{symConst(8), symMul{r, cc}}, true
			}
		}
	}
	return nil, false
}

// slotContracts sums the per-rank constructor slot payloads of one operator
// type: every recorded slice length and matrix dimension whose canonical
// key carries a slot index ("scratch[]", "blocks[]", "scratch[].vl1"). The
// O(P) bookkeeping arrays holding the slots themselves (the slice headers,
// the ranges table) are deliberately outside the model: they are shape-
// independent and vanish against any data term.
func slotContracts(shapes *shapeTable, opType string) symExpr {
	total := symExpr(symConst(0))
	if opType == "" {
		return total
	}
	for _, key := range sortedShapeKeys(shapes.lens[opType]) {
		if !strings.Contains(key, "[]") {
			continue
		}
		total = symAdd{total, symMul{symConst(shapes.sizeOf(opType, key)), shapes.lens[opType][key]}}
	}
	for _, key := range sortedShapeKeys(shapes.dims[opType]) {
		if !strings.Contains(key, "[]") {
			continue
		}
		total = symAdd{total, matrixResident(shapes, opType, key)}
	}
	return total
}

// sharedContracts returns the steady-state resident size of every operator-
// shared persistent field (recorded shape entries without a slot index):
// the dictionary d, SGD's full data matrix a, or a whole-operator buffer.
// Shared fields are charged at their first textual touch in the rank body,
// so a field only one guarded branch uses (Case 1's dictionary on rank 0)
// lands in that branch's region.
func sharedContracts(shapes *shapeTable, opType string) map[string]symExpr {
	out := make(map[string]symExpr)
	if opType == "" {
		return out
	}
	for key, l := range shapes.lens[opType] {
		if strings.Contains(key, "[]") || strings.Contains(key, ".") {
			continue
		}
		out[key] = symMul{symConst(shapes.sizeOf(opType, key)), l}
	}
	for key := range shapes.dims[opType] {
		if strings.Contains(key, "[]") || strings.Contains(key, ".") {
			continue
		}
		out[key] = matrixResident(shapes, opType, key)
	}
	return out
}

// matrixResident prices the steady-state payload of a recorded matrix
// field: dense storage is 8·rows·cols; a CSC block is its value and
// row-index payload (16·nnz) plus the column-pointer array (8·(cols+1)); a
// self-reporting footprint is 8·ResidentWords — for a FastDict factor chain
// Σ (2·nnz_i + cols_i + 1) words of values, row indices, and column
// pointers across the factors.
func matrixResident(shapes *shapeTable, opType, key string) symExpr {
	d := shapes.dims[opType][key]
	switch shapes.kindOf(opType, key) {
	case "csc":
		return symAdd{
			symMul{symConst(16), symVar("NNZ(" + key + ")")},
			symMul{symConst(8), symAdd{d.cols, symConst(1)}},
		}
	case "words":
		return symMul{symConst(8), symVar("ResidentWords(" + key + ")")}
	}
	return symMul{symConst(8), symMul{d.rows, d.cols}}
}

// chargeEntry folds the constructor slot payloads into the first top-level
// region of a rank body: the slots exist the moment the rank enters, so the
// first unguarded AddResident must account for them. A body with charges
// but no claim gets a trailing uncovered term.
func chargeEntry(terms []costTerm, entry symExpr, body *ast.BlockStmt) []costTerm {
	if p, ok := normalize(entry, nil); ok && len(p) == 0 {
		return terms
	}
	for i := range terms {
		if terms[i].guard == "" && !terms[i].unsupported {
			terms[i].derived = symAdd{terms[i].derived, entry}
			return terms
		}
	}
	return append(terms, costTerm{guard: "", derived: entry, pos: body.Pos()})
}

// delegatesResidency reports whether a rank body hands its rank off to
// another rank method of the same operator type (g.applyCase1(r, x, y)): the
// callee establishes and claims the residency, so charging the wrapper too
// would double-count every slot.
func delegatesResidency(info *types.Info, opType string, body *ast.BlockStmt) bool {
	if opType == "" {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || namedTypeName(info.TypeOf(sel.X)) != opType {
			return true
		}
		for _, a := range call.Args {
			if t := info.TypeOf(a); t != nil && isRankPtr(t) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// reportEscapingAllocs flags allocations a rank body stores through a field:
// the allocation escapes its region into persistent state established
// outside the constructor, where no other entry point's capacity polynomial
// (and no hotalloc guarantee) can see it.
func reportEscapingAllocs(p *Pass, body *ast.BlockStmt) {
	info := p.Pkg.TypesInfo
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || !isAllocCall(info, call) {
				continue
			}
			if storesThroughField(as.Lhs[i]) {
				p.Reportf(as.Pos(),
					"allocation escapes the rank body into a field — persistent resident state must be established in the constructor so every entry point's capacity polynomial (Eq. 4) sees it")
			}
		}
		return true
	})
}

// isAllocCall matches the allocation calls the capacity model prices.
func isAllocCall(info *types.Info, call *ast.CallExpr) bool {
	if id, ok := call.Fun.(*ast.Ident); ok && isBuiltinObj(info.Uses[id]) && id.Name == "make" {
		return true
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "NewDense" {
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
			if pn, ok := info.Uses[id].(*types.PkgName); ok {
				return pn.Imported().Path() == "extdict/internal/mat"
			}
		}
	}
	return false
}

// storesThroughField reports whether an assignment target reaches through a
// field selector (g.buf, g.scratch[i]) rather than binding a local.
func storesThroughField(lhs ast.Expr) bool {
	for {
		switch e := ast.Unparen(lhs).(type) {
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.SelectorExpr:
			return true
		default:
			return false
		}
	}
}

// sortedShapeKeys returns the map's keys in stable order.
func sortedShapeKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// selfReportingTypes returns the package's non-test named types that report
// their own resident footprint (see selfReporting), in name order.
func selfReportingTypes(pkg *Package) []string {
	if pkg.Types == nil {
		return nil
	}
	var out []string
	for _, name := range pkg.Types.Scope().Names() {
		tn, ok := pkg.Types.Scope().Lookup(name).(*types.TypeName)
		if ok && !types.IsInterface(tn.Type()) && selfReporting(tn.Type()) && !strings.HasSuffix(pkg.Fset.Position(tn.Pos()).Filename, "_test.go") {
			out = append(out, name)
		}
	}
	return out
}

// returnPoly derives the value of a zero-argument method whose body is a
// single return statement (denseHop.ResidentWords returns m·l), normalized
// through the type's aliases.
func returnPoly(pkg *Package, shapes *shapeTable, typeName, method string) (poly, bool) {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || isTestFile(pkg, fd) || declName(fd) != typeName+"."+method || len(fd.Body.List) != 1 {
				continue
			}
			if ret, ok := fd.Body.List[0].(*ast.ReturnStmt); ok && len(ret.Results) == 1 {
				return normalize(newSymState(pkg, shapes).symVal(ret.Results[0]), shapes.substFor(typeName))
			}
		}
	}
	return nil, false
}
