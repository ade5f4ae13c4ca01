package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// dep is the interprocedural taint lattice element: how a value's
// rank-variance depends on the enclosing function's arguments. The empty
// dep is "uniform on every rank"; inherent means rank-varying no matter
// what the caller passes (derived from a *cluster.Rank parameter's own
// identity); the bitsets defer the verdict to the call site — bit j of
// valParams (lenParams) taints the value when argument j's value (length)
// is rank-varying there. Parameters beyond 64 are ignored (no function in
// this module comes close).
type dep struct {
	inherent  bool
	valParams uint64
	lenParams uint64
}

// or joins two lattice elements.
func (d dep) or(o dep) dep {
	return dep{
		inherent:  d.inherent || o.inherent,
		valParams: d.valParams | o.valParams,
		lenParams: d.lenParams | o.lenParams,
	}
}

// empty reports whether the dep is the bottom element (uniform).
func (d dep) empty() bool { return !d.inherent && d.valParams == 0 && d.lenParams == 0 }

// key renders the dep for summary equality comparison.
func (d dep) key() string {
	return fmt.Sprintf("%v/%x/%x", d.inherent, d.valParams, d.lenParams)
}

// collSig is one collective operation a function (transitively) executes on
// a rank derived from its own parameters, as recorded in its summary: the
// operation plus the argument-dependence of the control condition it runs
// under, its root, and its vector length.
type collSig struct {
	op                 string
	cond, root, length dep
}

func (c collSig) key() string {
	return c.op + "|" + c.cond.key() + "|" + c.root.key() + "|" + c.length.key()
}

// summary is one function's interprocedural abstract: the rank-variance
// its results inherit from its arguments (retVal by value, retLen by
// length), and the collectives it reaches on ranks it was handed. The
// collective analyzer instantiates summaries at call sites; the schedule
// analyzer splices callee traces through the same call graph.
type summary struct {
	retVal []dep
	retLen []dep
	colls  []collSig

	// Concurrency facts (conc.go), consumed by the sharedstate/lockorder/
	// detorder analyzers. locks is the sorted transitive set of mutexes the
	// function may acquire; netLocks are the mutexes still held at return
	// (lock helpers); escParams has bit j set when the j-th call-site
	// argument (receiver counts as 0) is a func value that escapes to
	// another goroutine inside the callee; detVia is "" when the function is
	// determinism-clean and otherwise names the transitive clock/rand seed.
	locks     []string
	netLocks  []string
	escParams uint64
	detVia    string
}

// equal compares summaries structurally (colls are kept sorted by key).
func (s *summary) equal(o *summary) bool {
	if o == nil {
		return false
	}
	if len(s.retVal) != len(o.retVal) || len(s.colls) != len(o.colls) {
		return false
	}
	for i := range s.retVal {
		if s.retVal[i] != o.retVal[i] || s.retLen[i] != o.retLen[i] {
			return false
		}
	}
	for i := range s.colls {
		if s.colls[i] != o.colls[i] {
			return false
		}
	}
	if s.escParams != o.escParams || s.detVia != o.detVia {
		return false
	}
	if !equalStrings(s.locks, o.locks) || !equalStrings(s.netLocks, o.netLocks) {
		return false
	}
	return true
}

// maxSummaryColls bounds a summary's collective list so the global fixpoint
// terminates even on pathological inputs; beyond the cap the remaining
// signatures are dropped (the first cap entries still catch divergence).
const maxSummaryColls = 64

// computeSummaries runs the whole-program fixpoint: every node is
// re-analyzed against the current summaries of its callees until no summary
// changes. Deps only grow and colls are deduped and capped, so the lattice
// is finite and the loop terminates; the iteration cap is a backstop for
// the pathological case, not a correctness requirement.
func computeSummaries(cg *callGraph) map[string]*summary {
	sums := make(map[string]*summary)
	ids := cg.sortedNodeIDs()
	for iter := 0; iter < 32; iter++ {
		changed := false
		for _, id := range ids {
			n := cg.nodes[id]
			s := analyzeNode(cg, sums, n)
			if !s.equal(sums[id]) {
				sums[id] = s
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return sums
}

// analyzeNode computes one node's summary against the given callee
// summaries.
func analyzeNode(cg *callGraph, sums map[string]*summary, n *funcNode) *summary {
	s := newSpmd(n.pkg, func(call *ast.CallExpr) (*funcNode, *summary) {
		callee := cg.calleeOf(n.pkg, call)
		if callee == nil {
			return nil, nil
		}
		return callee, sums[callee.id]
	})
	for i, obj := range n.params {
		if obj == nil || i >= 64 {
			continue
		}
		s.params[obj] = i
		s.val[obj] = dep{valParams: 1 << i}
		if _, ok := obj.Type().Underlying().(*types.Slice); ok {
			s.length[obj] = dep{lenParams: 1 << i}
		}
	}
	s.analyze(n.decl.Type, n.decl.Body)

	out := &summary{}
	if res := n.decl.Type.Results; res != nil {
		nres := 0
		for _, f := range res.List {
			if len(f.Names) == 0 {
				nres++
			} else {
				nres += len(f.Names)
			}
		}
		out.retVal = make([]dep, nres)
		out.retLen = make([]dep, nres)
		for i := 0; i < nres && i < len(s.retVal); i++ {
			out.retVal[i] = s.retVal[i]
			out.retLen[i] = s.retLen[i]
		}
	}
	seen := make(map[string]bool)
	for _, e := range s.effects {
		sig := collSig{op: e.op, cond: e.cond.or(e.exit), root: e.root, length: e.length}
		if k := sig.key(); !seen[k] {
			seen[k] = true
			out.colls = append(out.colls, sig)
		}
		if len(out.colls) >= maxSummaryColls {
			break
		}
	}
	sort.Slice(out.colls, func(i, j int) bool { return out.colls[i].key() < out.colls[j].key() })
	concSummarize(cg, sums, n, out)
	return out
}

// effect is one collective operation observed during a function walk, with
// the positions the collective analyzer reports at. via names the callee
// chain head when the collective is reached through a call rather than
// executed directly.
type effect struct {
	op  string
	via string

	pos, rootPos, lenPos token.Pos

	cond   dep // control condition governing the site
	exit   dep // divergent early exit preceding the site in source order
	root   dep
	length dep
}

// spmd is the dep-lattice SPMD walker shared by the collective analyzer
// (reporting mode: findings are effects whose deps are inherent) and the
// summary computation (the same effects and return deps, parameterized by
// the function's own arguments).
type spmd struct {
	pkg     *Package
	info    *types.Info
	resolve func(*ast.CallExpr) (*funcNode, *summary)

	params map[types.Object]int

	val     map[types.Object]dep    // rank-variance of variable values
	length  map[types.Object]dep    // rank-variance of slice lengths
	collVal map[types.Object]string // variables bound to collective method values

	exit    dep // accumulated divergent-early-exit dep, in source order
	effects []effect

	retVal []dep
	retLen []dep
}

func newSpmd(pkg *Package, resolve func(*ast.CallExpr) (*funcNode, *summary)) *spmd {
	return &spmd{
		pkg:     pkg,
		info:    pkg.TypesInfo,
		resolve: resolve,
		params:  make(map[types.Object]int),
		val:     make(map[types.Object]dep),
		length:  make(map[types.Object]dep),
		collVal: make(map[types.Object]string),
	}
}

// analyze runs both passes over a function body: the assignment fixpoint
// that stabilizes variable deps, then the control-flow walk that records
// collective effects and return deps.
func (s *spmd) analyze(ft *ast.FuncType, body *ast.BlockStmt) {
	s.taintFixpoint(body)
	s.walkStmts(body.List, dep{})
}

// taintFixpoint propagates value- and length-deps through assignments until
// the environment stops growing, so later uses see taint no matter where
// the defining statement sits. Nested function literals are skipped — they
// are analyzed as functions of their own.
func (s *spmd) taintFixpoint(body *ast.BlockStmt) {
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.AssignStmt:
				if len(st.Lhs) == len(st.Rhs) {
					for i, lhs := range st.Lhs {
						changed = s.assign(lhs, st.Rhs[i]) || changed
					}
				} else if len(st.Rhs) == 1 {
					// Multi-value call/map/type lookup: known callees
					// contribute per-result deps, everything else is uniform.
					changed = s.assignMulti(st.Lhs, st.Rhs[0]) || changed
				}
			case *ast.RangeStmt:
				// Ranging over a length-tainted slice (or a rank-varying
				// count) gives the key rank-varying bounds.
				if d := s.lenDep(st.X).or(s.valDep(st.X)); !d.empty() {
					if st.Key != nil {
						changed = s.mergeVar(st.Key, d, dep{}) || changed
					}
					if st.Value != nil {
						changed = s.mergeVar(st.Value, d, dep{}) || changed
					}
				}
			case *ast.GenDecl:
				for _, spec := range st.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok || len(vs.Values) != len(vs.Names) {
						continue
					}
					for i, name := range vs.Names {
						changed = s.assign(name, vs.Values[i]) || changed
					}
				}
			}
			return true
		})
	}
}

// assign records the deps of rhs flowing into the lvalue, including method
// values of collectives (op := r.Reduce), reporting whether anything grew.
func (s *spmd) assign(lhs ast.Expr, rhs ast.Expr) bool {
	changed := s.mergeVar(lhs, s.valDep(rhs), s.lenDep(rhs))
	if name := s.collMethodValue(rhs); name != "" {
		if id, ok := lhs.(*ast.Ident); ok {
			if obj := s.objOf(id); obj != nil && s.collVal[obj] != name {
				s.collVal[obj] = name
				changed = true
			}
		}
	}
	return changed
}

// assignMulti handles a, b := f(): per-result deps from a known callee.
func (s *spmd) assignMulti(lhs []ast.Expr, rhs ast.Expr) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || s.resolve == nil {
		return false
	}
	callee, sum := s.resolve(call)
	if sum == nil || len(sum.retVal) < len(lhs) {
		return false
	}
	changed := false
	for i, l := range lhs {
		v := s.instantiateVal(sum.retVal[i], call, callee)
		ln := s.instantiateLen(sum.retLen[i], call, callee)
		changed = s.mergeVar(l, v, ln) || changed
	}
	return changed
}

// mergeVar joins deps into an identifier's environment entry.
func (s *spmd) mergeVar(lhs ast.Expr, v, ln dep) bool {
	id, ok := lhs.(*ast.Ident)
	if !ok || id.Name == "_" {
		return false
	}
	obj := s.objOf(id)
	if obj == nil {
		return false
	}
	changed := false
	if nv := s.val[obj].or(v); nv != s.val[obj] {
		s.val[obj] = nv
		changed = true
	}
	if nl := s.length[obj].or(ln); nl != s.length[obj] {
		s.length[obj] = nl
		changed = true
	}
	return changed
}

func (s *spmd) objOf(id *ast.Ident) types.Object {
	if obj := s.info.Defs[id]; obj != nil {
		return obj
	}
	return s.info.Uses[id]
}

// rankMethod returns the method name when call is r.<Method>(...) on a
// *cluster.Rank value, else "".
func (s *spmd) rankMethod(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if t := s.info.TypeOf(sel.X); t != nil && isRankPtr(t) {
		return sel.Sel.Name
	}
	return ""
}

// collMethodValue recognizes an uncalled collective method value
// (r.Reduce as an expression), the seed of indirect collective calls.
func (s *spmd) collMethodValue(e ast.Expr) string {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok || !collectiveNames[sel.Sel.Name] {
		return ""
	}
	if t := s.info.TypeOf(sel.X); t != nil && isRankPtr(t) {
		return sel.Sel.Name
	}
	return ""
}

// collCallName resolves the collective name of a call: a direct rank
// method, or an identifier bound to a collective method value.
func (s *spmd) collCallName(call *ast.CallExpr) string {
	if name := s.rankMethod(call); collectiveNames[name] {
		return name
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if obj := s.info.Uses[id]; obj != nil {
			return s.collVal[obj]
		}
	}
	return ""
}

// valDep reports how e's value varies across ranks.
func (s *spmd) valDep(e ast.Expr) dep {
	switch e := e.(type) {
	case *ast.Ident:
		if obj := s.info.Uses[e]; obj != nil {
			return s.val[obj]
		}
		return dep{}
	case *ast.SelectorExpr:
		// r.ID is the seed; a field of a tainted value stays tainted.
		if t := s.info.TypeOf(e.X); t != nil && isRankPtr(t) {
			if e.Sel.Name == "ID" {
				return dep{inherent: true}
			}
			return dep{}
		}
		return s.valDep(e.X)
	case *ast.CallExpr:
		return s.callValDep(e)
	case *ast.BinaryExpr:
		return s.valDep(e.X).or(s.valDep(e.Y))
	case *ast.UnaryExpr:
		return s.valDep(e.X)
	case *ast.ParenExpr:
		return s.valDep(e.X)
	case *ast.IndexExpr:
		return s.valDep(e.X).or(s.valDep(e.Index))
	case *ast.SliceExpr:
		// A rank-local window into a shared vector holds rank-varying values.
		d := s.valDep(e.X)
		for _, b := range []ast.Expr{e.Low, e.High, e.Max} {
			if b != nil {
				d = d.or(s.valDep(b))
			}
		}
		return d
	case *ast.StarExpr:
		return s.valDep(e.X)
	}
	return dep{}
}

// callValDep is valDep for call expressions: conversions pass their operand
// through, rank methods follow the Rank contract (Node varies, P and the
// collectives are uniform), len/cap read the operand's length-dep, known
// callees contribute their instantiated return dep, and unknown calls fall
// back to "a function of rank-varying arguments is rank-varying".
func (s *spmd) callValDep(e *ast.CallExpr) dep {
	if tv, ok := s.info.Types[e.Fun]; ok && tv.IsType() { // conversion
		if len(e.Args) == 1 {
			return s.valDep(e.Args[0])
		}
		return dep{}
	}
	switch s.rankMethod(e) {
	case "Node":
		return dep{inherent: true}
	case "P", "AddFlops", "AddBytes", "AddResident", "Allreduce", "Reduce", "Broadcast", "Barrier":
		return dep{} // uniform by contract (collectives return nothing)
	}
	if id, ok := e.Fun.(*ast.Ident); ok && isBuiltinObj(s.info.Uses[id]) {
		switch id.Name {
		case "len", "cap":
			if len(e.Args) == 1 {
				return s.lenDep(e.Args[0])
			}
			return dep{}
		}
		d := dep{}
		for _, arg := range e.Args {
			d = d.or(s.valDep(arg))
		}
		return d
	}
	if s.resolve != nil {
		if callee, sum := s.resolve(e); sum != nil {
			if len(sum.retVal) == 1 {
				return s.instantiateVal(sum.retVal[0], e, callee)
			}
			if len(sum.retVal) > 1 {
				return dep{} // handled positionally in assignMulti
			}
			return dep{}
		}
	}
	d := dep{}
	for _, arg := range e.Args {
		d = d.or(s.valDep(arg))
	}
	return d
}

// lenDep reports how the slice e's length varies across ranks.
func (s *spmd) lenDep(e ast.Expr) dep {
	switch e := e.(type) {
	case *ast.Ident:
		if obj := s.info.Uses[e]; obj != nil {
			return s.length[obj]
		}
		return dep{}
	case *ast.ParenExpr:
		return s.lenDep(e.X)
	case *ast.SliceExpr:
		d := dep{}
		explicit := false
		for _, b := range []ast.Expr{e.Low, e.High, e.Max} {
			if b != nil {
				explicit = true
				d = d.or(s.valDep(b))
			}
		}
		if !explicit || e.High == nil {
			// x[lo:] keeps a dependence on the base length.
			d = d.or(s.lenDep(e.X))
		}
		return d
	case *ast.CallExpr:
		if id, ok := e.Fun.(*ast.Ident); ok && isBuiltinObj(s.info.Uses[id]) {
			switch id.Name {
			case "make":
				if len(e.Args) >= 2 {
					return s.valDep(e.Args[1])
				}
				return dep{}
			case "append":
				if len(e.Args) > 0 {
					return s.lenDep(e.Args[0])
				}
				return dep{}
			}
			return dep{}
		}
		if s.resolve != nil {
			if callee, sum := s.resolve(e); sum != nil && len(sum.retLen) == 1 {
				return s.instantiateLen(sum.retLen[0], e, callee)
			}
		}
		// Unknown call results are length-unknown, treated uniform: a kernel
		// like blk.MulVec(x[lo:hi], nil) returns a block-shaped vector whose
		// length the analysis cannot see, and flagging it would drown the
		// real findings.
		return dep{}
	}
	return dep{}
}

// instantiateVal maps a callee-relative value dep into the caller's frame
// by substituting argument deps for parameter bits.
func (s *spmd) instantiateVal(d dep, call *ast.CallExpr, callee *funcNode) dep {
	out := dep{inherent: d.inherent}
	args := callArgs(s.pkg, call, callee)
	for j, arg := range args {
		if j >= 64 {
			break
		}
		if d.valParams&(1<<j) != 0 {
			out = out.or(s.valDep(arg))
		}
		if d.lenParams&(1<<j) != 0 {
			out = out.or(s.lenDep(arg))
		}
	}
	return out
}

// instantiateLen maps a callee-relative length dep into the caller's frame.
// Argument-length bits substitute fully; argument-value bits substitute
// only for integer parameters. A returned slice's length can genuinely vary
// through an integer size argument (make inside the callee) or an argument
// slice's own length — but a value-dep on a struct or matrix argument is
// the shape-field chain (m.Rows inside MulVec), and the kernels' contract
// is that dimension fields are uniform even when the per-rank block values
// differ; substituting those bits would flag every scratch-buffer kernel
// result, drowning the real findings.
func (s *spmd) instantiateLen(d dep, call *ast.CallExpr, callee *funcNode) dep {
	out := dep{inherent: d.inherent}
	args := callArgs(s.pkg, call, callee)
	for j, arg := range args {
		if j >= 64 {
			break
		}
		if d.lenParams&(1<<j) != 0 {
			out = out.or(s.lenDep(arg))
		}
		if d.valParams&(1<<j) != 0 && j < len(callee.params) && isIntObj(callee.params[j]) {
			out = out.or(s.valDep(arg))
		}
	}
	return out
}

// isIntObj reports whether the parameter object has integer type.
func isIntObj(obj types.Object) bool {
	if obj == nil {
		return false
	}
	b, ok := obj.Type().Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// walkStmts walks statements in source order. div is the control-divergence
// dep in force; s.exit persists across the walk once a rank-varying return
// has been seen.
func (s *spmd) walkStmts(list []ast.Stmt, div dep) {
	for _, st := range list {
		s.walkStmt(st, div)
	}
}

func (s *spmd) walkStmt(st ast.Stmt, div dep) {
	switch st := st.(type) {
	case *ast.BlockStmt:
		s.walkStmts(st.List, div)
	case *ast.IfStmt:
		if st.Init != nil {
			s.walkStmt(st.Init, div)
		}
		s.scanExpr(st.Cond, div)
		branchDiv := div.or(s.valDep(st.Cond))
		s.walkStmt(st.Body, branchDiv)
		if st.Else != nil {
			s.walkStmt(st.Else, branchDiv)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			s.walkStmt(st.Init, div)
		}
		loopDiv := div
		if st.Cond != nil {
			s.scanExpr(st.Cond, div)
			loopDiv = loopDiv.or(s.valDep(st.Cond))
		}
		// A break/continue under a rank-varying condition desynchronizes the
		// whole loop: iteration counts differ, so every collective inside —
		// even before the branch statement — can mismatch.
		loopDiv = loopDiv.or(s.loopExitDep(st.Body))
		s.walkStmt(st.Body, loopDiv)
		if st.Post != nil {
			s.walkStmt(st.Post, loopDiv)
		}
	case *ast.RangeStmt:
		s.scanExpr(st.X, div)
		loopDiv := div.or(s.lenDep(st.X)).or(s.valDep(st.X)).or(s.loopExitDep(st.Body))
		s.walkStmt(st.Body, loopDiv)
	case *ast.SwitchStmt:
		if st.Init != nil {
			s.walkStmt(st.Init, div)
		}
		caseDiv := div
		if st.Tag != nil {
			s.scanExpr(st.Tag, div)
			caseDiv = caseDiv.or(s.valDep(st.Tag))
		}
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			d := caseDiv
			for _, e := range cc.List {
				d = d.or(s.valDep(e))
			}
			s.walkStmts(cc.Body, d)
		}
	case *ast.TypeSwitchStmt:
		s.walkStmt(st.Body, div)
	case *ast.SelectStmt:
		s.walkStmt(st.Body, div)
	case *ast.CommClause:
		s.walkStmts(st.Body, div)
	case *ast.ReturnStmt:
		for i, e := range st.Results {
			s.scanExpr(e, div)
			s.mergeRet(i, s.valDep(e), s.lenDep(e))
		}
		s.exit = s.exit.or(div)
	case *ast.BranchStmt:
		// break/continue divergence is handled by loopExitDep; a goto
		// under a tainted condition is treated like a return.
		if st.Tok == token.GOTO {
			s.exit = s.exit.or(div)
		}
	case *ast.ExprStmt:
		s.scanExpr(st.X, div)
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			s.scanExpr(e, div)
		}
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						s.scanExpr(v, div)
					}
				}
			}
		}
	case *ast.DeferStmt:
		s.scanExpr(st.Call, div)
	case *ast.GoStmt:
		s.scanExpr(st.Call, div)
	case *ast.LabeledStmt:
		s.walkStmt(st.Stmt, div)
	case *ast.SendStmt:
		s.scanExpr(st.Value, div)
	}
}

// mergeRet joins deps into the i-th return slot.
func (s *spmd) mergeRet(i int, v, ln dep) {
	for len(s.retVal) <= i {
		s.retVal = append(s.retVal, dep{})
		s.retLen = append(s.retLen, dep{})
	}
	s.retVal[i] = s.retVal[i].or(v)
	s.retLen[i] = s.retLen[i].or(ln)
}

// loopExitDep pre-scans a loop body for a break or continue under a
// rank-varying condition, without descending into nested loops (their
// break/continue bind to themselves) or function literals, and returns the
// joined condition dep of every such exit.
func (s *spmd) loopExitDep(body *ast.BlockStmt) dep {
	var walk func(st ast.Stmt, tainted dep) dep
	walkList := func(list []ast.Stmt, tainted dep) dep {
		out := dep{}
		for _, st := range list {
			out = out.or(walk(st, tainted))
		}
		return out
	}
	walk = func(st ast.Stmt, tainted dep) dep {
		switch st := st.(type) {
		case *ast.BranchStmt:
			if st.Tok == token.BREAK || st.Tok == token.CONTINUE {
				return tainted
			}
			return dep{}
		case *ast.BlockStmt:
			return walkList(st.List, tainted)
		case *ast.IfStmt:
			t := tainted.or(s.valDep(st.Cond))
			out := walk(st.Body, t)
			if st.Else != nil {
				out = out.or(walk(st.Else, t))
			}
			return out
		case *ast.SwitchStmt:
			t := tainted
			if st.Tag != nil {
				t = t.or(s.valDep(st.Tag))
			}
			out := dep{}
			for _, c := range st.Body.List {
				cc := c.(*ast.CaseClause)
				d := t
				for _, e := range cc.List {
					d = d.or(s.valDep(e))
				}
				// break inside a switch binds to the switch, not the loop.
				for _, inner := range cc.Body {
					if bs, ok := inner.(*ast.BranchStmt); ok && bs.Tok == token.BREAK && bs.Label == nil {
						continue
					}
					out = out.or(walk(inner, d))
				}
			}
			return out
		case *ast.LabeledStmt:
			return walk(st.Stmt, tainted)
		}
		return dep{}
	}
	return walkList(body.List, dep{})
}

// scanExpr descends into an expression recording every collective effect it
// contains — direct collective calls, indirect calls through collective
// method values, and calls to functions whose summaries reach collectives —
// given the control context div it executes under.
func (s *spmd) scanExpr(e ast.Expr, div dep) {
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // analyzed on its own if it takes a rank
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		s.recordCall(call, div)
		return true
	})
}

// recordCall inspects one call site for collective effects.
func (s *spmd) recordCall(call *ast.CallExpr, div dep) {
	if name := s.collCallName(call); name != "" {
		e := effect{
			op:   name,
			pos:  call.Pos(),
			cond: div,
			exit: s.exit,
		}
		if (name == "Reduce" || name == "Broadcast") && len(call.Args) == 2 {
			e.root = s.valDep(call.Args[1])
			e.rootPos = call.Args[1].Pos()
		}
		if name != "Barrier" && len(call.Args) >= 1 {
			e.length = s.lenDep(call.Args[0])
			e.lenPos = call.Args[0].Pos()
		}
		s.effects = append(s.effects, e)
		return
	}
	if s.resolve == nil {
		return
	}
	callee, sum := s.resolve(call)
	if sum == nil || len(sum.colls) == 0 {
		return
	}
	for _, sig := range sum.colls {
		e := effect{
			op:      sig.op,
			via:     callee.name,
			pos:     call.Pos(),
			rootPos: call.Pos(),
			lenPos:  call.Pos(),
			cond:    div.or(s.instantiateVal(sig.cond, call, callee)),
			exit:    s.exit,
			root:    s.instantiateVal(sig.root, call, callee),
			length:  s.instantiateLen(sig.length, call, callee),
		}
		s.effects = append(s.effects, e)
	}
}

// describeVia renders the "reached through helper" suffix of a finding.
func describeVia(via string) string {
	if via == "" {
		return ""
	}
	return fmt.Sprintf(" (reached inside %s)", via)
}

// sortEffects orders effects by position for deterministic reporting.
func sortEffects(effects []effect) {
	sort.SliceStable(effects, func(i, j int) bool { return effects[i].pos < effects[j].pos })
}
