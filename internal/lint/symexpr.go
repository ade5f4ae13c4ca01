package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// symExpr is a symbolic integer expression over named dimensions — the
// common currency of the schedule analyzer (collective vector lengths) and
// the costmodel analyzer (FLOP counts). Variables are canonical dimension
// names derived from operator constructors: a field ("m", "l"), a per-rank
// slot of a field ("nnz[]", "ranges[][0]"), the length of a captured slice
// ("len(batch)"), or an opaque sparse population ("NNZ(blocks[])").
type symExpr interface {
	render() string
}

type symConst int64

func (c symConst) render() string { return strconv.FormatInt(int64(c), 10) }

type symVar string

func (v symVar) render() string { return string(v) }

type symAdd struct{ a, b symExpr }

func (e symAdd) render() string { return e.a.render() + " + " + e.b.render() }

type symSub struct{ a, b symExpr }

func (e symSub) render() string { return e.a.render() + " - " + renderTight(e.b) }

type symMul struct{ a, b symExpr }

func (e symMul) render() string { return renderTight(e.a) + "*" + renderTight(e.b) }

// symUnknown marks a quantity the analysis could not resolve; it poisons
// equality so the analyzers report "cannot derive" instead of a false
// mismatch.
type symUnknown struct{}

func (symUnknown) render() string { return "?" }

// renderTight parenthesizes additive subexpressions inside products.
func renderTight(e symExpr) string {
	switch e.(type) {
	case symAdd, symSub:
		return "(" + e.render() + ")"
	}
	return e.render()
}

// poly is a symExpr normalized to a sum of products: the key is the
// "*"-joined sorted list of variable names of one product term (empty for
// the constant term), the value its integer coefficient. Two symExprs are
// semantically equal iff their polys are equal, which settles
// 2*2*m*l == 2*m*l + 2*l*m and 2*m*(hi-lo) == 2*m*hi - 2*m*lo without a
// solver. Variable names never contain '*', so the key join is unambiguous.
type poly map[string]int64

// normalize flattens e into a poly, rewriting variables through subst first
// (constructor aliases like nnz[] ≡ NNZ(blocks[])). It returns ok=false
// when e contains an unresolved quantity.
func normalize(e symExpr, subst map[string]string) (poly, bool) {
	switch e := e.(type) {
	case poly:
		return e, true
	case symConst:
		return poly{"": int64(e)}.trim(), true
	case symVar:
		name := string(e)
		for i := 0; i < 8; i++ { // bounded alias chase
			next, ok := subst[name]
			if !ok {
				break
			}
			name = next
		}
		return poly{name: 1}, true
	case symAdd:
		return combine(e.a, e.b, 1, subst)
	case symSub:
		return combine(e.a, e.b, -1, subst)
	case symMul:
		pa, ok := normalize(e.a, subst)
		if !ok {
			return nil, false
		}
		pb, ok := normalize(e.b, subst)
		if !ok {
			return nil, false
		}
		out := poly{}
		for ka, ca := range pa {
			for kb, cb := range pb {
				out[mulKey(ka, kb)] += ca * cb
			}
		}
		return out.trim(), true
	}
	return nil, false // symUnknown or nil
}

// bindPoly substitutes val for the variable name in p.
func bindPoly(p poly, name string, val poly) poly {
	total := symExpr(symConst(0))
	for k, c := range p {
		term := symExpr(symConst(c))
		for _, v := range strings.Split(k, "*") {
			if v == name {
				term = symMul{term, val}
			} else if v != "" {
				term = symMul{term, symVar(v)}
			}
		}
		total = symAdd{total, term}
	}
	out, _ := normalize(total, nil)
	return out
}

func combine(a, b symExpr, sign int64, subst map[string]string) (poly, bool) {
	pa, ok := normalize(a, subst)
	if !ok {
		return nil, false
	}
	pb, ok := normalize(b, subst)
	if !ok {
		return nil, false
	}
	out := poly{}
	for k, c := range pa {
		out[k] += c
	}
	for k, c := range pb {
		out[k] += sign * c
	}
	return out.trim(), true
}

// mulKey merges two product keys into one canonical sorted key.
func mulKey(a, b string) string {
	if a == "" {
		return b
	}
	if b == "" {
		return a
	}
	vars := append(strings.Split(a, "*"), strings.Split(b, "*")...)
	sort.Strings(vars)
	return strings.Join(vars, "*")
}

// trim drops zero coefficients so equality is structural.
func (p poly) trim() poly {
	for k, c := range p {
		if c == 0 {
			delete(p, k)
		}
	}
	return p
}

// equalPoly reports semantic equality of two normalized expressions.
func equalPoly(a, b poly) bool {
	if len(a) != len(b) {
		return false
	}
	for k, c := range a {
		if b[k] != c {
			return false
		}
	}
	return true
}

// render writes the poly in a stable human-readable form for findings.
func (p poly) render() string {
	if len(p) == 0 {
		return "0"
	}
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteString(" + ")
		}
		if k == "" {
			fmt.Fprintf(&b, "%d", p[k])
		} else if p[k] == 1 {
			b.WriteString(k)
		} else {
			fmt.Fprintf(&b, "%d*%s", p[k], k)
		}
	}
	return b.String()
}

// evalSym evaluates the expression under concrete bindings (after subst
// rewriting), used by the golden tests to check a symbolic cost against a
// runtime-measured count. ok=false when a variable is unbound or the
// expression is unresolved.
func evalSym(e symExpr, subst map[string]string, bind map[string]int64) (int64, bool) {
	p, ok := normalize(e, subst)
	if !ok {
		return 0, false
	}
	var total int64
	for k, c := range p {
		term := c
		if k != "" {
			for _, v := range strings.Split(k, "*") {
				val, ok := bind[v]
				if !ok {
					return 0, false
				}
				term *= val
			}
		}
		total += term
	}
	return total, true
}

// --- constructor shape analysis ---

// dimPair is the symbolic (rows, cols) of a matrix-typed field.
type dimPair struct{ rows, cols symExpr }

// shapeTable is the per-package constructor analysis: for every named
// operator type it records, keyed by canonical field reference, the
// symbolic length of slice fields ("scratch[]" → m, "scratch[].vl1" → l),
// the symbolic dimensions of matrix fields ("blocks[]", "d"), and variable
// aliases introduced by precomputation ("nnz[]" ≡ "NNZ(blocks[])"). The
// canonical key drops the concrete index: blocks[i] in the constructor and
// blocks[r.ID] in the rank body both canonicalize to "blocks[]" — the
// per-rank slots deliberately share one symbol, which is exactly the
// shape-uniformity the collective schedule relies on.
// For the allocmodel analyzer the table also records, per key, the byte
// size of one slice element (sizes) and the storage kind of a matrix field
// (kinds: "dense", "csc", or "words") — together these turn the shape
// entries into allocation contracts (8 bytes per dense matrix entry or
// float64 slot; 16·nnz + 8·(cols+1) for a CSC block's value/row-index
// payload plus column pointers; 8·ResidentWords for a factor chain).
type shapeTable struct {
	lens  map[string]map[string]symExpr // type -> key -> slice length
	dims  map[string]map[string]dimPair // type -> key -> matrix dims
	subst map[string]map[string]string  // type -> var -> alias
	sizes map[string]map[string]int64   // type -> key -> bytes per slice element
	kinds map[string]map[string]string  // type -> key -> "dense" | "csc"
}

// buildShapes scans every non-test function of the package for constructor
// idiom: a builder assignment g := &T{field: expr, ...} followed by
// per-slot writes g.field[i] = make/composite/kernel-derived values. Field
// expressions in the composite literal become the canonical names — a
// later occurrence of the same expression (a.Rows when the literal said
// m: a.Rows) renders as the field name (m).
func buildShapes(pkg *Package) *shapeTable {
	t := &shapeTable{
		lens:  make(map[string]map[string]symExpr),
		dims:  make(map[string]map[string]dimPair),
		subst: make(map[string]map[string]string),
		sizes: make(map[string]map[string]int64),
		kinds: make(map[string]map[string]string),
	}
	info := pkg.TypesInfo
	if info == nil {
		return t
	}
	for _, f := range pkg.Files {
		if strings.HasSuffix(pkg.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			t.scanConstructor(pkg, decl.Body)
		}
	}
	return t
}

// scanConstructor finds builder literals and follow-up field writes in one
// function body.
func (t *shapeTable) scanConstructor(pkg *Package, body *ast.BlockStmt) {
	info := pkg.TypesInfo
	type builder struct {
		typeName string
		fields   *types.Struct     // the literal's struct type, for field kinds
		bind     map[string]string // types.ExprString(fieldValue) -> field name
	}
	builders := make(map[types.Object]*builder)

	// Pass 1: collect builder vars and their literal field bindings.
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		lit := compositeOf(as.Rhs[0])
		if lit == nil {
			return true
		}
		name := namedTypeName(info.TypeOf(lit))
		if name == "" {
			return true
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil {
			return true
		}
		fields, _ := underlyingStruct(info.TypeOf(lit))
		b := &builder{typeName: name, fields: fields, bind: make(map[string]string)}
		for _, el := range lit.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			b.bind[types.ExprString(kv.Value)] = key.Name
		}
		builders[obj] = b
		return true
	})
	if len(builders) == 0 {
		return
	}

	// sym renders a constructor-context expression into a canonical symbol:
	// expressions the literal bound become field names; g.field reads
	// become field names; everything else renders literally.
	var symFor func(b *builder, e ast.Expr) symExpr
	symFor = func(b *builder, e ast.Expr) symExpr {
		e = ast.Unparen(e)
		if name, ok := b.bind[types.ExprString(e)]; ok {
			return symVar(name)
		}
		switch e := e.(type) {
		case *ast.BasicLit:
			if v, err := strconv.ParseInt(e.Value, 0, 64); err == nil {
				return symConst(v)
			}
		case *ast.SelectorExpr:
			if id, ok := e.X.(*ast.Ident); ok {
				if _, isBuilder := builders[info.Uses[id]]; isBuilder {
					return symVar(e.Sel.Name)
				}
			}
		case *ast.IndexExpr:
			isBuilder := func(obj types.Object) bool { _, ok := builders[obj]; return ok }
			if base, ok := indexedField(info, isBuilder, e); ok {
				return symVar(base)
			}
		case *ast.BinaryExpr:
			a, bb := symFor(b, e.X), symFor(b, e.Y)
			switch e.Op {
			case token.ADD:
				return symAdd{a, bb}
			case token.SUB:
				return symSub{a, bb}
			case token.MUL:
				return symMul{a, bb}
			}
		case *ast.CallExpr:
			if tv, ok := info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
				return symFor(b, e.Args[0])
			}
		}
		return symVar(types.ExprString(e))
	}

	// record one field-slot write.
	var record func(b *builder, key string, rhs ast.Expr)
	record = func(b *builder, key string, rhs ast.Expr) {
		tn := b.typeName
		switch rhs := ast.Unparen(rhs).(type) {
		case *ast.CallExpr:
			if id, ok := rhs.Fun.(*ast.Ident); ok && isBuiltinObj(info.Uses[id]) && id.Name == "make" && len(rhs.Args) >= 2 {
				t.setLen(tn, key, symFor(b, rhs.Args[1]))
				t.setSize(tn, key, sliceElemBytes(info.TypeOf(rhs)))
				return
			}
			if tv, ok := info.Types[rhs.Fun]; ok && tv.IsType() && len(rhs.Args) == 1 {
				// int64(g.blocks[i].NNZ()) → alias nnz[] ≡ NNZ(blocks[]).
				record(b, key, rhs.Args[0])
				return
			}
			if sel, ok := rhs.Fun.(*ast.SelectorExpr); ok {
				recv := symFor(b, sel.X)
				if aggregateMethods[sel.Sel.Name] && len(rhs.Args) == 0 {
					// nnz[] ≡ NNZ(blocks[]), inter ≡ MaxInterDim(hop).
					t.setSubst(tn, key, sel.Sel.Name+"("+recv.render()+")")
					return
				}
				switch sel.Sel.Name {
				case "ColRange", "ColSliceRange":
					// A column window [lo, hi) of the receiver: rows carry
					// over, cols are the window width. ColRange windows are
					// dense, ColSliceRange copies are CSC.
					if len(rhs.Args) == 2 {
						rows := symFor(b, &ast.SelectorExpr{X: sel.X, Sel: ast.NewIdent("Rows")})
						cols := symSub{symFor(b, rhs.Args[1]), symFor(b, rhs.Args[0])}
						t.setDims(tn, key, dimPair{rows: rows, cols: cols})
						if sel.Sel.Name == "ColSliceRange" {
							t.setKind(tn, key, "csc")
						} else {
							t.setKind(tn, key, "dense")
						}
					}
				}
			}
		case *ast.CompositeLit:
			// Struct-of-buffers slot: exdScratch{vl1: make(...), ...}.
			for _, el := range rhs.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				fname, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				if mk, ok := kv.Value.(*ast.CallExpr); ok {
					if id, ok := mk.Fun.(*ast.Ident); ok && isBuiltinObj(info.Uses[id]) && id.Name == "make" && len(mk.Args) >= 2 {
						t.setLen(tn, key+"."+fname.Name, symFor(b, mk.Args[1]))
						t.setSize(tn, key+"."+fname.Name, sliceElemBytes(info.TypeOf(mk)))
					}
				}
			}
		case *ast.Ident:
			// Matrix field bound straight from a constructor argument
			// (d: d): dims come from the argument's own fields, which the
			// literal may also have bound (m: d.Rows).
		}
	}

	// Literal fields themselves: a matrix parameter stored as a field gets
	// dims from <param>.Rows / <param>.Cols through the binding table.
	for _, b := range builders {
		for exprStr, field := range b.bind {
			rows, rok := b.bind[exprStr+".Rows"]
			cols, cok := b.bind[exprStr+".Cols"]
			// A self-reporting footprint needs no bound dimensions.
			if rok || cok || fieldKind(b.fields, field) == "words" {
				dp := dimPair{rows: symVar(exprStr + ".Rows"), cols: symVar(exprStr + ".Cols")}
				if rok {
					dp.rows = symVar(rows)
				}
				if cok {
					dp.cols = symVar(cols)
				}
				t.setDims(b.typeName, field, dp)
				if k := fieldKind(b.fields, field); k != "" {
					t.setKind(b.typeName, field, k)
				}
			}
		}
	}

	// Pass 2: follow-up writes g.field[...] = rhs and g.field = rhs.
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		switch lhs := as.Lhs[0].(type) {
		case *ast.IndexExpr:
			if sel, ok := lhs.X.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok {
					if b, ok := builders[info.Uses[id]]; ok {
						record(b, sel.Sel.Name+"[]", as.Rhs[0])
					}
				}
			}
		case *ast.SelectorExpr:
			if id, ok := lhs.X.(*ast.Ident); ok {
				if b, ok := builders[info.Uses[id]]; ok {
					record(b, lhs.Sel.Name, as.Rhs[0])
				}
			}
		}
		return true
	})
}

// indexedField recognizes base.field[i] (and base.field[i][0] with a
// constant outer index) on a recognized base object and returns the
// canonical "field[]" / "field[][0]" key.
func indexedField(info *types.Info, isBase func(types.Object) bool, e *ast.IndexExpr) (string, bool) {
	if inner, ok := e.X.(*ast.IndexExpr); ok {
		if base, ok2 := indexedFieldBase(info, isBase, inner); ok2 {
			if lit, ok3 := e.Index.(*ast.BasicLit); ok3 {
				return base + "[" + lit.Value + "]", true
			}
			return base + "[]", true
		}
		return "", false
	}
	return indexedFieldBase(info, isBase, e)
}

func indexedFieldBase(info *types.Info, isBase func(types.Object) bool, e *ast.IndexExpr) (string, bool) {
	sel, ok := e.X.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	if !isBase(info.Uses[id]) {
		return "", false
	}
	return sel.Sel.Name + "[]", true
}

func (t *shapeTable) setLen(typeName, key string, e symExpr) {
	if t.lens[typeName] == nil {
		t.lens[typeName] = make(map[string]symExpr)
	}
	t.lens[typeName][key] = e
}

func (t *shapeTable) setDims(typeName, key string, d dimPair) {
	if t.dims[typeName] == nil {
		t.dims[typeName] = make(map[string]dimPair)
	}
	t.dims[typeName][key] = d
}

func (t *shapeTable) setSubst(typeName, v, alias string) {
	if t.subst[typeName] == nil {
		t.subst[typeName] = make(map[string]string)
	}
	t.subst[typeName][v] = alias
}

func (t *shapeTable) setSize(typeName, key string, n int64) {
	if t.sizes[typeName] == nil {
		t.sizes[typeName] = make(map[string]int64)
	}
	t.sizes[typeName][key] = n
}

func (t *shapeTable) setKind(typeName, key, kind string) {
	if t.kinds[typeName] == nil {
		t.kinds[typeName] = make(map[string]string)
	}
	t.kinds[typeName][key] = kind
}

// sizeOf returns the recorded element byte size of a slice key, defaulting
// to one 8-byte word.
func (t *shapeTable) sizeOf(typeName, key string) int64 {
	if n, ok := t.sizes[typeName][key]; ok {
		return n
	}
	return 8
}

// kindOf returns the recorded storage kind of a matrix key ("" if unknown).
func (t *shapeTable) kindOf(typeName, key string) string {
	return t.kinds[typeName][key]
}

// substFor returns the alias table of one operator type (may be nil).
func (t *shapeTable) substFor(typeName string) map[string]string {
	return t.subst[typeName]
}

// allocSizes is the 64-bit size model allocation contracts are priced
// under — the word size every byte contract in DESIGN.md assumes.
var allocSizes = types.StdSizes{WordSize: 8, MaxAlign: 8}

// sliceElemBytes returns the byte size of one element of a slice type,
// defaulting to one 8-byte word when the type is unresolved.
func sliceElemBytes(t types.Type) int64 {
	if t != nil {
		if s, ok := t.Underlying().(*types.Slice); ok {
			if n := allocSizes.Sizeof(s.Elem()); n > 0 {
				return n
			}
		}
	}
	return 8
}

// fieldKind classifies a struct field's matrix storage by its named type.
func fieldKind(st *types.Struct, field string) string {
	if st == nil {
		return ""
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() != field {
			continue
		}
		switch namedTypeName(st.Field(i).Type()) {
		case "Dense":
			return "dense"
		case "CSC":
			return "csc"
		}
		if selfReporting(st.Field(i).Type()) {
			return "words"
		}
	}
	return ""
}

// aggregateMethods are the zero-argument size methods whose value is a
// shape symbol of their receiver: NNZ(blocks[]), or an invariant of a
// factor chain or dictionary hop (VecWords(fd), MaxInterDim(hop), …).
var aggregateMethods = map[string]bool{"NNZ": true, "VecWords": true, "ResidentWords": true, "MaxInterDim": true}

// selfReporting reports whether values of type t report their own resident
// footprint through a ResidentWords method (faust.FastDict, dist's hops).
func selfReporting(t types.Type) bool {
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, "ResidentWords")
	return obj != nil
}

// compositeOf unwraps &T{...} or T{...}.
func compositeOf(e ast.Expr) *ast.CompositeLit {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = u.X
	}
	if lit, ok := e.(*ast.CompositeLit); ok {
		return lit
	}
	return nil
}

// namedTypeName returns the bare name of a (possibly pointered) named type.
func namedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}
