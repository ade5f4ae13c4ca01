package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// symExpr is a symbolic integer expression over named dimensions — the
// schedule analyzer's collective vector lengths. Variables are canonical
// dimension names derived from operator constructors: a field ("m", "l"),
// a per-rank slot of a field ("ranges[][0]"), or the length of a captured
// slice ("len(batch)").
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

// symUnknown marks a quantity the analysis could not resolve; the schedule
// analyzer reports it instead of guessing a length.
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

// --- constructor shape analysis ---

// shapeTable is the per-package constructor analysis: for every named
// operator type it records, keyed by canonical field reference, the
// symbolic length of slice fields ("scratch[]" → m, "scratch[].vl1" → l).
// The canonical key drops the concrete index: scratch[i] in the constructor
// and scratch[r.ID] in the rank body both canonicalize to "scratch[]" — the
// per-rank slots deliberately share one symbol, which is exactly the
// shape-uniformity the collective schedule relies on.
type shapeTable struct {
	lens map[string]map[string]symExpr // type -> key -> slice length
}

// buildShapes scans every non-test function of the package for constructor
// idiom: a builder assignment g := &T{field: expr, ...} followed by
// per-slot writes g.field[i] = make(...) or a composite of makes. Field
// expressions in the composite literal become the canonical names — a
// later occurrence of the same expression (a.Rows when the literal said
// m: a.Rows) renders as the field name (m).
func buildShapes(pkg *Package) *shapeTable {
	t := &shapeTable{lens: make(map[string]map[string]symExpr)}
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
		b := &builder{typeName: name, bind: make(map[string]string)}
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

	// isMake reports whether e is a builtin make call with a length.
	isMake := func(e ast.Expr) (*ast.CallExpr, bool) {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok || len(call.Args) < 2 {
			return nil, false
		}
		id, ok := call.Fun.(*ast.Ident)
		return call, ok && isBuiltinObj(info.Uses[id]) && id.Name == "make"
	}

	// record one field-slot write: a make, or a struct-of-buffers slot
	// (exdScratch{vl1: make(...), ...}).
	record := func(b *builder, key string, rhs ast.Expr) {
		if mk, ok := isMake(rhs); ok {
			t.setLen(b.typeName, key, symFor(b, mk.Args[1]))
			return
		}
		lit, ok := ast.Unparen(rhs).(*ast.CompositeLit)
		if !ok {
			return
		}
		for _, el := range lit.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			fname, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			if mk, ok := isMake(kv.Value); ok {
				t.setLen(b.typeName, key+"."+fname.Name, symFor(b, mk.Args[1]))
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
