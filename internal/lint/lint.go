// Package lint is extdict's project-invariant static analyzer. It is built
// purely on the standard library (go/ast, go/parser, go/types) so the module
// stays dependency-free, and it encodes the written invariants the paper's
// cost model relies on: deterministic randomness, wall-clock confinement,
// goroutine ownership, exact flop accounting, symmetric collective
// schedules, and allocation-free hot loops.
//
// The engine runs in two layers. Every package is parsed, and additionally
// type-checked with go/types through a module-local importer (see
// typecheck.go), so analyzers see resolved objects — aliased imports,
// dot imports, and indirect references cannot dodge a check. Analyzers that
// need types degrade to their syntactic behavior when type information is
// unavailable for a node.
//
// An Analyzer inspects one package at a time and reports findings at token
// positions; a finding may carry a machine-applicable SuggestedFix that
// cmd/extdict-lint -fix applies. Findings can be suppressed with a justified
// directive:
//
//	//lint:ignore <check>[,<check>...] <reason>
//
// placed on the offending line or on the line directly above it. A directive
// without a reason is itself a finding — exceptions must be argued, not
// waved through. Suppressed findings are dropped before -fix runs, so a
// justified exception is never machine-edited.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// TextEdit is one replacement of the byte range [Start, End) of Filename
// with NewText. Offsets are byte offsets into the file's current content.
type TextEdit struct {
	// Filename is the file the edit applies to.
	Filename string `json:"filename"`
	// Start is the byte offset of the first replaced byte.
	Start int `json:"start"`
	// End is the byte offset one past the last replaced byte.
	End int `json:"end"`
	// NewText replaces the range.
	NewText string `json:"new_text"`
}

// SuggestedFix is a machine-applicable correction for a finding: a set of
// non-overlapping textual edits plus a human-readable description. Fixes
// must be behavior-preserving up to the invariant being enforced —
// cmd/extdict-lint -fix applies them and gofmt-formats the result.
type SuggestedFix struct {
	// Message describes the fix ("prefix the panic message with ...").
	Message string `json:"message"`
	// Edits are the textual replacements, in file order.
	Edits []TextEdit `json:"edits"`
}

// Finding is one rule violation at a source position.
type Finding struct {
	// Check names the analyzer that produced the finding.
	Check string `json:"check"`
	// Pos locates the violation.
	Pos token.Position `json:"pos"`
	// Message explains the violation and how to fix or suppress it.
	Message string `json:"message"`
	// Fix, when non-nil, is a machine-applicable correction.
	Fix *SuggestedFix `json:"suggested_fix,omitempty"`
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Check)
}

// Package is one parsed package unit: every file in a directory, sharing a
// FileSet. Test files are included; analyzers that do not apply to tests set
// SkipTests.
type Package struct {
	// Dir is the directory the files were read from.
	Dir string
	// ImportPath is the package's module-qualified path, e.g.
	// "extdict/internal/dist". Analyzers use it to scope allowlists.
	ImportPath string
	// Fset resolves token positions for all Files.
	Fset *token.FileSet
	// Files are the parsed files, with comments.
	Files []*ast.File

	// Types is the type-checked package object for the primary (non-_test)
	// file group; nil when the package was parsed without type checking.
	Types *types.Package
	// TypesInfo holds resolved identifiers, types, and selections for every
	// file group that was type-checked (in-package test files check together
	// with the primary group, external _test packages as their own unit,
	// all recording into this one Info). Nil for purely syntactic loads.
	TypesInfo *types.Info
	// TypeErrors collects type-check diagnostics. They are non-fatal to the
	// engine — analyzers fall back to syntactic behavior for nodes without
	// type info — but cmd/extdict-lint treats them as a load failure
	// (exit 2) so a broken tree cannot silently pass as "no findings".
	TypeErrors []error
}

// Analyzer is one named check over a package.
type Analyzer struct {
	// Name identifies the check in reports and ignore directives.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// SkipTests excludes _test.go files from this check.
	SkipTests bool
	// Run inspects the pass's package and reports findings.
	Run func(*Pass)
}

// Pass is the per-(analyzer, package) invocation context.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Pkg is the package under analysis.
	Pkg *Package
	// Prog is the whole-program context (call graph and function summaries).
	// Run populates it with a single-package program; RunProgram shares one
	// program across every package, so interprocedural analyzers see helpers
	// in other packages. Never nil for analyzers run through Run/RunProgram.
	Prog *Program

	file     *ast.File // file currently being walked (set by the engine)
	findings []Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.findings = append(p.findings, Finding{
		Check:   p.Analyzer.Name,
		Pos:     p.Pkg.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// SuggestFix attaches a machine-applicable fix to the most recently
// reported finding. Calling it without a prior Reportf panics: a fix only
// makes sense as a correction for a concrete finding.
func (p *Pass) SuggestFix(msg string, edits ...TextEdit) {
	if len(p.findings) == 0 {
		panic("lint: SuggestFix without a preceding Reportf")
	}
	p.findings[len(p.findings)-1].Fix = &SuggestedFix{Message: msg, Edits: edits}
}

// Edit builds a TextEdit replacing the source range [pos, end) with newText,
// resolving byte offsets through the package's FileSet.
func (p *Pass) Edit(pos, end token.Pos, newText string) TextEdit {
	start := p.Pkg.Fset.Position(pos)
	stop := p.Pkg.Fset.Position(end)
	return TextEdit{
		Filename: start.Filename,
		Start:    start.Offset,
		End:      stop.Offset,
		NewText:  newText,
	}
}

// TypeOf returns the resolved type of e, or nil when the package was not
// type-checked or e lies in a region that failed to check. Analyzers treat
// a nil result as "unknown" and fall back to syntactic reasoning.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Pkg.TypesInfo == nil {
		return nil
	}
	return p.Pkg.TypesInfo.TypeOf(e)
}

// EachFile invokes fn for every file in the package, honoring the analyzer's
// SkipTests setting. Analyzers should iterate with this rather than ranging
// over Pkg.Files directly.
func (p *Pass) EachFile(fn func(*ast.File)) {
	for _, f := range p.Pkg.Files {
		if p.Analyzer.SkipTests && strings.HasSuffix(p.position(f.Pos()).Filename, "_test.go") {
			continue
		}
		p.file = f
		fn(f)
	}
	p.file = nil
}

func (p *Pass) position(pos token.Pos) token.Position {
	return p.Pkg.Fset.Position(pos)
}

// ImportName returns the local name under which file imports path, and
// whether it imports it at all. An unnamed import of "math/rand" yields
// "rand"; a named import follows the alias. Blank and dot imports report
// their literal spelling.
func ImportName(file *ast.File, path string) (string, bool) {
	for _, imp := range file.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if p != path {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name, true
		}
		if i := strings.LastIndex(p, "/"); i >= 0 {
			p = p[i+1:]
		}
		return p, true
	}
	return "", false
}

// Run executes every analyzer over the package and returns the surviving
// findings, sorted by position: suppressed findings are dropped, and
// malformed ignore directives are reported under the "directive" check.
// Interprocedural analyzers see a single-package program; use RunProgram to
// resolve helpers across package boundaries.
func Run(pkg *Package, analyzers []*Analyzer) []Finding {
	return RunProgram(NewProgram([]*Package{pkg}), pkg, analyzers)
}

// RunProgram executes every analyzer over one package of a whole-module
// program, so interprocedural analyzers (collective, schedule, detorder)
// resolve calls into every package the program was built from.
func RunProgram(prog *Program, pkg *Package, analyzers []*Analyzer) []Finding {
	dirs, bad := collectDirectives(pkg)
	var out []Finding
	out = append(out, bad...)
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Pkg: pkg, Prog: prog}
		a.Run(pass)
		for _, f := range pass.findings {
			if !dirs.suppresses(f) {
				out = append(out, f)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Check < out[j].Check
	})
	return out
}
