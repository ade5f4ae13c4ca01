package lint

// All returns every project analyzer in stable report order.
func All() []*Analyzer {
	return []*Analyzer{
		NoRand,
		NoClock,
		Goroutines,
		Collective,
		HotAlloc,
		ErrCheck,
		PanicMsg,
		NoFloatEq,
		ExportedDoc,
		Schedule,
		SharedState,
		LockOrder,
		DetOrder,
	}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// hasPrefixPkg reports whether importPath is pkg or a subpackage of pkg.
func hasPrefixPkg(importPath, pkg string) bool {
	return importPath == pkg || len(importPath) > len(pkg) &&
		importPath[:len(pkg)] == pkg && importPath[len(pkg)] == '/'
}

// inAnyPkg reports whether importPath lies in any of the listed packages.
func inAnyPkg(importPath string, pkgs ...string) bool {
	for _, pkg := range pkgs {
		if hasPrefixPkg(importPath, pkg) {
			return true
		}
	}
	return false
}
