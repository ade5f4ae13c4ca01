package lint

import (
	"strings"
	"testing"
)

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 13 {
		t.Fatalf("expected 13 analyzers, have %d", len(all))
	}
	seen := make(map[string]bool)
	for _, a := range all {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Fatalf("analyzer %+v is incomplete", a)
		}
		if seen[a.Name] {
			t.Fatalf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if ByName(a.Name) != a {
			t.Fatalf("ByName(%q) did not round-trip", a.Name)
		}
	}
	if ByName("nonsense") != nil {
		t.Fatal("ByName should return nil for unknown checks")
	}
}

func TestMalformedDirective(t *testing.T) {
	pkg := parseFixture(t, fixturePath("directive", "malformed.go"), "extdict/internal/solver")
	findings := Run(pkg, []*Analyzer{NoFloatEq})
	var gotDirective, gotFloat bool
	for _, f := range findings {
		switch f.Check {
		case "directive":
			gotDirective = true
			if !strings.Contains(f.Message, "non-empty reason") {
				t.Errorf("directive finding message %q should demand a reason", f.Message)
			}
		case "nofloateq":
			gotFloat = true
		}
	}
	if !gotDirective {
		t.Error("reason-less directive was not reported")
	}
	if !gotFloat {
		t.Error("finding under a malformed directive must not be suppressed")
	}
}

func TestModuleRootAndLoad(t *testing.T) {
	root, module, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	if module != "extdict" {
		t.Fatalf("module = %q", module)
	}
	pkgs, err := Load(root, module, []string{"./internal/lint"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].ImportPath != "extdict/internal/lint" {
		t.Fatalf("loaded %+v", pkgs)
	}
	if len(pkgs[0].Files) < 10 {
		t.Fatalf("expected this package's files to be parsed, got %d", len(pkgs[0].Files))
	}
	// Recursive patterns skip testdata: no package may claim a fixture path.
	pkgs, err = Load(root, module, []string{"./internal/..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		if strings.Contains(p.ImportPath, "testdata") {
			t.Fatalf("testdata leaked into load: %s", p.ImportPath)
		}
	}
}

func TestFindingString(t *testing.T) {
	pkg := parseFixture(t, fixturePath("nofloateq", "fixture.go"), "extdict/internal/solver")
	findings := Run(pkg, []*Analyzer{NoFloatEq})
	if len(findings) == 0 {
		t.Fatal("fixture produced no findings")
	}
	s := findings[0].String()
	if !strings.Contains(s, "fixture.go:") || !strings.HasSuffix(s, "(nofloateq)") {
		t.Fatalf("finding renders as %q", s)
	}
}

func TestImportName(t *testing.T) {
	pkg := parseFixture(t, fixturePath("noclock", "bad.go"), "extdict/internal/solver")
	name, ok := ImportName(pkg.Files[0], "time")
	if !ok || name != "time" {
		t.Fatalf("ImportName(time) = %q, %v", name, ok)
	}
	if _, ok := ImportName(pkg.Files[0], "math/rand"); ok {
		t.Fatal("ImportName reported an import that is not there")
	}
}
