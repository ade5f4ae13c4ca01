package main

import (
	"bytes"
	"encoding/json"
	"go/format"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestListPrintsSuite(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list exited %d: %s", code, errb.String())
	}
	for _, check := range []string{"norand", "noclock", "goroutines",
		"collective", "hotalloc", "errcheck", "panicmsg", "nofloateq", "exporteddoc",
		"schedule", "sharedstate", "lockorder", "detorder"} {
		if !strings.Contains(out.String(), check) {
			t.Errorf("-list output missing %q:\n%s", check, out.String())
		}
	}
}

func TestFindingsExitNonzero(t *testing.T) {
	// The norand fixtures live under testdata of the lint package; loaded
	// explicitly they are an ordinary package outside internal/rng, so the
	// check must fire and the command must fail.
	var out, errb bytes.Buffer
	code := run([]string{"-checks", "norand", "./internal/lint/testdata/norand"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d (stderr %s), want 1", code, errb.String())
	}
	if !strings.Contains(out.String(), "math/rand") {
		t.Fatalf("output does not name the violation:\n%s", out.String())
	}
}

func TestJSONOutput(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-json", "-checks", "norand", "./internal/lint/testdata/norand"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d (stderr %s), want 1", code, errb.String())
	}
	var findings []struct {
		Check   string `json:"check"`
		Message string `json:"message"`
	}
	if err := json.Unmarshal(out.Bytes(), &findings); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if len(findings) == 0 || findings[0].Check != "norand" {
		t.Fatalf("unexpected findings %+v", findings)
	}
}

func TestUnknownCheckRejected(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-checks", "nonsense"}, &out, &errb); code != 2 {
		t.Fatalf("unknown check exited %d, want 2", code)
	}
}

func TestCleanTreeExitsZero(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"./..."}, &out, &errb); code != 0 {
		t.Fatalf("linting the tree exited %d:\n%s%s", code, out.String(), errb.String())
	}
}

func TestChecksExclusion(t *testing.T) {
	// The norand fixtures violate norand only; excluding it from the full
	// suite must leave the directory clean.
	for _, spec := range []string{"all,-norand", "-norand"} {
		var out, errb bytes.Buffer
		code := run([]string{"-checks", spec, "./internal/lint/testdata/norand"}, &out, &errb)
		if code != 0 {
			t.Errorf("-checks %s exited %d:\n%s%s", spec, code, out.String(), errb.String())
		}
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-checks", "-nonsense"}, &out, &errb); code != 2 {
		t.Errorf("unknown exclusion exited %d, want 2", code)
	}
	if code := run([]string{"-checks", "norand,-norand"}, &out, &errb); code != 2 {
		t.Errorf("empty selection exited %d, want 2", code)
	}
}

// writeTempModule lays out a one-package module and returns its directory.
func writeTempModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module tmpmod\n\ngo 1.21\n"
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestFixAppliesAndIsIdempotent(t *testing.T) {
	dir := writeTempModule(t, map[string]string{
		"demo/demo.go": "package demo\n\nfunc f() { panic(\"boom\") }\n",
	})
	target := filepath.Join(dir, "demo", "demo.go")

	var out, errb bytes.Buffer
	if code := run([]string{"-C", dir, "-checks", "panicmsg", "./demo"}, &out, &errb); code != 1 {
		t.Fatalf("pre-fix exit = %d (stderr %s), want 1", code, errb.String())
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"-C", dir, "-checks", "panicmsg", "-fix", "./demo"}, &out, &errb); code != 0 {
		t.Fatalf("-fix exit = %d (out %s, stderr %s), want 0", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "applied 1 fix(es)") {
		t.Errorf("-fix did not report the applied fix:\n%s", out.String())
	}
	fixedSrc, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(fixedSrc), `panic("demo: boom")`) {
		t.Fatalf("fix did not rewrite the panic message:\n%s", fixedSrc)
	}
	if formatted, err := format.Source(fixedSrc); err != nil || !bytes.Equal(formatted, fixedSrc) {
		t.Fatalf("fixed file is not gofmt-clean (err %v):\n%s", err, fixedSrc)
	}

	// Idempotency: a second -fix run finds nothing and leaves bytes alone.
	out.Reset()
	errb.Reset()
	if code := run([]string{"-C", dir, "-checks", "panicmsg", "-fix", "./demo"}, &out, &errb); code != 0 {
		t.Fatalf("second -fix exit = %d, want 0", code)
	}
	again, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fixedSrc, again) {
		t.Fatal("-fix is not idempotent: second run changed the file")
	}
}

func TestSARIFOutput(t *testing.T) {
	dir := t.TempDir()
	report := filepath.Join(dir, "report.sarif")
	var out, errb bytes.Buffer
	code := run([]string{"-checks", "norand", "-sarif", report, "./internal/lint/testdata/norand"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d (stderr %s), want 1", code, errb.String())
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, data)
	}
	if doc.Version != "2.1.0" || len(doc.Runs) != 1 || doc.Runs[0].Tool.Driver.Name != "extdict-lint" {
		t.Fatalf("unexpected SARIF envelope: %+v", doc)
	}
	if len(doc.Runs[0].Results) == 0 || doc.Runs[0].Results[0].RuleID != "norand" {
		t.Fatalf("expected norand results, got %+v", doc.Runs[0].Results)
	}
	uri := doc.Runs[0].Results[0].Locations[0].PhysicalLocation.ArtifactLocation.URI
	if filepath.IsAbs(uri) || !strings.Contains(uri, "internal/lint/testdata/norand") {
		t.Fatalf("result URI should be root-relative, got %q", uri)
	}
}

func TestTypeErrorExitsTwo(t *testing.T) {
	dir := writeTempModule(t, map[string]string{
		"broken/broken.go": "package broken\n\nvar x undefinedType\n",
	})
	var out, errb bytes.Buffer
	if code := run([]string{"-C", dir, "./broken"}, &out, &errb); code != 2 {
		t.Fatalf("type-broken package exited %d (stderr %s), want 2", code, errb.String())
	}
	if !strings.Contains(errb.String(), "type error") {
		t.Fatalf("stderr does not mention the type error:\n%s", errb.String())
	}
}
