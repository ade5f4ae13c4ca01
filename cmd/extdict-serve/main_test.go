package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"extdict/internal/mat"
	"extdict/internal/matio"
)

func TestDictBaseName(t *testing.T) {
	cases := map[string]string{
		"D.edm":            "D",
		"/a/b/salinas.csv": "salinas",
		"dict":             "dict",
		"a/b/.hidden":      ".hidden",
	}
	for in, want := range cases {
		if got := dictBaseName(in); got != want {
			t.Errorf("dictBaseName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestRunFlagErrors(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("run with no -dict should fail")
	}
	if err := run([]string{"-dict", "name="}); err == nil {
		t.Error("empty path in -dict should fail")
	}
	if err := run([]string{"-dict", "a=x.edm", "-dict", "a=y.edm"}); err == nil {
		t.Error("duplicate names should fail")
	}
	if err := run([]string{"-dict", "/nonexistent/dict.edm"}); err == nil {
		t.Error("missing dictionary file should fail")
	}
}

func TestRunLoadsDictionaries(t *testing.T) {
	// A bad listen address makes run return right after the load phase, so
	// the load path is testable without signal plumbing.
	dir := t.TempDir()
	path := filepath.Join(dir, "d.edm")
	d := mat.NewDense(4, 6)
	for i := range d.Data {
		d.Data[i] = float64(i + 1)
	}
	if err := matio.Save(path, d); err != nil {
		t.Fatalf("save: %v", err)
	}
	err := run([]string{"-dict", path, "-addr", "256.0.0.1:0"})
	if err == nil {
		t.Fatal("unlistenable address should fail")
	}
	if _, statErr := os.Stat(path); statErr != nil {
		t.Fatalf("dictionary file vanished: %v", statErr)
	}
}

func TestRunRejectsCorruptDictionary(t *testing.T) {
	// Column 0 overflows ‖·‖², so normalization zeroes it; column 1 holds
	// an Inf, which normalization turns into NaN. Either must stop the
	// server before it listens (the address is unlistenable, so a missed
	// check fails on the listen error instead of serving).
	dir := t.TempDir()
	for name, csv := range map[string]string{
		"overflow.csv": "1e200,1\n1e200,0\n",
		"inf.csv":      "1,Inf\n0,1\n",
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
			t.Fatalf("write: %v", err)
		}
		err := run([]string{"-dict", path, "-addr", "256.0.0.1:0"})
		if err == nil || !strings.Contains(err.Error(), "column") {
			t.Errorf("%s: run returned %v, want a dictionary column error", name, err)
		}
	}
}
