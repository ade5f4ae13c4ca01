package main

import (
	"path/filepath"
	"strings"
	"testing"

	"extdict/internal/mat"
	"extdict/internal/matio"
)

func TestRunRejectsBadInvocations(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring of the error; "" accepts any error
	}{
		{nil, ""},
		{[]string{"frobnicate"}, ""},
		{[]string{"gen"}, ""},                      // missing -out
		{[]string{"tune"}, ""},                     // missing -in
		{[]string{"fit"}, ""},                      // missing -in
		{[]string{"power"}, ""},                    // missing -in
		{[]string{"tune", "-in", "/nope.csv"}, ""}, // unreadable input
		{[]string{"tune", "-in", "x.csv", "-objective", "speed"}, "unknown objective"},
		// An unknown transform family, and flags the solver subcommands
		// do not define.
		{[]string{"power", "-in", "x.csv", "-transform", "fastdict"}, `unknown transform family "fastdict"`},
		{[]string{"power", "-in", "x.csv", "-factors", "3"}, "flag provided but not defined: -factors"},
		{[]string{"lasso", "-in", "x.csv", "-y", "y.csv", "-nnzbudget", "400"}, "flag provided but not defined: -nnzbudget"},
		{[]string{"cluster", "-in", "x.csv", "-reuse", "10"}, "flag provided but not defined: -reuse"},
	}
	for _, c := range cases {
		err := run(c.args)
		if err == nil {
			t.Errorf("run(%v) accepted", c.args)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%v): error %q does not mention %q", c.args, err, c.want)
		}
	}
}

func TestEndToEndPipeline(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "d.edm")
	dict := filepath.Join(dir, "D.csv")

	// An observation vector for the lasso subcommand: first row of the
	// dataset works fine as a synthetic target.
	yPath := filepath.Join(dir, "y.csv")

	steps := [][]string{
		{"gen", "-preset", "salinas", "-scale", "0.04", "-seed", "5", "-out", data},
		{"tune", "-in", data, "-eps", "0.1", "-nodes", "2", "-cores", "2"},
		{"tune", "-in", data, "-eps", "0.1", "-objective", "memory"},
		{"fit", "-in", data, "-eps", "0.1", "-outD", dict},
		{"fit", "-in", data, "-eps", "0.1", "-L", "40"},
		{"power", "-in", data, "-k", "2", "-nodes", "1", "-cores", "2"},
		{"power", "-in", data, "-k", "2", "-raw"},
		{"lasso", "-in", data, "-y", yPath, "-iters", "50"},
		{"lasso", "-in", data, "-y", yPath, "-raw", "-iters", "20", "-out", filepath.Join(dir, "x.csv")},
		{"lasso", "-in", data, "-y", yPath, "-sgd", "16", "-iters", "20"},
		{"cluster", "-in", data, "-k", "2", "-raw"},
		// The modeled-cost choice between raw AᵀA and ExD.
		{"power", "-in", data, "-k", "2", "-transform", "auto"},
		{"lasso", "-in", data, "-y", yPath, "-transform", "auto", "-iters", "20"},
		{"cluster", "-in", data, "-k", "2", "-transform", "auto"},
		// Chaos mode: the supervisor must absorb the injected faults and
		// still return a solution.
		{"lasso", "-in", data, "-y", yPath, "-raw", "-iters", "60", "-faults", "7", "-cores", "4"},
		{"power", "-in", data, "-k", "2", "-raw", "-faults", "7", "-cores", "4"},
	}
	for i, args := range steps {
		// Write the observation vector once the dataset exists (the gen
		// step must run first).
		if i == 1 {
			m, err := matio.Load(data)
			if err != nil {
				t.Fatal(err)
			}
			y := matDenseFromSlice(m.Col(0, nil)) // observations live in signal space (length M)
			if err := matio.Save(yPath, y); err != nil {
				t.Fatal(err)
			}
		}
		if err := run(args); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
	}
}

// matDenseFromSlice wraps a vector as a 1×n matrix for matio.
func matDenseFromSlice(v []float64) *mat.Dense {
	out := mat.NewDense(1, len(v))
	copy(out.Row(0), v)
	return out
}

func TestParseObjective(t *testing.T) {
	for in, want := range map[string]perfObjective{
		"runtime": perfRuntime, "Energy": perfEnergy, "MEMORY": perfMemory,
	} {
		got, err := parseObjective(in)
		if err != nil || got != want {
			t.Fatalf("parseObjective(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := parseObjective("fast"); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Fatal("bad objective accepted")
	}
}
