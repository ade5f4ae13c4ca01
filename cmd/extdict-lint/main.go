// Command extdict-lint runs the project's invariant analyzers (package
// extdict/internal/lint) over the repository. It is stdlib-only and wired
// into scripts/ci.sh as a build gate.
//
// Usage:
//
//	extdict-lint [-json] [-fix] [-sarif report.sarif] [-trace trace.json] [-checks spec] [-C dir] [packages...]
//
// Package patterns follow the go tool's shape ("./...", "./internal/dist")
// and are resolved relative to the module root; the default is the whole
// module. -C runs the command as if started in dir.
//
// -checks selects analyzers by name: a comma-separated list of names to
// include, names prefixed with "-" to exclude, and the keyword "all" for
// the full suite. "-checks errcheck,hotalloc" runs two checks;
// "-checks all,-errcheck" (or just "-checks -errcheck") runs everything
// else. -list prints the suite with the invariant each check enforces.
//
// -fix applies every machine-applicable suggested fix, gofmt-formats the
// touched files, and reports only the findings that remain; fixed findings
// do not count toward the exit code. -sarif additionally writes the reported
// findings as a SARIF 2.1.0 document for CI viewers.
//
// -trace writes the static collective schedule of every rank operator in
// the loaded packages (the schedule analyzer's abstract interpretation) as
// a JSON array, one entry per rank function, ordered by name. "-" writes to
// stdout. CI diffs this against the checked-in golden trace so schedule
// drift is caught at lint time.
//
// Exit codes are stable: 0 — no findings; 1 — findings reported (after -fix,
// findings remaining); 2 — usage, load, or type-check error. Type-check
// errors are printed and force exit 2 even when no analyzer fires, so a
// broken tree cannot pass as "clean".
//
// Suppress individual findings with
//
//	//lint:ignore <check>[,<check>...] <reason>
//
// on the offending line or the line above it. Suppressed findings are also
// exempt from -fix.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"extdict/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("extdict-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	list := fs.Bool("list", false, "list the analyzer suite and exit")
	checks := fs.String("checks", "", `check selection: names to run, -name to exclude, "all" for the suite`)
	fix := fs.Bool("fix", false, "apply suggested fixes and report only what remains")
	sarifPath := fs.String("sarif", "", "also write findings as SARIF 2.1.0 to this file")
	tracePath := fs.String("trace", "", `write static collective schedules as JSON to this file ("-" for stdout)`)
	chdir := fs.String("C", "", "run as if started in this directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers, err := selectChecks(*checks)
	if err != nil {
		fmt.Fprintln(stderr, "extdict-lint:", err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dir := *chdir
	if dir == "" {
		dir, err = os.Getwd()
		if err != nil {
			fmt.Fprintln(stderr, "extdict-lint:", err)
			return 2
		}
	}
	root, module, err := lint.ModuleRoot(dir)
	if err != nil {
		fmt.Fprintln(stderr, "extdict-lint:", err)
		return 2
	}
	pkgs, err := lint.Load(root, module, patterns)
	if err != nil {
		fmt.Fprintln(stderr, "extdict-lint:", err)
		return 2
	}

	prog := lint.NewProgram(pkgs)
	typeErrors := 0
	var findings []lint.Finding
	var traces []lint.OpTrace
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			typeErrors++
			fmt.Fprintf(stderr, "extdict-lint: type error: %v\n", terr)
		}
		findings = append(findings, lint.RunProgram(prog, pkg, analyzers)...)
		if *tracePath != "" {
			traces = append(traces, lint.Traces(prog, pkg)...)
		}
	}

	if *tracePath != "" {
		if err := writeTraces(stdout, *tracePath, traces); err != nil {
			fmt.Fprintln(stderr, "extdict-lint:", err)
			return 2
		}
	}

	if *fix {
		fixed, remaining, err := lint.ApplyFixes(findings)
		if err != nil {
			fmt.Fprintln(stderr, "extdict-lint:", err)
			return 2
		}
		if len(fixed) > 0 {
			fmt.Fprintf(stdout, "extdict-lint: applied %d fix(es)\n", len(fixed))
		}
		findings = remaining
	}

	if *sarifPath != "" {
		f, err := os.Create(*sarifPath)
		if err == nil {
			err = lint.WriteSARIF(f, root, analyzers, findings)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(stderr, "extdict-lint:", err)
			return 2
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lint.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(stderr, "extdict-lint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
		if len(findings) > 0 {
			fmt.Fprintf(stdout, "extdict-lint: %d finding(s)\n", len(findings))
		}
	}
	switch {
	case typeErrors > 0:
		fmt.Fprintf(stderr, "extdict-lint: %d type error(s)\n", typeErrors)
		return 2
	case len(findings) > 0:
		return 1
	}
	return 0
}

// writeTraces emits the static collective schedules as an indented JSON
// array, sorted by function name across all loaded packages so the output
// is diffable against a checked-in golden file.
func writeTraces(stdout io.Writer, path string, traces []lint.OpTrace) error {
	sort.Slice(traces, func(i, j int) bool { return traces[i].Func < traces[j].Func })
	if traces == nil {
		traces = []lint.OpTrace{}
	}
	b, err := json.MarshalIndent(traces, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err = stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selectChecks resolves a -checks spec into an analyzer list: bare names
// include, "-name" excludes, "all" expands to the full suite. A spec with
// only exclusions starts from the full suite.
func selectChecks(spec string) ([]*lint.Analyzer, error) {
	if strings.TrimSpace(spec) == "" {
		return lint.All(), nil
	}
	var include []*lint.Analyzer
	exclude := make(map[string]bool)
	sawInclude := false
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(name, "-"); ok {
			if lint.ByName(rest) == nil {
				return nil, fmt.Errorf("unknown check %q", rest)
			}
			exclude[rest] = true
			continue
		}
		sawInclude = true
		if name == "all" {
			include = append(include, lint.All()...)
			continue
		}
		a := lint.ByName(name)
		if a == nil {
			return nil, fmt.Errorf("unknown check %q", name)
		}
		include = append(include, a)
	}
	if !sawInclude {
		include = lint.All()
	}
	var out []*lint.Analyzer
	seen := make(map[string]bool)
	for _, a := range include {
		if !seen[a.Name] && !exclude[a.Name] {
			seen[a.Name] = true
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-checks %q selects no analyzers", spec)
	}
	return out, nil
}
