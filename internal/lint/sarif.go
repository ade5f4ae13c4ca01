package lint

import (
	"encoding/json"
	"io"
	"path/filepath"
	"strings"
)

// Minimal SARIF 2.1.0 document shapes — only the fields CI viewers
// (GitHub code scanning, VS Code SARIF viewer) require.
type sarifDoc struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
	FullDescription  sarifMessage `json:"fullDescription"`
	HelpURI          string       `json:"helpUri"`
}

// designHeadings maps each analyzer to its DESIGN.md section heading. The
// rule's helpUri is the GitHub anchor of that heading, so a SARIF viewer
// jumps straight to the invariant's rationale. TestSARIFHelpAnchors pins
// every entry against the actual document, so a renamed section (or a new
// analyzer without one) breaks loudly.
var designHeadings = map[string]string{
	"norand":      "`norand` — randomness determinism",
	"noclock":     "`noclock` — wall-clock confinement",
	"goroutines":  "`goroutines` — concurrency ownership",
	"collective":  "`collective` — static SPMD symmetry",
	"schedule":    "`schedule` — static collective traces vs the runtime",
	"hotalloc":    "`hotalloc` — allocation-free hot paths",
	"errcheck":    "`errcheck` — no discarded errors",
	"panicmsg":    "`panicmsg` — crash attribution",
	"nofloateq":   "`nofloateq` — tolerance discipline",
	"exporteddoc": "`exporteddoc` — documented internal API surface",
	"sharedstate": "`sharedstate` — shared-state capture safety",
	"lockorder":   "`lockorder` — lock acquisition order and discipline",
	"detorder":    "`detorder` — whole-program determinism order",
}

// designHelpURI resolves an analyzer name to its DESIGN.md anchor; analyzers
// without a pinned heading link to the document head.
func designHelpURI(name string) string {
	h, ok := designHeadings[name]
	if !ok {
		return "DESIGN.md"
	}
	return "DESIGN.md#" + githubSlug(h)
}

// githubSlug renders a heading the way GitHub's anchor generator does:
// lowercased, spaces to hyphens, everything else but letters, digits, and
// hyphens dropped (backticks, em-dashes, parentheses, periods).
func githubSlug(h string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(h) {
		switch {
		case r == ' ':
			b.WriteRune('-')
		case r == '-' || ('a' <= r && r <= 'z') || ('0' <= r && r <= '9'):
			b.WriteRune(r)
		}
	}
	return b.String()
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

// WriteSARIF renders findings as a SARIF 2.1.0 run, one rule per analyzer,
// with file URIs relative to the module root so the report is portable
// across checkouts.
func WriteSARIF(w io.Writer, root string, analyzers []*Analyzer, findings []Finding) error {
	rules := make([]sarifRule, 0, len(analyzers))
	for _, a := range analyzers {
		short := a.Doc
		if i := strings.Index(short, ";"); i >= 0 {
			short = short[:i] // the invariant alone; the fix hint stays in fullDescription
		}
		rules = append(rules, sarifRule{
			ID:               a.Name,
			ShortDescription: sarifMessage{Text: short},
			FullDescription:  sarifMessage{Text: a.Doc},
			HelpURI:          designHelpURI(a.Name),
		})
	}
	results := make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		uri := f.Pos.Filename
		if rel, err := filepath.Rel(root, uri); err == nil && !filepath.IsAbs(rel) {
			uri = rel
		}
		results = append(results, sarifResult{
			RuleID:  f.Check,
			Level:   "error",
			Message: sarifMessage{Text: f.Message},
			Locations: []sarifLocation{{PhysicalLocation: sarifPhysical{
				ArtifactLocation: sarifArtifact{URI: filepath.ToSlash(uri)},
				Region:           sarifRegion{StartLine: f.Pos.Line, StartColumn: f.Pos.Column},
			}}},
		})
	}
	doc := sarifDoc{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "extdict-lint", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
