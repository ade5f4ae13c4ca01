package lint

import (
	"bufio"
	"bytes"
	"encoding/json"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSARIFHelpAnchors proves every analyzer's helpUri resolves: each has a
// pinned DESIGN.md heading, and that heading (by GitHub anchor slug) exists
// in the document. Renaming a section or adding an analyzer without
// documenting it fails here, not in a CI viewer's 404.
func TestSARIFHelpAnchors(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	docSlugs := make(map[string]bool)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "### "); ok {
			docSlugs[githubSlug(rest)] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, a := range All() {
		heading, ok := designHeadings[a.Name]
		if !ok {
			t.Errorf("analyzer %q has no DESIGN.md heading pinned in designHeadings", a.Name)
			continue
		}
		if slug := githubSlug(heading); !docSlugs[slug] {
			t.Errorf("analyzer %q: DESIGN.md has no section with anchor %q", a.Name, slug)
		}
	}
}

// TestWriteSARIFRules checks the rendered rule metadata: one rule per
// analyzer carrying a non-empty shortDescription (the invariant alone), the
// full Doc as fullDescription, and a DESIGN.md helpUri.
func TestWriteSARIFRules(t *testing.T) {
	finding := Finding{
		Check:   "schedule",
		Message: "cannot resolve a symbolic vector length for this collective",
		Pos:     token.Position{Filename: "/mod/internal/dist/dist.go", Line: 3, Column: 2},
	}
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, "/mod", All(), []Finding{finding}); err != nil {
		t.Fatal(err)
	}
	var doc sarifDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	rules := doc.Runs[0].Tool.Driver.Rules
	if len(rules) != len(All()) {
		t.Fatalf("got %d rules, want one per analyzer (%d)", len(rules), len(All()))
	}
	for i, r := range rules {
		a := All()[i]
		if r.ID != a.Name {
			t.Errorf("rule %d: id %q, want %q", i, r.ID, a.Name)
		}
		if r.ShortDescription.Text == "" || strings.Contains(r.ShortDescription.Text, ";") {
			t.Errorf("rule %q: shortDescription %q should be the invariant clause alone", r.ID, r.ShortDescription.Text)
		}
		if r.FullDescription.Text != a.Doc {
			t.Errorf("rule %q: fullDescription does not carry the full Doc", r.ID)
		}
		if !strings.HasPrefix(r.HelpURI, "DESIGN.md#") {
			t.Errorf("rule %q: helpUri %q does not point into DESIGN.md", r.ID, r.HelpURI)
		}
	}
	if got := doc.Runs[0].Results[0].Locations[0].PhysicalLocation.ArtifactLocation.URI; got != "internal/dist/dist.go" {
		t.Errorf("result uri %q, want module-relative path", got)
	}
}
