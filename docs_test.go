package avr

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var (
	// "DESIGN.md §5.11", "DESIGN.md §5.10-5.11", "DESIGN §5.7" and
	// "DESIGN.md 5.9". A bare "(§3.2)" cites the paper and is not matched.
	designRefRe = regexp.MustCompile(`DESIGN(?:\.md)?(?:\s|//|#)+(?:§\s?(\d+(?:\.\d+)?)(?:[-–](\d+(?:\.\d+)?))?|(\d+\.\d+))`)
	// "deviation 7", "deviations 6, 7 and 8", "deviations 1–8".
	deviationRe  = regexp.MustCompile(`(?i)\bdeviations?(?:\s|//|#)+(\d+(?:(?:,\s+|,?\s+and\s+|[-–])\d+)*)`)
	deviationNum = regexp.MustCompile(`[-–]?\d+`)
	mdLinkRe     = regexp.MustCompile(`\]\(([^)\s]+)\)`)
	designHeadRe = regexp.MustCompile(`(?m)^##+ (\d+(?:\.\d+)?)\.? `)
	// "-exp table3", "-exp fig9,fig10".
	expRefRe     = regexp.MustCompile(`-exp\s+([a-z0-9]+(?:,[a-z0-9]+)*)`)
	deviationRow = regexp.MustCompile(`(?m)^(\d+)\. `)
)

// currentDocs are the root documents that describe the program as it is.
var currentDocs = map[string]bool{"README.md": true, "DESIGN.md": true, "EXPERIMENTS.md": true, "ROADMAP.md": true}

// TestDocReferencesResolve holds the prose's cross-references to what they
// name, so a section renumbered or a file moved fails here, at the line that
// cites it:
//   - every DESIGN.md section cited in a .go, .md, .sh or .yml file is a
//     heading of DESIGN.md;
//   - every "deviation N" is an item of EXPERIMENTS.md's "Known modelling
//     deviations" list;
//   - every relative Markdown link names a file that exists;
//   - every "-exp <id>" names a registered experiment (or "all"), except in
//     the root documents other than currentDocs, such as CHANGES.md, which
//     record experiments a change removed;
//   - every registered experiment has a row in DESIGN.md §4's index;
//   - every directory under internal/ and cmd/, and bench/, is named in
//     README.md's "Repository layout" block.
func TestDocReferencesResolve(t *testing.T) {
	sections := designSections(t)
	deviations := knownDeviations(t)
	expIDs := map[string]bool{"all": true}
	for _, id := range ExperimentIDs() {
		expIDs[id] = true
	}

	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") && name != ".github" && name != ".claude") {
				return filepath.SkipDir
			}
			return nil
		}
		ext := filepath.Ext(path)
		if ext != ".go" && ext != ".md" && ext != ".sh" && ext != ".yml" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		text := string(b)
		line := func(off int) int { return 1 + strings.Count(text[:off], "\n") }

		for _, m := range designRefRe.FindAllStringSubmatchIndex(text, -1) {
			for _, g := range []int{2, 4, 6} {
				if m[g] < 0 {
					continue
				}
				if n := text[m[g]:m[g+1]]; !sections[n] {
					t.Errorf("%s:%d: %q cites DESIGN.md §%s, which has no such heading", path, line(m[0]), text[m[0]:m[1]], n)
				}
			}
		}
		for _, m := range deviationRe.FindAllStringSubmatchIndex(text, -1) {
			for _, n := range deviationNumbers(text[m[2]:m[3]]) {
				if !deviations[n] {
					t.Errorf("%s:%d: %q names deviation %d, which EXPERIMENTS.md's \"Known modelling deviations\" does not list", path, line(m[0]), text[m[0]:m[1]], n)
				}
			}
		}
		if filepath.Dir(path) != "." || ext != ".md" || currentDocs[path] {
			for _, m := range expRefRe.FindAllStringSubmatchIndex(text, -1) {
				for _, id := range strings.Split(text[m[2]:m[3]], ",") {
					if !expIDs[id] {
						t.Errorf("%s:%d: %q names experiment %q, which avrsim tables does not register", path, line(m[0]), text[m[0]:m[1]], id)
					}
				}
			}
		}
		if ext == ".md" {
			for _, m := range mdLinkRe.FindAllStringSubmatchIndex(text, -1) {
				target := text[m[2]:m[3]]
				if strings.Contains(target, "://") || strings.HasPrefix(target, "#") || strings.HasPrefix(target, "mailto:") {
					continue
				}
				target, _, _ = strings.Cut(target, "#")
				if _, err := os.Stat(filepath.Join(filepath.Dir(path), target)); err != nil {
					t.Errorf("%s:%d: link to %q: %v", path, line(m[0]), target, err)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	indexed := experimentIndex(t)
	for _, id := range ExperimentIDs() {
		if !indexed[id] {
			t.Errorf("DESIGN.md §4: the per-experiment index has no row regenerated with `avrsim tables -exp %s`", id)
		}
	}

	layout, at := readmeLayout(t)
	var want []string
	for _, parent := range []string{"internal", "cmd"} {
		entries, err := os.ReadDir(parent)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				want = append(want, parent+"/"+e.Name())
			}
		}
	}
	want = append(want, "bench")
	for _, dir := range want {
		named := regexp.MustCompile(`(?m)(^|\s)` + regexp.QuoteMeta(dir) + `(/|\s|$)`)
		if !named.MatchString(layout) {
			t.Errorf("README.md:%d: the \"Repository layout\" block does not name %s/", at, dir)
		}
	}
}

// designSections returns DESIGN.md's section numbers: "5" for "## 5. ...",
// "5.11" for "### 5.11 ...".
func designSections(t *testing.T) map[string]bool {
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, m := range designHeadRe.FindAllStringSubmatch(string(b), -1) {
		sections[m[1]] = true
	}
	if len(sections) == 0 {
		t.Fatal("DESIGN.md: no numbered headings")
	}
	return sections
}

// experimentIndex returns the experiment ids DESIGN.md §4's table rows
// regenerate with "avrsim tables -exp <id>".
func experimentIndex(t *testing.T) map[string]bool {
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, index, ok := strings.Cut(string(b), "\n## 4. ")
	if !ok {
		t.Fatal(`DESIGN.md: no "## 4." section`)
	}
	index, _, _ = strings.Cut(index, "\n## ")
	ids := map[string]bool{}
	for _, row := range strings.Split(index, "\n") {
		if !strings.HasPrefix(row, "|") {
			continue
		}
		for _, m := range expRefRe.FindAllStringSubmatch(row, -1) {
			ids[m[1]] = true
		}
	}
	return ids
}

// knownDeviations returns the item numbers of EXPERIMENTS.md's "Known
// modelling deviations" list.
func knownDeviations(t *testing.T) map[int]bool {
	b, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, list, ok := strings.Cut(string(b), "\n## Known modelling deviations")
	if !ok {
		t.Fatal(`EXPERIMENTS.md: no "## Known modelling deviations" section`)
	}
	list, _, _ = strings.Cut(list, "\n## ")
	items := map[int]bool{}
	for _, m := range deviationRow.FindAllStringSubmatch(list, -1) {
		n, _ := strconv.Atoi(m[1])
		items[n] = true
	}
	if len(items) == 0 {
		t.Fatal(`EXPERIMENTS.md: "Known modelling deviations" lists nothing`)
	}
	return items
}

// deviationNumbers expands "6, 7 and 8" and "1–8" into the numbers they name.
func deviationNumbers(s string) []int {
	var out []int
	for _, tok := range deviationNum.FindAllString(s, -1) {
		if strings.HasPrefix(tok, "-") || strings.HasPrefix(tok, "–") {
			hi, _ := strconv.Atoi(strings.TrimLeft(tok, "-–"))
			for n := out[len(out)-1] + 1; n <= hi; n++ {
				out = append(out, n)
			}
			continue
		}
		n, _ := strconv.Atoi(tok)
		out = append(out, n)
	}
	return out
}

// readmeLayout returns the fenced block under README.md's "Repository
// layout" heading and the line it starts on.
func readmeLayout(t *testing.T) (string, int) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(b)
	i := strings.Index(text, "\n## Repository layout")
	if i < 0 {
		t.Fatal(`README.md: no "## Repository layout" section`)
	}
	open := strings.Index(text[i:], "\n```")
	if open < 0 {
		t.Fatal(`README.md: "Repository layout" has no fenced block`)
	}
	start := i + open + 1
	body := text[start:]
	body = body[strings.Index(body, "\n")+1:]
	end := strings.Index(body, "\n```")
	if end < 0 {
		t.Fatal(`README.md: the "Repository layout" block is not closed`)
	}
	return body[:end], 1 + strings.Count(text[:start], "\n")
}
