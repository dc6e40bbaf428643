package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite reference.json from the repository's goldens and suite expectations")

// repoRoot is the repository holding the analyzer and its test data.
const repoRoot = ".."

// goldenSources maps each golden report to the source it was produced
// from (the path is also the label positions carry).
var goldenSources = []struct{ golden, source string }{
	{"airbus.paper32.txt", "testdata/airbus/airbus.c"},
	{"fixwrites.paper32.txt", "testdata/fixwrites/fixwrites.c"},
	{"skipline.paper32.txt", "testdata/running/skipline.c"},
}

var (
	exitLine  = regexp.MustCompile(`(?m)^exit=\d+\n\z`)
	countLine = regexp.MustCompile(`(?m)^cssv: (\d+) message\(s\)$`)
)

// deriveReference builds the answer key from testdata/goldens/*.paper32.txt
// and testdata/suite/*.expect alone.
func deriveReference() (*reference, error) {
	ref := &reference{}
	for _, g := range goldenSources {
		raw, err := os.ReadFile(filepath.Join(repoRoot, "testdata/goldens", g.golden))
		if err != nil {
			return nil, err
		}
		loc := exitLine.FindIndex(raw)
		if loc == nil {
			return nil, fmt.Errorf("%s: no trailing exit line", g.golden)
		}
		report := string(raw[:loc[0]])
		m := countLine.FindStringSubmatch(report)
		if m == nil {
			return nil, fmt.Errorf("%s: no message count line", g.golden)
		}
		n, _ := strconv.Atoi(m[1])
		ref.Files = append(ref.Files, refFile{
			Label: g.source, Corpus: filepath.Base(g.source),
			Report: report, Messages: n,
		})
	}
	expects, err := filepath.Glob(filepath.Join(repoRoot, "testdata/suite/*.expect"))
	if err != nil {
		return nil, err
	}
	for _, path := range expects {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		task := strings.TrimSuffix(filepath.Base(path), ".expect")
		rf := refFile{Label: "testdata/suite/" + task + ".c", Corpus: task + ".c", Messages: -1}
		for _, line := range strings.Split(string(raw), "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			key, value, _ := strings.Cut(line, ":")
			value = strings.TrimSpace(value)
			switch key {
			case "verdict":
				rf.Verdict = value
			case "messages":
				if rf.Messages, err = strconv.Atoi(value); err != nil {
					return nil, fmt.Errorf("%s: %v", path, err)
				}
			}
		}
		if (rf.Verdict != "safe" && rf.Verdict != "unsafe") || rf.Messages < 0 {
			return nil, fmt.Errorf("%s: need a safe/unsafe verdict and a message count", path)
		}
		ref.Files = append(ref.Files, rf)
	}
	return ref, nil
}

func TestReferenceMatchesRepositorySources(t *testing.T) {
	ref, err := deriveReference()
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile("reference.json", want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("reference.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("reference.json differs from the goldens and .expect files; rerun with -update after checking them")
	}
	// The frozen corpus copies must be the sources the goldens describe.
	for _, rf := range ref.Files {
		orig, err := os.ReadFile(filepath.Join(repoRoot, rf.Label))
		if err != nil {
			t.Fatal(err)
		}
		frozen, err := os.ReadFile(filepath.Join("corpus", rf.Corpus))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(orig, frozen) {
			t.Errorf("corpus/%s differs from %s", rf.Corpus, rf.Label)
		}
	}
	if len(ref.Files) != 14 {
		t.Errorf("reference has %d files, want the 14 corpus files", len(ref.Files))
	}
}
