package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	cssv "repro"
	"repro/internal/core"
	"repro/internal/libc"
)

// reference is the benchmark's answer key, checked in as reference.json.
// It is derived from the repository's golden reports and suite
// expectations (see reference_test.go), never from the analyzer under
// test.
type reference struct {
	Files []refFile `json:"files"`
}

// refFile is the expected outcome for one corpus file. Exactly one of
// Report (a golden `cssv -q` report, without its exit line) and Verdict
// (an SV-COMP-style `.expect` verdict with its message count) is set.
type refFile struct {
	// Label is the file name passed to the analyzer; message positions
	// carry it.
	Label string `json:"label"`
	// Corpus names the frozen copy of the source under corpus/.
	Corpus   string `json:"corpus"`
	Report   string `json:"report,omitempty"`
	Verdict  string `json:"verdict,omitempty"`
	Messages int    `json:"messages"`
}

// corpusFile is one loaded corpus file with its procedures in the order
// the driver analyzes them.
type corpusFile struct {
	ref   refFile
	src   string
	procs []string
}

// loadCorpus reads reference.json and every corpus source under dir, and
// lists each file's procedures through the front end.
func loadCorpus(dir string) ([]*corpusFile, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "reference.json"))
	if err != nil {
		return nil, err
	}
	var ref reference
	if err := json.Unmarshal(raw, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	if len(ref.Files) == 0 {
		return nil, fmt.Errorf("reference.json: no files")
	}
	var out []*corpusFile
	for _, rf := range ref.Files {
		src, err := os.ReadFile(filepath.Join(dir, "corpus", rf.Corpus))
		if err != nil {
			return nil, err
		}
		prog, err := core.Prepare(rf.Label, string(src), false)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", rf.Label, err)
		}
		f := &corpusFile{ref: rf, src: string(src)}
		for _, fd := range prog.File.Funcs() {
			if fd.Body != nil && !libc.Functions[fd.Name] {
				f.procs = append(f.procs, fd.Name)
			}
		}
		sort.Strings(f.procs)
		if len(f.procs) == 0 {
			return nil, fmt.Errorf("%s: no procedures", rf.Label)
		}
		out = append(out, f)
	}
	return out, nil
}

// fileByCorpus returns the corpus file whose frozen copy is named name.
func fileByCorpus(files []*corpusFile, name string) (*corpusFile, error) {
	for _, f := range files {
		if f.ref.Corpus == name {
			return f, nil
		}
	}
	return nil, fmt.Errorf("corpus file %s not in reference.json", name)
}

// checkProcs reports why the procedures of one file, taken together,
// disagree with the reference ("" when they agree). A procedure that
// degraded, left a check unresolved or failed a certificate is wrong
// whatever its messages say. Procedures outside the file's own set (the
// ones an edit script appends) must be silent.
func checkProcs(f *corpusFile, procs []cssv.Procedure) string {
	own := map[string]bool{}
	for _, name := range f.procs {
		own[name] = true
	}
	var kept []cssv.Procedure
	messages := 0
	for _, p := range procs {
		if p.Degraded != nil {
			return fmt.Sprintf("%s degraded: %s", p.Name, p.Degraded.Cause)
		}
		for _, m := range p.Messages {
			if m.Unresolved {
				return fmt.Sprintf("%s: unresolved check at %s", p.Name, m.Pos)
			}
		}
		if c := p.Certification; c != nil && c.Failed > 0 {
			return fmt.Sprintf("%s: %d certificate(s) failed", p.Name, c.Failed)
		}
		if !own[p.Name] {
			if len(p.Messages) > 0 {
				return fmt.Sprintf("appended %s reported %d message(s)", p.Name, len(p.Messages))
			}
			continue
		}
		// Render only what the golden reports show.
		p.Cascade, p.Certification, p.Warnings = nil, nil, nil
		kept = append(kept, p)
		messages += len(p.Messages)
	}
	if len(kept) != len(f.procs) {
		return fmt.Sprintf("%d of %d procedures reported", len(kept), len(f.procs))
	}
	sort.SliceStable(kept, func(i, j int) bool { return kept[i].Name < kept[j].Name })
	if f.ref.Report != "" {
		var b bytes.Buffer
		cssv.Render(&b, &cssv.Report{Procedures: kept}, cssv.RenderOptions{Quiet: true})
		if b.String() != f.ref.Report {
			return "report differs from the golden"
		}
		return ""
	}
	verdict := "safe"
	if messages > 0 {
		verdict = "unsafe"
	}
	if verdict != f.ref.Verdict || messages != f.ref.Messages {
		return fmt.Sprintf("verdict %s with %d message(s), want %s with %d",
			verdict, messages, f.ref.Verdict, f.ref.Messages)
	}
	return ""
}
