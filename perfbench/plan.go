package main

import (
	"fmt"
	"math/rand/v2"
	"regexp"
	"strings"

	cssv "repro"
)

// workload is one benchmark configuration. Every workload runs one
// closed-loop client: the next unit starts when the previous verdict is
// back, on a single analysis worker.
type workload struct {
	cfg cssv.Config
	// edit selects the edit-session shape (sessions over an on-disk cache)
	// instead of one call per procedure.
	edit bool
}

var workloads = map[string]workload{
	// The default configuration: polyhedra, manual contracts, paper32.
	"batch-poly": {cfg: cssv.Config{Workers: 1}},
	// The interval → zone → polyhedra cascade with a-posteriori
	// certification (certificate checking and counter-example replay).
	"tiered-certify": {cfg: cssv.Config{Workers: 1, Cascade: true, Certify: true}},
	// Whole-file re-analysis after each edit, over a result cache.
	"edit-session": {cfg: cssv.Config{Workers: 1}, edit: true},
}

// editFiles are the files an edit-session pass edits, one session each,
// in this order.
var editFiles = []string{"airbus.c", "fixwrites.c"}

// Edit kinds. Every edit keeps the verdicts and every original line
// number unchanged.
const (
	kindCold   = "cold"   // first analysis of the session, empty cache
	kindResave = "resave" // source unchanged: exact cache hits
	kindAppend = "append" // a fresh procedure at the end of the file
	kindNoop   = "noop"   // a same-line no-op declaration in one procedure
)

// unit is one timed call of cssv.Analyze.
type unit struct {
	file *corpusFile
	// proc restricts the call to one procedure (batch workloads).
	proc string
	// src is the analyzed source (the file's own source for batch units).
	src  string
	kind string
}

// session is a run of units sharing analyzer state: for edit-session one
// cache directory, for the batch workloads the whole pass.
type session struct {
	file  *corpusFile // edited file (edit-session only)
	units []unit
}

// planPasses builds the units of one pass from the seed. Every pass runs
// the same plan, so passes are repetitions of identical work.
// maxEdits > 0 truncates each edit script (tests only).
func planPass(files []*corpusFile, w workload, seed uint64, maxEdits int) ([]session, error) {
	rng := rand.New(rand.NewPCG(seed, 0x63737376))
	if !w.edit {
		var units []unit
		for _, f := range files {
			for _, p := range f.procs {
				units = append(units, unit{file: f, proc: p, src: f.src})
			}
		}
		rng.Shuffle(len(units), func(i, j int) { units[i], units[j] = units[j], units[i] })
		return []session{{units: units}}, nil
	}
	var sessions []session
	for _, name := range editFiles {
		f, err := fileByCorpus(files, name)
		if err != nil {
			return nil, err
		}
		units, err := editScript(f, rng, maxEdits)
		if err != nil {
			return nil, err
		}
		sessions = append(sessions, session{file: f, units: units})
	}
	return sessions, nil
}

// editScript returns the cold unit followed by n rounds of edits of a
// file with n procedures. Each round makes one edit of each kind in
// seeded order, and each procedure gets one no-op edit, in seeded order.
// Appended procedures stay, so later edits revalidate more procedures;
// the rounds keep that growth, and so the amount of work, the same for
// every seed.
func editScript(f *corpusFile, rng *rand.Rand, maxEdits int) ([]unit, error) {
	n := len(f.procs)
	var kinds []string
	for i := 0; i < n; i++ {
		round := []string{kindResave, kindAppend, kindNoop}
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		kinds = append(kinds, round...)
	}
	targets := append([]string(nil), f.procs...)
	rng.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
	if maxEdits > 0 && maxEdits < len(kinds) {
		kinds = kinds[:maxEdits]
	}

	units := []unit{{file: f, src: f.src, kind: kindCold}}
	src := f.src
	appended := 0
	for _, k := range kinds {
		switch k {
		case kindAppend:
			appended++
			src += fmt.Sprintf("\nint perfbench_fresh_%d(int x)\n{\n    return x + %d;\n}\n", appended, appended)
		case kindNoop:
			var err error
			src, err = insertNoop(src, targets[0])
			if err != nil {
				return nil, fmt.Errorf("%s: %w", f.ref.Label, err)
			}
			targets = targets[1:]
		}
		units = append(units, unit{file: f, src: src, kind: k})
	}
	return units, nil
}

// insertNoop adds an unused local declaration right after the `{` that
// opens proc's body, on the same line: the body (and so its cache key)
// changes, no other token moves.
func insertNoop(src, proc string) (string, error) {
	def := regexp.MustCompile(`(?m)^[A-Za-z_][^;\n]*\b` + regexp.QuoteMeta(proc) + `\(`)
	for _, loc := range def.FindAllStringIndex(src, -1) {
		rest := src[loc[1]:]
		brace := strings.Index(rest, "\n{\n")
		if brace < 0 || strings.Contains(rest[:brace], ";") {
			continue // a prototype or a call, not the definition
		}
		at := loc[1] + brace + 2
		return src[:at] + " int perfbench_nop = 0;" + src[at:], nil
	}
	return "", fmt.Errorf("no definition of %s with its body brace on its own line", proc)
}
