package core

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/certify"
)

var updateReplayGolden = flag.Bool("update", false, "rewrite testdata/goldens/replay.txt")

// TestReplayGolden pins every counter-example replay of the cascade +
// certify configuration over the three example programs and the suite
// tasks: for each replayed violation, whether the directed search found a
// witness, whether it was truncated, the statements it executed, and the
// length and hash of the witness trace. The search is deterministic, so
// any change to the interpreter must explore the identical tree.
// Regenerate with `go test -run TestReplayGolden ./internal/core/ -update`.
func TestReplayGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end certification is slow")
	}
	paths := []string{
		"testdata/airbus/airbus.c",
		"testdata/fixwrites/fixwrites.c",
		"testdata/running/skipline.c",
	}
	suite, err := filepath.Glob("../../testdata/suite/*.c")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range suite {
		paths = append(paths, filepath.ToSlash(s[len("../../"):]))
	}

	var buf bytes.Buffer
	for _, path := range paths {
		src, err := os.ReadFile("../../" + path)
		if err != nil {
			t.Fatal(err)
		}
		// The options the public Config{Cascade: true, Certify: true}
		// selects.
		rep, err := AnalyzeSource(path, string(src), Options{
			Cascade: true,
			Certify: true,
			Domain:  analysis.PolyDomain{},
		})
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for i := range rep.Procs {
			pr := &rep.Procs[i]
			if pr.Certification == nil {
				continue
			}
			for _, ck := range pr.Certification.Checks {
				if ck.Status != certify.StatusWitnessed && ck.Status != certify.StatusPotential {
					continue
				}
				v, ok := findViolation(pr.Violations, ck)
				if !ok {
					t.Fatalf("%s: %s: no violation for replayed check %d %q", path, pr.Name, ck.Index, ck.Msg)
				}
				if v.Unverifiable {
					continue // classified without a search
				}
				r, dr := replayViolation(pr.IP, v, ck.Tier)
				if r.Status != ck.Status {
					t.Errorf("%s: %s: check %d replays %s, the driver classified it %s",
						path, pr.Name, ck.Index, r.Status, ck.Status)
				}
				h := fnv.New64a()
				for _, pc := range dr.Trace {
					fmt.Fprintf(h, "%d,", pc)
				}
				fmt.Fprintf(&buf, "%s %s stmt=%d found=%t truncated=%t steps=%d trace=%d hash=%016x\n",
					ck.Pos, pr.Name, ck.Index, dr.Found, dr.Truncated, dr.Steps, len(dr.Trace), h.Sum64())
			}
		}
	}

	golden := filepath.Join("..", "..", "testdata", "goldens", "replay.txt")
	if *updateReplayGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Errorf("replays differ from %s:\nwant:\n%s\ngot:\n%s", golden, want, buf.Bytes())
	}
}

// findViolation returns the reported violation a certification result
// classifies.
func findViolation(viols []analysis.Violation, ck certify.CheckResult) (analysis.Violation, bool) {
	for _, v := range viols {
		if v.Index == ck.Index && v.Msg == ck.Msg {
			return v, true
		}
	}
	return analysis.Violation{}, false
}
