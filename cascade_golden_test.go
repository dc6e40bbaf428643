package cssv

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGoldens = flag.Bool("update", false, "rewrite the cascade golden reports under testdata/goldens")

// TestCascadeGolden pins the fixed cascade's reports to checked-in
// goldens: the quiet rendering (which names the discharging tier of every
// certified check) plus the run's fixpoint iteration count, so a change
// to the discharge loop must keep both the verdicts and the work done.
// The step-budgeted airbus run exercises the unresolved degradation.
// Regenerate with `go test -run TestCascadeGolden -update .`.
func TestCascadeGolden(t *testing.T) {
	cases := []struct {
		golden, path string
		cfg          Config
	}{
		{"cascade-skipline.txt", "testdata/running/skipline.c", Config{Cascade: true, Certify: true}},
		{"cascade-airbus.txt", "testdata/airbus/airbus.c", Config{Cascade: true, Certify: true}},
		{"cascade-fixwrites.txt", "testdata/fixwrites/fixwrites.c", Config{Cascade: true, Certify: true}},
		{"cascade-airbus-budget300.txt", "testdata/airbus/airbus.c", Config{Cascade: true, StepBudget: 300}},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			rep, err := AnalyzeFile(c.path, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			Render(&buf, rep, RenderOptions{Quiet: true, Target: "paper32"})
			fmt.Fprintf(&buf, "fixpoint-iterations=%d\n", rep.Stats.FixpointIterations)
			golden := filepath.Join("testdata", "goldens", c.golden)
			if *updateGoldens {
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
				t.Errorf("report differs from %s:\nwant:\n%s\ngot:\n%s", golden, want, buf.Bytes())
			}
		})
	}
}
