package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// smallBatch keeps the batch tests short: files whose procedures analyze
// in tens of milliseconds.
var smallBatch = []string{"safe_copy.c", "unsafe_strcpy.c", "unsafe_fill.c", "unsafe_scan.c", "unsafe_empty_line.c"}

func measureBrief(t *testing.T, workload string, trace bool, passes int) []*passResult {
	t.Helper()
	o := runOpts{
		workload: workload, seed: 7, trace: trace, passes: passes,
		dir: ".", work: t.TempDir(), maxEdits: 6,
	}
	if workload != "edit-session" {
		o.only = smallBatch
	}
	b, err := setup(o)
	if err != nil {
		t.Fatal(err)
	}
	ps, _, err := b.measure()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		if p.failed > 0 || p.attempted == 0 {
			t.Fatalf("%s: %d of %d units failed: %v", workload, p.failed, p.attempted, p.failures)
		}
	}
	return ps
}

// exactCounts are the per-layer counts later changes may cite as exact.
var exactCounts = []string{
	"analysis.iterations", "c2ip.ip_size",
	"analysis.tier.interval.discharged", "analysis.tier.zone.discharged",
	"analysis.tier.polyhedra.discharged",
	"certify.certified", "certify.failed", "certify.witnessed", "certify.potential",
	"cache.entries",
}

type countsOf struct {
	counts   map[string]float64
	cacheSeq [][5]int
	entries  []int
}

func countsOfPass(p *passResult) countsOf {
	c := countsOf{counts: map[string]float64{}, cacheSeq: p.cacheSeq, entries: p.entries}
	for _, name := range exactCounts {
		c.counts[name] = p.counts[name]
	}
	return c
}

// TestCountsRepeatExactly runs every workload briefly twice with one seed
// (an untraced and a traced pass each) and requires every pass of both
// runs to report the same counts.
func TestCountsRepeatExactly(t *testing.T) {
	for _, w := range []string{"batch-poly", "tiered-certify", "edit-session"} {
		t.Run(w, func(t *testing.T) {
			runs := [][]*passResult{measureBrief(t, w, true, 2), measureBrief(t, w, true, 2)}
			first := countsOfPass(runs[0][0])
			if first.counts["c2ip.ip_size"] == 0 {
				t.Fatal("no integer program reported")
			}
			for run, ps := range runs {
				for k, p := range ps {
					if got := countsOfPass(p); !reflect.DeepEqual(got, first) {
						t.Errorf("run %d pass %d counts %+v, want %+v", run, k, got, first)
					}
				}
			}
			if w == "tiered-certify" && first.counts["certify.certified"] == 0 {
				t.Error("tiered-certify certified nothing")
			}
			if w == "edit-session" && len(first.cacheSeq) == 0 {
				t.Error("edit-session recorded no cache sequence")
			}
		})
	}
}

// TestEditSessionIsolation checks that no cache state leaks between
// edit-session passes: every pass sees the same per-edit cache sequence
// and ends with the same number of cache entries.
func TestEditSessionIsolation(t *testing.T) {
	ps := measureBrief(t, "edit-session", false, 3)
	seq := ps[0].cacheSeq
	if len(seq) != 2*(1+6) {
		t.Fatalf("pass 1 recorded %d units, want 14", len(seq))
	}
	if hits, misses := seq[0][0], seq[0][2]; hits != 0 || misses == 0 {
		t.Fatalf("first unit of pass 1 was not cold: %v", seq[0])
	}
	for k, p := range ps[1:] {
		if !reflect.DeepEqual(p.cacheSeq, seq) {
			t.Errorf("pass %d cache sequence %v, want pass 1's %v", k+2, p.cacheSeq, seq)
		}
		if !reflect.DeepEqual(p.entries, ps[0].entries) {
			t.Errorf("pass %d cache entries %v, want pass 1's %v", k+2, p.entries, ps[0].entries)
		}
	}
}

// TestEditScript checks the edit kinds keep every original line in place
// and that each procedure gets exactly one no-op edit.
func TestEditScript(t *testing.T) {
	files, err := loadCorpus(".")
	if err != nil {
		t.Fatal(err)
	}
	sessions, err := planPass(files, workloads["edit-session"], 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sessions {
		n := len(s.file.procs)
		kinds := map[string]int{}
		for _, u := range s.units {
			kinds[u.kind]++
		}
		want := map[string]int{kindCold: 1, kindResave: n, kindAppend: n, kindNoop: n}
		if !reflect.DeepEqual(kinds, want) {
			t.Errorf("%s: kinds %v, want %v", s.file.ref.Label, kinds, want)
		}
		last := s.units[len(s.units)-1].src
		if got := strings.Count(last, "perfbench_nop"); got != n {
			t.Errorf("%s: %d no-op edits in the final source, want %d", s.file.ref.Label, got, n)
		}
		orig := strings.Split(s.file.src, "\n")
		edited := strings.Split(last, "\n")
		for i, l := range orig {
			if !strings.HasPrefix(edited[i], l) {
				t.Fatalf("%s:%d changed: %q → %q", s.file.ref.Label, i+1, l, edited[i])
			}
		}
	}
}

// TestBenchmarkJSONMatchesOutput checks that BENCHMARK.json declares
// exactly the metrics, with the units, that the benchmark prints.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	pass := func() *passResult {
		return &passResult{units: []float64{1}, counts: map[string]float64{}, layers: map[string]float64{}}
	}
	passes := []*passResult{pass(), pass()}
	e2e, layers := map[string]metric{}, map[string]metric{}
	endToEnd(passes, []float64{1}, e2e, &stamp{Samples: map[string]int{}})
	layerMetrics(passes, layers, &stamp{Samples: map[string]int{}})
	for _, c := range []struct {
		kind     string
		declared []struct{ Name, Unit string }
		printed  map[string]metric
	}{{"end_to_end", spec.EndToEnd, e2e}, {"per_layer", spec.PerLayer, layers}} {
		declared := map[string]string{}
		for _, d := range c.declared {
			declared[d.Name] = d.Unit
		}
		printed := map[string]string{}
		for name, m := range c.printed {
			printed[name] = m.Unit
		}
		if !reflect.DeepEqual(declared, printed) {
			t.Errorf("%s declares %v, the benchmark prints %v", c.kind, declared, printed)
		}
	}
}
