// Tests for the adaptive cascade scheduler's determinism contract:
// scheduling moves cost, never verdicts. TestCascadeGolden pins the off
// mode's reports.
package cssv

import (
	"fmt"
	"reflect"
	"testing"
)

var scheduleGoldens = []string{
	"testdata/running/skipline.c",
	"testdata/airbus/airbus.c",
	"testdata/fixwrites/fixwrites.c",
}

// TestScheduleAdaptiveParallelDeterminism: neither schedule mode may
// introduce worker-count dependence — a sequential and an 8-way run
// produce deep-equal reports once cost measurements are stripped.
func TestScheduleAdaptiveParallelDeterminism(t *testing.T) {
	for _, path := range scheduleGoldens {
		for _, mode := range []string{"off", "adaptive"} {
			t.Run(fmt.Sprintf("%s/%s", path, mode), func(t *testing.T) {
				seq, err := AnalyzeFile(path, Config{Workers: 1, Cascade: true, Schedule: mode})
				if err != nil {
					t.Fatal(err)
				}
				par, err := AnalyzeFile(path, Config{Workers: 8, Cascade: true, Schedule: mode})
				if err != nil {
					t.Fatal(err)
				}
				stripTimings(seq)
				stripTimings(par)
				if !reflect.DeepEqual(seq, par) {
					t.Errorf("%s %s: 1-worker and 8-worker reports differ", path, mode)
				}
			})
		}
	}
}

// TestScheduleAdaptiveDischargesNoLess: on the golden suites the
// adaptive mode (cold profile) must discharge at least as many checks in
// cheap tiers as the fixed cascade — the planner degenerates to the
// static order when it has no evidence, so nothing may be lost.
func TestScheduleAdaptiveDischargesNoLess(t *testing.T) {
	discharged := func(cfg Config, path string) (cheap, total int) {
		rep, err := AnalyzeFile(path, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range rep.Procedures {
			if p.Cascade == nil {
				continue
			}
			for _, c := range p.Cascade.Checks {
				if c.Violated {
					continue
				}
				total++
				if c.Tier == "interval" || c.Tier == "zone" {
					cheap++
				}
			}
		}
		return
	}
	for _, path := range scheduleGoldens {
		t.Run(path, func(t *testing.T) {
			offCheap, offTotal := discharged(Config{Cascade: true}, path)
			adCheap, adTotal := discharged(Config{Cascade: true, Schedule: "adaptive"}, path)
			if adTotal != offTotal {
				t.Errorf("adaptive proved %d checks, fixed cascade %d", adTotal, offTotal)
			}
			if adCheap < offCheap {
				t.Errorf("adaptive discharged %d checks in cheap tiers, fixed cascade %d", adCheap, offCheap)
			}
		})
	}
}

// TestScheduleProfilePersistence: an adaptive run with a profile
// directory must write the profile, and a second run steered by it must
// keep every verdict.
func TestScheduleProfilePersistence(t *testing.T) {
	dir := t.TempDir()
	path := "testdata/running/skipline.c"
	cold, err := AnalyzeFile(path, Config{Cascade: true, Schedule: "adaptive", ScheduleProfile: dir})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := AnalyzeFile(path, Config{Cascade: true, Schedule: "adaptive", ScheduleProfile: dir})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.ScheduleFromProfile == 0 {
		t.Error("second adaptive run consulted no profile-backed plans")
	}
	verdicts := func(r *Report) map[string]bool {
		m := map[string]bool{}
		for _, p := range r.Procedures {
			if p.Cascade == nil {
				continue
			}
			for _, c := range p.Cascade.Checks {
				m[p.Name+"/"+c.Check+"@"+c.Pos] = c.Violated
			}
		}
		return m
	}
	if !reflect.DeepEqual(verdicts(cold), verdicts(warm)) {
		t.Error("profile-steered run changed verdicts")
	}
}
