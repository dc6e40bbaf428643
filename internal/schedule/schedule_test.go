package schedule

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var tiers = []string{"interval", "zone", "polyhedra"}

func TestParseMode(t *testing.T) {
	for s, want := range map[string]Mode{"": Off, "off": Off, "adaptive": Adaptive} {
		got, err := ParseMode(s)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"static", "bogus"} {
		if _, err := ParseMode(s); err == nil {
			t.Errorf("ParseMode(%q) succeeded", s)
		}
	}
}

func TestStaticPlan(t *testing.T) {
	plan := FixedPlan(tiers)
	if !reflect.DeepEqual(plan.Order, tiers) {
		t.Errorf("static order = %v", plan.Order)
	}
	for _, b := range plan.Budgets {
		if b != 0 {
			t.Errorf("static budgets = %v, want all 0", plan.Budgets)
		}
	}
	if plan.Source != "static" {
		t.Errorf("source = %q", plan.Source)
	}
}

func TestAdaptiveNoDataFallsBackToStatic(t *testing.T) {
	p := NewPlanner(tiers, nil)
	plan := p.Plan(Features{Kind: "pre", Vars: 4, Stmts: 10})
	if !reflect.DeepEqual(plan.Order, tiers) || plan.Source != "static" {
		t.Errorf("no-data adaptive plan = %+v", plan)
	}
}

func TestAdaptiveSkipsHopelessTierAndReordersByCost(t *testing.T) {
	f := Features{Kind: "pre", Vars: 4, Stmts: 10}
	prof := NewProfile()
	// interval: many attempts, no discharges -> skipped.
	prof.Record(f, "interval", 10, 0, 500)
	// zone: cheap and effective -> first, budgeted.
	prof.Record(f, "zone", 10, 9, 90)
	p := NewPlanner(tiers, prof)
	plan := p.Plan(f)
	if !reflect.DeepEqual(plan.Order, []string{"zone", "polyhedra"}) {
		t.Fatalf("order = %v", plan.Order)
	}
	if plan.Budgets[0] == 0 {
		t.Error("effective tier got no budget")
	}
	if plan.Budgets[len(plan.Budgets)-1] != 0 {
		t.Error("final tier must be unbudgeted")
	}
	if plan.Source != "profile" {
		t.Errorf("source = %q", plan.Source)
	}
	// A different bucket is unaffected.
	other := p.Plan(Features{Kind: "post", Vars: 64, Stmts: 300})
	if !reflect.DeepEqual(other.Order, tiers) {
		t.Errorf("other-bucket order = %v", other.Order)
	}
}

func TestAdaptiveFinalTierAlwaysLast(t *testing.T) {
	f := Features{Kind: "read", Vars: 2, Stmts: 5}
	prof := NewProfile()
	prof.Record(f, "interval", 8, 1, 800)
	prof.Record(f, "zone", 8, 8, 16)
	p := NewPlanner(tiers, prof)
	plan := p.Plan(f)
	if plan.Order[len(plan.Order)-1] != "polyhedra" {
		t.Fatalf("final tier not last: %v", plan.Order)
	}
	if plan.Order[0] != "zone" {
		t.Errorf("cheapest effective tier not first: %v", plan.Order)
	}
}

func TestPlanKeyGroupsEqualPlans(t *testing.T) {
	p := NewPlanner(tiers, nil)
	a := p.Plan(Features{Kind: "pre", Stmts: 10, Vars: 3})
	b := p.Plan(Features{Kind: "post", Stmts: 500, Vars: 40})
	if a.Key() != b.Key() {
		t.Errorf("static plans differ: %q vs %q", a.Key(), b.Key())
	}
	if !strings.Contains(a.Key(), "interval:0") {
		t.Errorf("key = %q", a.Key())
	}
}

func TestProfileRoundTripAndMerge(t *testing.T) {
	dir := t.TempDir()
	path := ProfilePath(dir, "0123456789abcdef0123456789abcdef")
	f := Features{Kind: "pre", Vars: 4, Stmts: 10}

	prof := NewProfile()
	prof.Record(f, "zone", 3, 2, 30)
	if err := SaveProfile(path, prof); err != nil {
		t.Fatal(err)
	}
	back, err := LoadProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, prof) {
		t.Errorf("round trip: got %+v want %+v", back, prof)
	}

	more := NewProfile()
	more.Record(f, "zone", 1, 1, 5)
	back.Merge(more)
	o := back.Buckets[f.bucket()]["zone"]
	if o.Attempts != 4 || o.Discharges != 3 || o.Iterations != 35 {
		t.Errorf("merged outcome = %+v", o)
	}
}

func TestProfileMissingFileIsEmpty(t *testing.T) {
	p, err := LoadProfile(filepath.Join(t.TempDir(), "nope.prof"))
	if err != nil || len(p.Buckets) != 0 {
		t.Errorf("missing file: %+v, %v", p, err)
	}
}

func TestProfileCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	path := ProfilePath(dir, "deadbeefdeadbeef")
	prof := NewProfile()
	prof.Record(Features{Kind: "pre"}, "zone", 1, 1, 1)
	if err := SaveProfile(path, prof); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	raw[len(raw)-2] ^= 0xff
	os.WriteFile(path, raw, 0o644)
	p, err := LoadProfile(path)
	if err == nil {
		t.Error("corruption not detected")
	}
	if len(p.Buckets) != 0 {
		t.Error("corrupt profile not discarded")
	}
}

func TestSaveIsDeterministic(t *testing.T) {
	prof := NewProfile()
	for _, k := range []string{"pre", "post", "read", "write", "other"} {
		prof.Record(Features{Kind: k, Stmts: 8}, "zone", 2, 1, 10)
		prof.Record(Features{Kind: k, Stmts: 8}, "interval", 2, 0, 12)
	}
	dir := t.TempDir()
	p1, p2 := filepath.Join(dir, "a.prof"), filepath.Join(dir, "b.prof")
	if err := SaveProfile(p1, prof); err != nil {
		t.Fatal(err)
	}
	if err := SaveProfile(p2, prof); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(p1)
	b, _ := os.ReadFile(p2)
	if string(a) != string(b) {
		t.Error("profile serialization is not deterministic")
	}
}

func TestClassifyKind(t *testing.T) {
	cases := map[string]string{
		"precondition of SkipLine":      "pre",
		"postcondition of f":            "post",
		"read through *Text":            "read",
		"write through *p":              "write",
		"buffer overflow in memcpy":     "overflow",
		"something else entirely wrong": "other",
	}
	for msg, want := range cases {
		if got := ClassifyKind(msg); got != want {
			t.Errorf("ClassifyKind(%q) = %q, want %q", msg, got, want)
		}
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Record(Features{}, "zone", 1, 1, 1) // must not panic
	if r.Profile() != nil {
		t.Error("nil recorder has a profile")
	}
}
