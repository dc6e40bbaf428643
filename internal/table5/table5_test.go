package table5

import (
	"strings"
	"testing"
)

// TestHeadlineFixwrites reproduces §1.3: "In the application fixwrites ...
// CSSV uncovered 8 errors with 2 false alarms."
func TestHeadlineFixwrites(t *testing.T) {
	if testing.Short() {
		t.Skip("suite analysis is slow")
	}
	rows, err := RunSuite("fixwrites", "../../testdata/fixwrites/fixwrites.c",
		Options{SkipDerivation: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("fixwrites has %d procedures, want 8", len(rows))
	}
	errs, falses := 0, 0
	for _, r := range rows {
		errs += r.Errors
		falses += r.FalseAlarms
	}
	if errs != 8 {
		t.Errorf("errors = %d, want 8 (paper §1.3)", errs)
	}
	if falses != 2 {
		t.Errorf("false alarms = %d, want 2 (paper §1.3)", falses)
	}
}

// TestHeadlineAirbus reproduces §1.3's shape on the Airbus-style suite:
// every procedure is safe, so every message is a false alarm; the count is
// small (paper: 6; this reproduction: 4) and concentrated in the
// balanced-parentheses scanner and the opaque-character stores.
func TestHeadlineAirbus(t *testing.T) {
	if testing.Short() {
		t.Skip("suite analysis is slow")
	}
	rows, err := RunSuite("airbus", "../../testdata/airbus/airbus.c",
		Options{SkipDerivation: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("airbus has %d procedures, want 11", len(rows))
	}
	total := 0
	flagged := map[string]int{}
	for _, r := range rows {
		if r.Errors != 0 {
			t.Errorf("%s: %d errors on a safe suite", r.Function, r.Errors)
		}
		total += r.FalseAlarms
		if r.FalseAlarms > 0 {
			flagged[r.Function] = r.FalseAlarms
		}
	}
	if total == 0 || total > 8 {
		t.Errorf("false alarms = %d, want a small nonzero count (paper: 6, this repro: 4)", total)
	}
	if _, ok := flagged["RTC_Si_SkipBalanced"]; !ok {
		t.Errorf("the skip_balanced-style scanner should account for a false alarm; got %v", flagged)
	}
	// SkipLine itself is verified cleanly (paper §2.3).
	for _, r := range rows {
		if r.Function == "RTC_Si_SkipLine" && r.FalseAlarms != 0 {
			t.Errorf("SkipLine has %d false alarms, want 0", r.FalseAlarms)
		}
	}
}

func TestFormatAndSummary(t *testing.T) {
	rows := []Row{
		{Suite: "s", Function: "f", LOC: 10, SLOC: 20, Contract: "S",
			IPVars: 5, IPSize: 9, Msgs: 2, Errors: 1, FalseAlarms: 1,
			VacuousMsgs: 10, AutoMsgs: 5},
		{Suite: "s", Function: "g", Msgs: 0, VacuousMsgs: 10, AutoMsgs: 10},
	}
	table := Format(rows, true)
	for _, want := range []string{"Suite", "f", "g", "DerCPU"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	sums := Summarize(rows)
	if len(sums) != 1 {
		t.Fatalf("summaries = %d", len(sums))
	}
	s := sums[0]
	if s.Procedures != 2 || s.Errors != 1 || s.FalseAlarms != 1 {
		t.Errorf("summary = %+v", s)
	}
	// manual reduction = 1 - 1/20 = 95%; auto = 1 - 15/20 = 25%.
	if s.ManualReduction < 0.94 || s.ManualReduction > 0.96 {
		t.Errorf("manual reduction = %f", s.ManualReduction)
	}
	if s.AutoReduction < 0.24 || s.AutoReduction > 0.26 {
		t.Errorf("auto reduction = %f", s.AutoReduction)
	}
	if !strings.Contains(FormatSummary(sums), "95%") {
		t.Errorf("summary text:\n%s", FormatSummary(sums))
	}
}

// TestFormatSpace pins both renderings of the Space column: a measured
// figure in MB, and n/a for a row whose Space the driver did not measure
// (any run with Workers != 1).
func TestFormatSpace(t *testing.T) {
	rows := []Row{
		{Suite: "s", Function: "measured", Space: 97_400_000},
		{Suite: "s", Function: "unmeasured"},
	}
	lines := strings.Split(Format(rows, false), "\n")
	if got := lines[2]; !strings.Contains(got, "    97.4M |") {
		t.Errorf("measured row: %q", got)
	}
	if got := lines[3]; !strings.Contains(got, "      n/a |") || strings.Contains(got, "0.0M") {
		t.Errorf("unmeasured row: %q", got)
	}
}

func TestExpectedManifest(t *testing.T) {
	// Every benchmark function has a ground-truth record; totals match the
	// paper's headline.
	airbus := []string{
		"RTC_Si_SkipLine", "RTC_Si_FillChar", "RTC_Si_CopyString",
		"RTC_Si_AppendChar", "RTC_Si_InsertSeparator", "RTC_Si_PadBuffer",
		"RTC_Si_TruncateAt", "RTC_Si_CountChar", "RTC_Si_SkipBalanced",
		"RTC_Si_CopyLine", "RTC_Si_WriteText",
	}
	fixwrites := []string{
		"remove_newline", "find_assign", "join_lines", "whine",
		"break_line", "skip_blanks", "set_progname", "fix_file",
	}
	errTotal := 0
	for _, fn := range append(airbus, fixwrites...) {
		e, ok := Expected(fn)
		if !ok {
			t.Errorf("no expectation for %s", fn)
			continue
		}
		errTotal += e.Errors
	}
	for _, fn := range airbus {
		if e, _ := Expected(fn); e.Errors != 0 {
			t.Errorf("airbus %s marked with errors", fn)
		}
	}
	if errTotal != 8 {
		t.Errorf("total expected errors = %d, want 8", errTotal)
	}
}
