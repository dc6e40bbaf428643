// Package table5 is the evaluation harness that regenerates the paper's
// Table 5: per-procedure statistics (LOC, SLOC, contract class, IP size,
// CPU, space), message classification (errors vs false alarms against the
// suites' ground truth), and the contract-derivation comparison (false
// alarms under vacuous vs automatically derived vs manual contracts).
package table5

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
)

// Expect is the ground truth for one benchmark procedure.
type Expect struct {
	// Errors is the number of real errors among this procedure's reported
	// messages (inputs exist on which they occur).
	Errors int
	// Contract classifies the manual contract difficulty as in the paper:
	// S = simple specification (string/is_within_bounds),
	// B = buffer boundaries, I = other integer relations.
	Contract string
}

// Ground truth for the two suites (see testdata/*/: every Airbus procedure
// is safe; fixwrites contains eight real errors).
var expectations = map[string]Expect{
	// EADS Airbus-style string library.
	"RTC_Si_SkipLine":        {Errors: 0, Contract: "S,B,I"},
	"RTC_Si_FillChar":        {Errors: 0, Contract: "B,I"},
	"RTC_Si_CopyString":      {Errors: 0, Contract: "S,B"},
	"RTC_Si_AppendChar":      {Errors: 0, Contract: "S,B"},
	"RTC_Si_InsertSeparator": {Errors: 0, Contract: "B,I"},
	"RTC_Si_PadBuffer":       {Errors: 0, Contract: "S,B,I"},
	"RTC_Si_TruncateAt":      {Errors: 0, Contract: "S,I"},
	"RTC_Si_CountChar":       {Errors: 0, Contract: "S"},
	"RTC_Si_SkipBalanced":    {Errors: 0, Contract: "S"},
	"RTC_Si_CopyLine":        {Errors: 0, Contract: "S,B,I"},
	"RTC_Si_WriteText":       {Errors: 0, Contract: "S,B"},

	// fixwrites (web2c)-style line filter.
	"remove_newline": {Errors: 1, Contract: "S"},
	"find_assign":    {Errors: 1, Contract: "S"},
	"join_lines":     {Errors: 2, Contract: "S"},
	"whine":          {Errors: 1, Contract: "S"},
	"break_line":     {Errors: 0, Contract: "S,I"},
	"skip_blanks":    {Errors: 0, Contract: "S"},
	"set_progname":   {Errors: 1, Contract: "S"},
	"fix_file":       {Errors: 2, Contract: "S"},
}

// Expected returns the ground-truth record for a procedure.
func Expected(proc string) (Expect, bool) {
	e, ok := expectations[proc]
	return e, ok
}

// Row is one line of the regenerated Table 5.
type Row struct {
	Suite    string
	Function string
	LOC      int
	SLOC     int
	Contract string
	IPVars   int
	IPSize   int
	CPU      time.Duration
	// Space is 0 when it was not measured (Workers != 1; see
	// core.ProcReport.Space); Format renders that as n/a.
	Space uint64
	// Message classification under manual contracts.
	Msgs        int
	Errors      int
	FalseAlarms int
	// Deriving columns.
	DeriveCPU   time.Duration
	DeriveSpace uint64
	VacuousMsgs int
	AutoMsgs    int
	// Certification columns (under Driver.Certify): Certified counts
	// discharged checks whose invariant certificate the independent
	// Fourier–Motzkin checker re-proved; CertFailed counts rejected
	// certificates; Witnessed counts messages replayed to a concrete
	// failing trace; Potential the remaining messages.
	Certified  int
	CertFailed int
	Witnessed  int
	Potential  int
}

// Options tunes the harness run.
type Options struct {
	Driver core.Options
	// SkipDerivation omits the vacuous/auto columns (faster).
	SkipDerivation bool
	// Procs restricts to specific functions.
	Procs []string
	// Stats, when non-nil, accumulates substrate statistics (arena
	// recycling, zone representation selections, precision drops) across
	// every analysis run the suite performs, including the per-procedure
	// vacuous/auto derivation re-runs.
	Stats *core.RunStats
}

// accumulate folds one run's substrate counters into the caller's
// accumulator.
func (o Options) accumulate(s core.RunStats) {
	if o.Stats == nil {
		return
	}
	o.Stats.ArenaRecycledBytes += s.ArenaRecycledBytes
	o.Stats.SparseZoneSelections += s.SparseZoneSelections
	o.Stats.DenseZoneSelections += s.DenseZoneSelections
	o.Stats.PrecisionDrops += s.PrecisionDrops
	o.Stats.DegradedProcs += s.DegradedProcs
	o.Stats.UnresolvedChecks += s.UnresolvedChecks
	o.Stats.MemberResolved += s.MemberResolved
	o.Stats.MemberHavocked += s.MemberHavocked
}

// RunSuite analyzes every procedure of a benchmark source file.
func RunSuite(suite, path string, opts Options) ([]Row, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return RunSuiteSource(suite, filepath.Base(path), string(src), opts)
}

// RunSuiteSource is RunSuite over in-memory source text.
func RunSuiteSource(suite, filename, src string, opts Options) ([]Row, error) {
	dopts := opts.Driver
	dopts.Procs = opts.Procs
	dopts.Contracts = core.ManualContracts
	rep, err := core.AnalyzeSource(filename, src, dopts)
	if err != nil {
		return nil, err
	}
	opts.accumulate(rep.Stats)

	var rows []Row
	for i := range rep.Procs {
		pr := &rep.Procs[i]
		exp, _ := Expected(pr.Name)
		row := Row{
			Suite:    suite,
			Function: pr.Name,
			LOC:      pr.LOC,
			SLOC:     pr.SLOC,
			Contract: exp.Contract,
			IPVars:   pr.IPVars,
			IPSize:   pr.IPSize,
			CPU:      pr.CPU,
			Space:    pr.Space,
			Msgs:     pr.Messages(),
		}
		// Classification: the tool is sound, so every real error is among
		// the messages; the remainder are false alarms.
		row.Errors = exp.Errors
		if row.Msgs < row.Errors {
			row.Errors = row.Msgs
		}
		row.FalseAlarms = row.Msgs - row.Errors

		if pr.Certification != nil {
			row.Certified = pr.Certification.Certified
			row.CertFailed = pr.Certification.Failed
			row.Witnessed = pr.Certification.Witnessed
			row.Potential = pr.Certification.Potential
		}

		if !opts.SkipDerivation {
			vac := dopts
			vac.Procs = []string{pr.Name}
			vac.Contracts = core.VacuousContracts
			if vrep, err := core.AnalyzeSource(filename, src, vac); err == nil {
				row.VacuousMsgs = vrep.TotalMessages()
				opts.accumulate(vrep.Stats)
			}
			auto := dopts
			auto.Procs = []string{pr.Name}
			auto.Contracts = core.AutoContracts
			start := time.Now()
			if arep, err := core.AnalyzeSource(filename, src, auto); err == nil {
				row.AutoMsgs = arep.TotalMessages()
				opts.accumulate(arep.Stats)
				if d := arep.Procs[0].Derived; d != nil {
					row.DeriveSpace = d.Space
				}
			}
			row.DeriveCPU = time.Since(start)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Format renders rows as the paper's Table 5. withCertify adds the
// certification columns (certified/failed certificates, witnessed/potential
// messages); pass it when the rows were produced under Driver.Certify.
func Format(rows []Row, withDerive bool, withCertify ...bool) string {
	certify := len(withCertify) > 0 && withCertify[0]
	var sb strings.Builder
	if withDerive {
		fmt.Fprintf(&sb, "%-10s %-22s %5s %5s %-6s | %6s %7s %9s %9s | %4s %4s %5s",
			"Suite", "Function", "LOC", "SLOC", "Contr",
			"IPVars", "IPSize", "CPU", "Space",
			"Msg", "Err", "False")
		if certify {
			fmt.Fprintf(&sb, " | %4s %4s %4s %4s", "Cert", "CFail", "Wit", "Pot")
		}
		fmt.Fprintf(&sb, " | %9s %4s %4s\n", "DerCPU", "Vac", "Auto")
	} else {
		fmt.Fprintf(&sb, "%-10s %-22s %5s %5s %-6s | %6s %7s %9s %9s | %4s %4s %5s",
			"Suite", "Function", "LOC", "SLOC", "Contr",
			"IPVars", "IPSize", "CPU", "Space",
			"Msg", "Err", "False")
		if certify {
			fmt.Fprintf(&sb, " | %4s %4s %4s %4s", "Cert", "CFail", "Wit", "Pot")
		}
		sb.WriteString("\n")
	}
	width := 118
	if certify {
		width += 23
	}
	sb.WriteString(strings.Repeat("-", width) + "\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %-22s %5d %5d %-6s | %6d %7d %9s %9s | %4d %4d %5d",
			r.Suite, r.Function, r.LOC, r.SLOC, r.Contract,
			r.IPVars, r.IPSize, fmtDur(r.CPU), fmtSpace(r.Space),
			r.Msgs, r.Errors, r.FalseAlarms)
		if certify {
			fmt.Fprintf(&sb, " | %4d %5d %4d %4d", r.Certified, r.CertFailed, r.Witnessed, r.Potential)
		}
		if withDerive {
			fmt.Fprintf(&sb, " | %9s %4d %4d", fmtDur(r.DeriveCPU), r.VacuousMsgs, r.AutoMsgs)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

func fmtDur(d time.Duration) string {
	return d.Round(time.Millisecond).String()
}

// fmtSpace renders a heap-allocation figure in MB, or n/a when the driver
// did not measure it.
func fmtSpace(b uint64) string {
	if b == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1fM", float64(b)/1e6)
}

// Summary aggregates the headline numbers of paper §1.3 / §5.
type Summary struct {
	Suite           string
	Procedures      int
	Errors          int
	FalseAlarms     int
	VacuousMsgs     int
	AutoMsgs        int
	ManualReduction float64 // 1 - false/vacuous
	AutoReduction   float64 // 1 - auto/vacuous
	TotalCPU        time.Duration
	TotalIPVars     int
	TotalIPSize     int
}

// Summarize computes the per-suite headline.
func Summarize(rows []Row) []Summary {
	bySuite := map[string]*Summary{}
	var order []string
	for _, r := range rows {
		s, ok := bySuite[r.Suite]
		if !ok {
			s = &Summary{Suite: r.Suite}
			bySuite[r.Suite] = s
			order = append(order, r.Suite)
		}
		s.Procedures++
		s.Errors += r.Errors
		s.FalseAlarms += r.FalseAlarms
		s.VacuousMsgs += r.VacuousMsgs
		s.AutoMsgs += r.AutoMsgs
		s.TotalCPU += r.CPU
		s.TotalIPVars += r.IPVars
		s.TotalIPSize += r.IPSize
	}
	sort.Strings(order)
	var out []Summary
	for _, k := range order {
		s := bySuite[k]
		if s.VacuousMsgs > 0 {
			manualMsgs := s.FalseAlarms
			s.ManualReduction = 1 - float64(manualMsgs)/float64(s.VacuousMsgs)
			s.AutoReduction = 1 - float64(s.AutoMsgs)/float64(s.VacuousMsgs)
		}
		out = append(out, *s)
	}
	return out
}

// FormatSummary renders the headline comparison.
func FormatSummary(sums []Summary) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %5s %6s %6s | %8s %8s | %8s %8s\n",
		"Suite", "Procs", "Errors", "False", "VacMsgs", "AutoMsgs", "ManualRed", "AutoRed")
	sb.WriteString(strings.Repeat("-", 80) + "\n")
	for _, s := range sums {
		fmt.Fprintf(&sb, "%-10s %5d %6d %6d | %8d %8d | %7.0f%% %7.0f%%\n",
			s.Suite, s.Procedures, s.Errors, s.FalseAlarms,
			s.VacuousMsgs, s.AutoMsgs,
			100*s.ManualReduction, 100*s.AutoReduction)
	}
	return sb.String()
}
