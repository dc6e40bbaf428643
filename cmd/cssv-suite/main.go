// Command cssv-suite runs a corpus of C verification tasks with expected
// verdicts — an SV-COMP-style suite runner for the analyzer. Each task is
// a C source file with a sidecar expectation file:
//
//	testdata/suite/overflow.c
//	testdata/suite/overflow.expect
//
// The expectation file holds one `key: value` pair per line (with `#`
// comments):
//
//	verdict: unsafe      # safe | unsafe | unknown | error
//	messages: 2          # optional exact message count
//
// The runner's computed verdict is "error" when the analysis fails,
// "safe" when no messages are reported, "unknown" when every reported
// message is an unresolved (budget-exhausted) check, and "unsafe"
// otherwise. Every task runs with the tier cascade enabled, so the
// per-task report also shows which tier discharged each proven check.
//
// Usage:
//
//	cssv-suite [flags] dir-or-file [...]
//
// Exit status is 1 when any task's verdict (or message count) regressed
// against its expectation, 2 on runner errors (malformed corpus, missing
// expectation files), and 0 on a clean run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro"
)

type expectation struct {
	// Verdict is "safe", "unsafe", "unknown", or "error".
	Verdict string
	// Messages is the exact expected message count, -1 when the
	// expectation file does not pin one.
	Messages int
}

type taskResult struct {
	File             string         `json:"file"`
	Expected         string         `json:"expected"`
	Verdict          string         `json:"verdict"`
	Messages         int            `json:"messages"`
	Unresolved       int            `json:"unresolved"`
	ExpectedMessages *int           `json:"expected_messages,omitempty"`
	TimeMS           float64        `json:"time_ms"`
	Tiers            map[string]int `json:"tiers,omitempty"`
	Pass             bool           `json:"pass"`
	Detail           string         `json:"detail,omitempty"`
}

type suiteResult struct {
	Schedule    string       `json:"schedule"`
	Tasks       []taskResult `json:"tasks"`
	Total       int          `json:"total"`
	Passed      int          `json:"passed"`
	Regressions int          `json:"regressions"`
}

func main() {
	var (
		jsonOut   = flag.Bool("json", false, "emit the machine-readable suite report on stdout instead of per-task lines")
		schedMode = flag.String("schedule", "off", "cascade tier scheduler: off, adaptive")
		schedProf = flag.String("schedule-profile", "", "directory for the on-disk scheduler profile (default: <cache-dir>/schedule when -cache-dir is set)")
		cacheDir  = flag.String("cache-dir", "", "directory for the on-disk analysis cache shared across tasks")
		jobs      = flag.Int("j", 0, "procedures analyzed in parallel per task (0 = all CPUs)")
		domain    = flag.String("domain", "polyhedra", "final numeric domain: polyhedra, zone, interval")
		pointer   = flag.String("pointer", "inclusion", "pointer analysis: inclusion, unification")
		target    = flag.String("target", "paper32", "object-layout data model: paper32, sysv64")
		contracts = flag.String("contracts", "manual", "contract mode: manual, vacuous, auto")
		timeout   = flag.Duration("proc-timeout", 0, "wall-clock budget per procedure (0 = unlimited)")
		steps     = flag.Int("step-budget", 0, "fixpoint iteration budget per procedure (0 = unlimited)")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: cssv-suite [flags] dir-or-file [...]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	tasks, err := collectTasks(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "cssv-suite:", err)
		os.Exit(2)
	}
	if len(tasks) == 0 {
		fmt.Fprintln(os.Stderr, "cssv-suite: no .c tasks found")
		os.Exit(2)
	}

	cfg := cssv.Config{
		Domain:          *domain,
		Pointer:         *pointer,
		Target:          *target,
		Contracts:       *contracts,
		Cascade:         true,
		Workers:         *jobs,
		ProcTimeout:     *timeout,
		StepBudget:      *steps,
		CacheDir:        *cacheDir,
		Schedule:        *schedMode,
		ScheduleProfile: *schedProf,
	}

	suite := suiteResult{Schedule: *schedMode}
	for _, cfile := range tasks {
		exp, err := parseExpect(expectPath(cfile))
		if err != nil {
			fmt.Fprintln(os.Stderr, "cssv-suite:", err)
			os.Exit(2)
		}
		res := runTask(cfile, exp, cfg)
		suite.Tasks = append(suite.Tasks, res)
		suite.Total++
		if res.Pass {
			suite.Passed++
		} else {
			suite.Regressions++
		}
		if !*jsonOut {
			printTask(res)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(suite); err != nil {
			fmt.Fprintln(os.Stderr, "cssv-suite:", err)
			os.Exit(2)
		}
	} else {
		fmt.Printf("cssv-suite: %d/%d passed", suite.Passed, suite.Total)
		if suite.Regressions > 0 {
			fmt.Printf(", %d REGRESSED", suite.Regressions)
		}
		fmt.Println()
	}
	if suite.Regressions > 0 {
		os.Exit(1)
	}
}

// collectTasks expands each argument into its .c files: directories are
// walked recursively, plain files are taken as-is. The result is sorted
// so runs are deterministic regardless of argument or readdir order.
func collectTasks(args []string) ([]string, error) {
	var tasks []string
	for _, arg := range args {
		info, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			if !strings.HasSuffix(arg, ".c") {
				return nil, fmt.Errorf("%s: not a .c file", arg)
			}
			tasks = append(tasks, arg)
			continue
		}
		err = filepath.WalkDir(arg, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(path, ".c") {
				tasks = append(tasks, path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(tasks)
	return tasks, nil
}

func expectPath(cfile string) string {
	return strings.TrimSuffix(cfile, ".c") + ".expect"
}

func parseExpect(path string) (expectation, error) {
	exp := expectation{Messages: -1}
	data, err := os.ReadFile(path)
	if err != nil {
		return exp, fmt.Errorf("%s: every suite task needs an expectation sidecar: %v", path, err)
	}
	for ln, line := range strings.Split(string(data), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		key, value, ok := strings.Cut(line, ":")
		if !ok {
			return exp, fmt.Errorf("%s:%d: want `key: value`, got %q", path, ln+1, line)
		}
		key, value = strings.TrimSpace(key), strings.TrimSpace(value)
		switch key {
		case "verdict":
			switch value {
			case "safe", "unsafe", "unknown", "error":
				exp.Verdict = value
			default:
				return exp, fmt.Errorf("%s:%d: verdict must be safe, unsafe, unknown, or error; got %q", path, ln+1, value)
			}
		case "messages":
			n, err := strconv.Atoi(value)
			if err != nil || n < 0 {
				return exp, fmt.Errorf("%s:%d: messages must be a non-negative integer, got %q", path, ln+1, value)
			}
			exp.Messages = n
		default:
			return exp, fmt.Errorf("%s:%d: unknown key %q", path, ln+1, key)
		}
	}
	if exp.Verdict == "" {
		return exp, fmt.Errorf("%s: missing required `verdict:` line", path)
	}
	return exp, nil
}

func runTask(cfile string, exp expectation, cfg cssv.Config) taskResult {
	res := taskResult{File: cfile, Expected: exp.Verdict}
	if exp.Messages >= 0 {
		n := exp.Messages
		res.ExpectedMessages = &n
	}
	rep, err := cssv.AnalyzeFile(cfile, cfg)
	if err != nil {
		res.Verdict = "error"
		res.Detail = err.Error()
		res.Pass = exp.Verdict == "error"
		return res
	}
	res.TimeMS = float64(rep.Stats.Wall.Microseconds()) / 1e3
	tiers := map[string]int{}
	for _, p := range rep.Procedures {
		res.Messages += len(p.Messages)
		for _, m := range p.Messages {
			if m.Unresolved {
				res.Unresolved++
			}
		}
		if p.Cascade != nil {
			for _, c := range p.Cascade.Checks {
				if !c.Violated {
					tiers[c.Tier]++
				}
			}
		}
	}
	if len(tiers) > 0 {
		res.Tiers = tiers
	}
	switch {
	case res.Messages == 0:
		res.Verdict = "safe"
	case res.Unresolved == res.Messages:
		res.Verdict = "unknown"
	default:
		res.Verdict = "unsafe"
	}
	res.Pass = res.Verdict == exp.Verdict &&
		(exp.Messages < 0 || res.Messages == exp.Messages)
	if !res.Pass && res.Verdict == exp.Verdict {
		res.Detail = fmt.Sprintf("message count %d, expected %d", res.Messages, exp.Messages)
	}
	return res
}

func printTask(r taskResult) {
	status := "ok  "
	if !r.Pass {
		status = "FAIL"
	}
	line := fmt.Sprintf("%s %s verdict=%s", status, r.File, r.Verdict)
	if r.Verdict != r.Expected {
		line += " expected=" + r.Expected
	}
	line += fmt.Sprintf(" msgs=%d", r.Messages)
	if r.Unresolved > 0 {
		line += fmt.Sprintf(" unresolved=%d", r.Unresolved)
	}
	line += fmt.Sprintf(" time=%.0fms tiers=%s", r.TimeMS, formatTiers(r.Tiers))
	if r.Detail != "" {
		line += " (" + r.Detail + ")"
	}
	fmt.Println(line)
}

// formatTiers renders per-tier discharge counts in sorted tier order.
func formatTiers(m map[string]int) string {
	if len(m) == 0 {
		return "none"
	}
	names := make([]string, 0, len(m))
	for t := range m {
		names = append(names, t)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, t := range names {
		parts[i] = fmt.Sprintf("%s:%d", t, m[t])
	}
	return strings.Join(parts, ",")
}
