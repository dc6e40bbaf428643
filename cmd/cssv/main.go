// Command cssv is the C String Static Verifier: it statically reports
// every potential string-manipulation error in a C source file
// (buffer overflows, accesses beyond the null terminator, contract
// violations), following Dor, Rodeh & Sagiv, PLDI 2003.
//
// Usage:
//
//	cssv [flags] file.c
//
// Exit status is 1 when messages were reported, 2 on usage or analysis
// failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro"
)

func main() {
	var (
		procs       = flag.String("procs", "", "comma-separated procedures to analyze (default: all)")
		domain      = flag.String("domain", "polyhedra", "numeric domain: polyhedra, zone, interval")
		pointer     = flag.String("pointer", "inclusion", "pointer analysis: inclusion, unification")
		target      = flag.String("target", "paper32", "object-layout data model: paper32 (the paper's packed 32-bit model), sysv64 (System V AMD64 ABI, field-sensitive member analysis)")
		contracts   = flag.String("contracts", "manual", "contract mode: manual, vacuous, auto")
		noMerge     = flag.Bool("no-ppt-merge", false, "disable the Fig. 7 strong-update merge")
		naive       = flag.Bool("naive-c2ip", false, "use the O(S*V^2) translation of [13]")
		stats       = flag.Bool("stats", false, "print per-procedure statistics (Table 5 columns)")
		dumpIP      = flag.Bool("dump-ip", false, "print the generated integer programs")
		cascade     = flag.Bool("cascade", false, "discharge checks in tiers (interval, zone, then the selected domain on the sliced residual)")
		certify     = flag.Bool("certify", false, "verify invariant certificates for discharged checks (independent Fourier-Motzkin checker) and replay reported messages to concrete witnesses")
		noArena     = flag.Bool("no-arena", false, "disable the per-procedure slice arenas that recycle numeric-substrate storage")
		dumpRed     = flag.Bool("dump-reduced-ip", false, "print the residual integer program the final cascade tier analyzed (implies -cascade)")
		jobs        = flag.Int("j", 0, "procedures analyzed in parallel (0 = all CPUs, 1 = sequential)")
		quiet       = flag.Bool("q", false, "suppress warnings")
		timeout     = flag.Duration("proc-timeout", 0, "wall-clock budget per procedure (0 = unlimited); on expiry remaining checks are reported unresolved")
		steps       = flag.Int("step-budget", 0, "fixpoint iteration budget per procedure (0 = unlimited); deterministic counterpart of -proc-timeout")
		cacheDir    = flag.String("cache-dir", "", "directory for the on-disk analysis cache (default: no cache); re-runs reuse stored per-procedure results when the procedure, contracts and configuration are unchanged")
		cacheVerify = flag.Bool("cache-verify", false, "re-verify stored certificates with the independent checker before trusting an exact cache hit (revalidation always verifies)")
		schedMode   = flag.String("schedule", "off", "cascade tier scheduler: off (fixed interval->zone->final cascade), adaptive (per-check tier order and step budgets from the recorded profile; implies -cascade)")
		schedProf   = flag.String("schedule-profile", "", "directory for the on-disk scheduler profile (default: <cache-dir>/schedule when -cache-dir is set, otherwise in-memory only)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cssv [flags] file.c")
		flag.PrintDefaults()
		os.Exit(2)
	}

	cfg := cssv.Config{
		Domain:            *domain,
		Pointer:           *pointer,
		Target:            *target,
		Contracts:         *contracts,
		DisablePPTMerging: *noMerge,
		NaiveC2IP:         *naive,
		Cascade:           *cascade || *dumpRed,
		Certify:           *certify,
		NoArena:           *noArena,
		Workers:           *jobs,
		ProcTimeout:       *timeout,
		StepBudget:        *steps,
		CacheDir:          *cacheDir,
		CacheVerify:       *cacheVerify,
		Schedule:          *schedMode,
		ScheduleProfile:   *schedProf,
	}
	if *jobs < 0 {
		fmt.Fprintln(os.Stderr, "cssv: -j must be >= 0")
		os.Exit(2)
	}
	if *procs != "" {
		cfg.Procedures = strings.Split(*procs, ",")
	}

	rep, err := cssv.AnalyzeFile(flag.Arg(0), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cssv:", err)
		os.Exit(2)
	}

	messages, certFailed := cssv.Render(os.Stdout, rep, cssv.RenderOptions{
		Stats:         *stats,
		DumpIP:        *dumpIP,
		DumpReducedIP: *dumpRed,
		Quiet:         *quiet,
		Target:        *target,
	})
	if certFailed > 0 {
		os.Exit(2)
	}
	if messages > 0 {
		os.Exit(1)
	}
}
