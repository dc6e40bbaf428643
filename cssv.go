// Package cssv is a Go implementation of CSSV (C String Static Verifier),
// the sound static analyzer for C string manipulation errors of
//
//	Nurit Dor, Michael Rodeh, Mooly Sagiv:
//	"CSSV: Towards a Realistic Tool for Statically Detecting All Buffer
//	Overflows in C", PLDI 2003.
//
// CSSV analyzes each procedure separately against programmer-supplied (or
// automatically derived) contracts. The pipeline (paper Fig. 1):
//
//  1. contracts are inlined as assume/assert statements and the program is
//     normalized to CoreC;
//  2. a whole-program flow-insensitive pointer analysis yields procedural
//     points-to information, biased so formal parameters admit strong
//     updates (the Fig. 7 "parameterizable" merge);
//  3. the C2IP transformation produces a nondeterministic integer program
//     over constraint variables (offsets, allocation sizes, string lengths,
//     terminator flags);
//  4. a linear-relation analysis over convex polyhedra (Cousot–Halbwachs)
//     checks every assertion and reports counter-examples for the rest.
//
// Being conservative, CSSV reports every runtime string error, at the cost
// of occasional false alarms.
//
// Quick start:
//
//	rep, err := cssv.Analyze("prog.c", source, cssv.Config{})
//	for _, p := range rep.Procedures {
//	    for _, m := range p.Messages {
//	        fmt.Println(m.Text)
//	    }
//	}
package cssv

import (
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/c2ip"
	"repro/internal/core"
	"repro/internal/ctypes"
	"repro/internal/derive"
	"repro/internal/linear"
	"repro/internal/ppt"
	"repro/internal/schedule"
)

// Config selects analysis variants. The zero value is the paper's
// configuration: polyhedra domain, inclusion-based pointer analysis,
// manual contracts, PPT merging on.
type Config struct {
	// Domain: "polyhedra" (default), "interval", or "zone".
	Domain string
	// Pointer: "inclusion" (default) or "unification".
	Pointer string
	// Target selects the object-layout data model: "paper32" (default) is
	// the paper's packed 32-bit model; "sysv64" applies the System V AMD64
	// ABI rules (8-byte pointers, alignment padding, bitfield storage
	// units) and enables the field-sensitive member-store transfer and
	// access-path location naming.
	Target string
	// Contracts: "manual" (default), "vacuous" (side effects only), or
	// "auto" (derive pre/postconditions first, paper §4).
	Contracts string
	// Procedures restricts the analysis; nil analyzes every defined
	// procedure.
	Procedures []string
	// DisablePPTMerging turns off the Fig. 7 strong-update merge
	// (for ablation: every update through a formal becomes weak).
	DisablePPTMerging bool
	// NaiveC2IP selects the O(S*V^2) translation of the authors' earlier
	// tool [13] (for the §3.4.2.4 complexity comparison).
	NaiveC2IP bool
	// StrictZeroStore uses the guarded null-store transfer instead of the
	// paper's Table 4 rule (see DESIGN.md).
	StrictZeroStore bool
	// NoLibc disables the built-in standard-library contract models.
	NoLibc bool
	// Workers bounds how many procedures are analyzed concurrently. CSSV
	// verifies each procedure separately against contracts, so the
	// per-procedure pipelines are independent and fan out over a bounded
	// worker pool; results are deterministic (input order, identical
	// messages) for every worker count. 0 uses all CPUs
	// (runtime.GOMAXPROCS); 1 forces the sequential driver, which is also
	// the only mode in which Procedure.Space is measured.
	Workers int
	// WideningDelay defers widening at loop heads (default 1).
	WideningDelay int
	// Cascade discharges checks in tiers: the integer program is reduced
	// (unreachable-node pruning, constant/copy propagation, per-assertion
	// backward slicing), the interval domain proves what it can, the zone
	// domain takes the residue, and the configured Domain (polyhedra by
	// default) analyzes only the slice of the checks the cheap tiers could
	// not prove. Reported messages are unchanged; per-tier statistics
	// appear in Procedure.Cascade.
	Cascade bool
	// Certify validates the analysis a posteriori. Every discharged check
	// yields an invariant certificate that an independent Fourier–Motzkin
	// checker (exact rational arithmetic, no polyhedra code) re-proves, and
	// every reported message is replayed through a deterministic directed
	// interpreter of the integer program and classified "witnessed" (a
	// concrete trace reaches the failing check) or "potential" (possible
	// false alarm). Results appear in Procedure.Certification.
	Certify bool
	// ProcTimeout bounds the wall-clock time of each procedure's pipeline
	// (0 = unlimited). On expiry the analysis degrades gracefully: the
	// procedure's remaining checks are reported as unresolved potential
	// errors (never silently "safe"), Procedure.Degraded records the
	// cause, and the run completes.
	ProcTimeout time.Duration
	// StepBudget bounds the fixpoint iterations per procedure
	// (0 = unlimited). Exhaustion degrades exactly like ProcTimeout but
	// is fully deterministic.
	StepBudget int
	// MaxRays overrides the polyhedra ray cap per run (0 = default,
	// negative = unlimited); drops at the cap are counted in
	// RunStats.PrecisionDrops.
	MaxRays int
	// NoArena disables the per-procedure slice arenas that recycle
	// numeric-substrate storage. On by default; the toggle exists for
	// debugging and ablation.
	NoArena bool
	// CacheDir enables the content-addressed on-disk result cache rooted at
	// this directory (created if missing). Results are keyed by structural
	// hashes of the procedure body, the run configuration, and the textual
	// environment (other declarations, libc prelude, the procedure's own
	// contract, raw source positions). An exact hit replays the stored
	// result; when only the environment changed, the stored invariant
	// certificates are re-proved by the independent Fourier–Motzkin checker
	// instead of re-running the fixpoint (the certificate-revalidation fast
	// path). Corrupt or tampered entries are detected, logged, counted in
	// RunStats.CacheBadEntries / CacheCertRejected, and analyzed around —
	// never trusted. Reports are byte-identical to an uncached run.
	CacheDir string
	// CacheVerify re-proves the certificates and re-checks the assert
	// accounting of every exact cache hit before trusting it (paranoid
	// mode; integrity digests are always verified regardless).
	CacheVerify bool
	// Schedule selects the cascade's tier scheduling: "off" (default, or
	// empty) runs every check through the fixed interval→zone→final
	// cascade; "adaptive" plans per-check tier order and per-tier step
	// budgets from static slice features and the recorded cross-run
	// profile. Scheduling redistributes cost only: the final domain always
	// runs last and unbudgeted, so no verdict can change. A non-off mode
	// implies Cascade.
	Schedule string
	// ScheduleProfile is the directory for the adaptive scheduler's
	// cross-run outcome profiles. Empty defaults to <CacheDir>/schedule
	// when CacheDir is set; with neither, outcomes stay in-memory and the
	// adaptive scheduler starts cold each run.
	ScheduleProfile string
}

// Message is one potential string error.
type Message struct {
	// Pos is the blamed source position ("file:line:col").
	Pos string
	// Text describes the violated requirement.
	Text string
	// CounterExample assigns constraint variables values under which the
	// requirement fails (paper Fig. 8); may be empty.
	CounterExample map[string]string
	// Unverifiable marks conditions outside linear arithmetic.
	Unverifiable bool
	// Unresolved marks checks the analysis gave up on (budget exhausted
	// or the procedure's pipeline panicked); they are conservatively
	// reported as potential errors.
	Unresolved bool
}

// Procedure is the per-procedure result (one row of the paper's Table 5).
type Procedure struct {
	Name string
	// LOC and SLOC: source lines before/after the source-to-source
	// transformations.
	LOC, SLOC int
	// IPVars and IPSize: constraint variables and statements of the
	// generated integer program.
	IPVars, IPSize int
	// CPU is the elapsed time of the procedure's pipeline. Space is the
	// process-wide heap-allocation delta around it, measured only under
	// Workers == 1 (0 otherwise: a global counter cannot attribute
	// allocations to one procedure while others run concurrently).
	CPU   time.Duration
	Space uint64
	// Messages are the reported potential errors; Warnings are
	// non-blocking notes (e.g. non-constant format strings).
	Messages []Message
	Warnings []string
	// DerivedRequires / DerivedEnsures carry the auto-derived contract
	// under Contracts: "auto".
	DerivedRequires string
	DerivedEnsures  string
	// IntegerProgram is the pretty-printed C2IP output.
	IntegerProgram string
	// Cascade holds the tier statistics and per-check provenance under
	// Config.Cascade (nil otherwise).
	Cascade *CascadeStats
	// Certification holds the per-check certification outcome under
	// Config.Certify (nil otherwise).
	Certification *CertificationStats
	// Degraded is non-nil when this procedure's analysis did not run to
	// completion (budget exhausted or panic isolated); its unresolved
	// checks appear in Messages.
	Degraded *Degradation
	// CacheStatus records, under Config.CacheDir, how the result cache
	// participated: "hit" (exact replay), "revalidated" (certificates
	// re-proved, no fixpoint), "stored" (fresh result written), "uncached"
	// (result not storable), or "" (caching disabled).
	CacheStatus string
}

// Degradation explains why a procedure's analysis fell short of a full
// run.
type Degradation struct {
	// Cause is "deadline", "step-budget", or "panic".
	Cause string
	// Detail is a human-readable description.
	Detail string
	// Stack is the goroutine stack for panics (empty otherwise).
	Stack string
	// Unresolved counts checks reported as unresolved potential errors.
	Unresolved int
}

// CertificationStats summarizes one procedure's a-posteriori validation.
type CertificationStats struct {
	// Checks in program order: every discharged check with its certificate
	// verdict, every reported message with its replay verdict.
	Checks []CheckCertification
	// Certified counts checks whose certificate the independent checker
	// re-proved; Failed counts rejected certificates (an analyzer or
	// exporter bug — never expected in a release build). Witnessed counts
	// messages replayed to a concrete failing trace (true errors);
	// Potential the rest (possible false alarms).
	Certified, Failed, Witnessed, Potential int
}

// CheckCertification is the certification outcome for one check.
type CheckCertification struct {
	// Pos is the blamed source position; Check describes the property.
	Pos   string
	Check string
	// Tier is the domain that decided the check ("unreachable" when CFG
	// pruning removed it).
	Tier string
	// Status is "certified", "certificate-failed", "witnessed", or
	// "potential".
	Status string
	// Detail explains the status (verification error, replay note).
	Detail string
	// TraceLen is the length of the witnessing trace (witnessed only).
	TraceLen int
}

// CascadeStats describes how the tiered cascade discharged a procedure's
// checks.
type CascadeStats struct {
	// Tiers ran cheapest first; each analyzed only the slice of the checks
	// the previous tiers could not prove.
	Tiers []CascadeTier
	// Checks gives per-assert provenance in program order.
	Checks []CheckOrigin
	// ResidualVars and ResidualStmts are the dimensions of the sliced
	// sub-program that reached the final (polyhedra) tier; both are 0 when
	// the cheap tiers discharged every check.
	ResidualVars, ResidualStmts int
	// ReducedProgram is the pretty-printed residual integer program.
	ReducedProgram string
	// Decisions lists the scheduler's plans, one per group of checks that
	// shared a plan (nil under Config.Schedule "off", and for procedures
	// replayed from the result cache, which stores verdicts, not
	// scheduling history).
	Decisions []ScheduleDecision
}

// ScheduleDecision is one plan the scheduler applied to a group of
// checks.
type ScheduleDecision struct {
	// Checks are the integer-program statement indices of the group.
	Checks []int
	// Order lists the tiers tried, in order; Budgets the per-tier step
	// budget (0 = unbudgeted). Source is "static" (fixed order) or
	// "profile" (steered by recorded outcomes).
	Order   []string
	Budgets []int
	Source  string
}

// CascadeTier is one tier of the cascade.
type CascadeTier struct {
	// Domain names the tier's abstract domain.
	Domain string
	// IPVars and IPSize measure the sliced sub-program this tier analyzed.
	IPVars, IPSize int
	// Asserts entered the tier; Discharged were proven by it.
	Asserts, Discharged int
	// CPU is the tier's fixpoint time.
	CPU time.Duration
}

// CheckOrigin records which tier decided one check.
type CheckOrigin struct {
	// Pos is the blamed source position.
	Pos string
	// Check describes the verified property.
	Check string
	// Tier is the domain that discharged the check ("unreachable" when
	// pruning removed it), or the final domain when Violated.
	Tier string
	// Violated marks checks reported as messages.
	Violated bool
	// IPVars and IPSize are the dimensions of the sub-program in which the
	// check was decided.
	IPVars, IPSize int
}

// Report is the result of one analysis run.
type Report struct {
	Procedures []Procedure
	// Stats aggregates whole-run cost and cache effectiveness.
	Stats RunStats
}

// RunStats describes one analysis run.
type RunStats struct {
	// Workers is the pool size actually used.
	Workers int
	// Wall is the run's elapsed time; SequentialCPU sums the per-procedure
	// pipeline times (what a Workers=1 run would need, modulo caches).
	Wall          time.Duration
	SequentialCPU time.Duration
	// PointerCacheHits / PointerCacheMisses count memoized whole-program
	// pointer analyses; LibcHeaderReused reports whether the parsed libc
	// contract header was already cached when the run started.
	PointerCacheHits, PointerCacheMisses int
	LibcHeaderReused                     bool
	// PrecisionDrops counts constraints the polyhedra substrate dropped at
	// its ray cap during this run (each is a sound over-approximation, but
	// nonzero means precision was lost).
	PrecisionDrops int
	// DegradedProcs counts procedures cut short by a budget or isolated
	// after a panic; UnresolvedChecks counts their checks conservatively
	// reported as potential errors.
	DegradedProcs    int
	UnresolvedChecks int
	// ArenaRecycledBytes sums the bytes the per-procedure slice arenas
	// served out of their free lists instead of the heap (0 under
	// Config.NoArena). Deterministic per input.
	ArenaRecycledBytes int64
	// SparseZoneSelections / DenseZoneSelections count the zone
	// substrate's representation decisions at closure boundaries.
	SparseZoneSelections, DenseZoneSelections int64
	// CacheHits / CacheRevalidated / CacheMisses count, under
	// Config.CacheDir, how each cacheable procedure was resolved: exact
	// replay, certificate revalidation (front end re-run, certificates
	// re-proved, no fixpoint), or full analysis. CacheStores counts entries
	// written. CacheBadEntries counts corrupt or undecodable entries
	// encountered (logged and analyzed around); CacheCertRejected counts
	// entries rejected because a stored certificate failed re-verification
	// or assert accounting.
	CacheHits, CacheRevalidated, CacheMisses int
	CacheStores                              int
	CacheBadEntries, CacheCertRejected       int
	// PtCacheEvictions counts pointer-analysis memo entries evicted because
	// the memo reached its configured bound.
	PtCacheEvictions int
	// FixpointIterations sums the fixpoint worklist iterations actually
	// executed this run; cached procedures contribute nothing, so a fully
	// warm run reports 0.
	FixpointIterations int
	// MemberResolved / MemberHavocked count memory-access sites translated
	// with precise offset/aSize constraints for every possible target region
	// versus sites where a channel was abandoned (unknown target, untracked
	// offset, or the legacy wide-store terminator havoc).
	MemberResolved, MemberHavocked int
	// ScheduleMode names the cascade scheduling mode of the run ("off" or
	// "adaptive"). ScheduleDecisions counts the plans the scheduler applied
	// across procedures; ScheduleFromProfile how many were steered by the
	// recorded profile rather than the static fallback.
	ScheduleMode        string
	ScheduleDecisions   int
	ScheduleFromProfile int
	// TierDischarged counts discharged checks per cascade tier name
	// (plus "unreachable" for CFG-pruned checks); nil when the cascade
	// did not run.
	TierDischarged map[string]int
}

// Messages returns all messages across procedures.
func (r *Report) Messages() []Message {
	var out []Message
	for _, p := range r.Procedures {
		out = append(out, p.Messages...)
	}
	return out
}

// Analyze runs CSSV over C source text.
func Analyze(filename, source string, cfg Config) (*Report, error) {
	opts, err := cfg.driverOptions()
	if err != nil {
		return nil, err
	}
	rep, err := core.AnalyzeSource(filename, source, opts)
	if err != nil {
		return nil, err
	}
	out := &Report{Stats: RunStats(rep.Stats)}
	for i := range rep.Procs {
		out.Procedures = append(out.Procedures, convertProc(&rep.Procs[i]))
	}
	return out, nil
}

// AnalyzeFile runs CSSV over a C source file.
func AnalyzeFile(path string, cfg Config) (*Report, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Analyze(path, string(src), cfg)
}

// DeriveContracts runs the paper's §4 derivation (ASPost + AWPre) for one
// procedure and returns the derived clauses in contract-language syntax.
func DeriveContracts(filename, source, proc string) (requires, ensures string, err error) {
	prog, err := core.Prepare(filename, source, false)
	if err != nil {
		return "", "", err
	}
	res, err := derive.Derive(prog, proc, derive.Options{})
	if err != nil {
		return "", "", err
	}
	return res.RequiresText, res.EnsuresText, nil
}

func (cfg Config) driverOptions() (core.Options, error) {
	if cfg.WideningDelay < 0 {
		return core.Options{}, fmt.Errorf("cssv: WideningDelay must be >= 0, got %d", cfg.WideningDelay)
	}
	if cfg.Workers < 0 {
		return core.Options{}, fmt.Errorf("cssv: Workers must be >= 0, got %d", cfg.Workers)
	}
	if cfg.ProcTimeout < 0 {
		return core.Options{}, fmt.Errorf("cssv: ProcTimeout must be >= 0, got %v", cfg.ProcTimeout)
	}
	if cfg.StepBudget < 0 {
		return core.Options{}, fmt.Errorf("cssv: StepBudget must be >= 0, got %d", cfg.StepBudget)
	}
	schedMode, err := schedule.ParseMode(cfg.Schedule)
	if err != nil {
		return core.Options{}, fmt.Errorf("cssv: %v", err)
	}
	opts := core.Options{
		// The scheduler lives in the cascade, so a non-off mode implies it.
		Cascade:         cfg.Cascade || schedMode != schedule.Off,
		Schedule:        schedMode,
		ScheduleProfile: cfg.ScheduleProfile,
		Certify:         cfg.Certify,
		CacheDir:        cfg.CacheDir,
		CacheVerify:     cfg.CacheVerify,
		Procs:           cfg.Procedures,
		NoLibc:          cfg.NoLibc,
		Workers:         cfg.Workers,
		WideningDelay:   cfg.WideningDelay,
		ProcDeadline:    cfg.ProcTimeout,
		StepBudget:      cfg.StepBudget,
		MaxRays:         cfg.MaxRays,
		NoArena:         cfg.NoArena,
		PPT:             ppt.Options{DisableMerging: cfg.DisablePPTMerging},
		C2IP: c2ip.Options{
			Naive:           cfg.NaiveC2IP,
			StrictZeroStore: cfg.StrictZeroStore,
		},
	}
	switch cfg.Domain {
	case "", "polyhedra":
		opts.Domain = analysis.PolyDomain{}
	case "interval":
		opts.Domain = analysis.IntervalDomain{}
	case "zone":
		opts.Domain = analysis.ZoneDomain{}
	default:
		return opts, fmt.Errorf("cssv: unknown domain %q", cfg.Domain)
	}
	switch cfg.Pointer {
	case "", "inclusion":
	case "unification":
		opts.PointerMode = 1
	default:
		return opts, fmt.Errorf("cssv: unknown pointer mode %q", cfg.Pointer)
	}
	switch cfg.Contracts {
	case "", "manual":
		opts.Contracts = core.ManualContracts
	case "vacuous":
		opts.Contracts = core.VacuousContracts
	case "auto":
		opts.Contracts = core.AutoContracts
	default:
		return opts, fmt.Errorf("cssv: unknown contract mode %q", cfg.Contracts)
	}
	target, err := ctypes.ParseTarget(cfg.Target)
	if err != nil {
		return opts, fmt.Errorf("cssv: %v", err)
	}
	opts.Target = target
	return opts, nil
}

func convertProc(pr *core.ProcReport) Procedure {
	p := Procedure{
		Name:   pr.Name,
		LOC:    pr.LOC,
		SLOC:   pr.SLOC,
		IPVars: pr.IPVars,
		IPSize: pr.IPSize,
		CPU:    pr.CPU,
		Space:  pr.Space,

		CacheStatus: pr.CacheStatus,
	}
	// The IP can be nil when a pipeline stage upstream of C2IP produced the
	// violations; formatting must not dereference it.
	var space *linear.Space
	if pr.IP != nil {
		p.IntegerProgram = pr.IP.String()
		space = pr.IP.Space
	}
	for _, v := range pr.Violations {
		m := Message{
			Pos:          v.Pos.String(),
			Text:         analysis.FormatViolation(v, space),
			Unverifiable: v.Unverifiable,
			Unresolved:   v.Unresolved,
		}
		if len(v.CounterExample) > 0 {
			m.CounterExample = map[string]string{}
			var names []string
			for name := range v.CounterExample {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				m.CounterExample[name] = v.CounterExample[name].RatString()
			}
		}
		p.Messages = append(p.Messages, m)
	}
	for _, w := range pr.Warnings {
		p.Warnings = append(p.Warnings, fmt.Sprintf("%s: %s", w.Pos, w.Msg))
	}
	if pr.Derived != nil {
		p.DerivedRequires = pr.Derived.RequiresText
		p.DerivedEnsures = pr.Derived.EnsuresText
	}
	if pr.Cascade != nil {
		cs := &CascadeStats{
			ResidualVars:  pr.Cascade.ResidualVars,
			ResidualStmts: pr.Cascade.ResidualStmts,
		}
		if pr.Cascade.Residual != nil {
			cs.ReducedProgram = pr.Cascade.Residual.String()
		}
		for _, t := range pr.Cascade.Tiers {
			cs.Tiers = append(cs.Tiers, CascadeTier{
				Domain: t.Domain, IPVars: t.Vars, IPSize: t.Stmts,
				Asserts: t.Asserts, Discharged: t.Discharged, CPU: t.CPU,
			})
		}
		for _, c := range pr.Cascade.Checks {
			cs.Checks = append(cs.Checks, CheckOrigin{
				Pos: c.Pos.String(), Check: c.Msg, Tier: c.Tier,
				Violated: c.Violated, IPVars: c.Vars, IPSize: c.Stmts,
			})
		}
		for _, d := range pr.Cascade.Sched {
			cs.Decisions = append(cs.Decisions, ScheduleDecision{
				Checks: d.Checks, Order: d.Order, Budgets: d.Budgets,
				Source: d.Source,
			})
		}
		p.Cascade = cs
	}
	if pr.Degraded != nil {
		p.Degraded = &Degradation{
			Cause:      pr.Degraded.Cause,
			Detail:     pr.Degraded.Detail,
			Stack:      pr.Degraded.Stack,
			Unresolved: pr.Degraded.Unresolved,
		}
	}
	if pr.Certification != nil {
		st := &CertificationStats{
			Certified: pr.Certification.Certified,
			Failed:    pr.Certification.Failed,
			Witnessed: pr.Certification.Witnessed,
			Potential: pr.Certification.Potential,
		}
		for _, c := range pr.Certification.Checks {
			st.Checks = append(st.Checks, CheckCertification{
				Pos: c.Pos.String(), Check: c.Msg, Tier: c.Tier,
				Status: string(c.Status), Detail: c.Detail,
				TraceLen: c.TraceLen,
			})
		}
		p.Certification = st
	}
	return p
}
