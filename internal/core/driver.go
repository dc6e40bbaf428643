package core

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/arena"
	"repro/internal/budget"
	"repro/internal/c2ip"
	"repro/internal/cache"
	"repro/internal/cast"
	"repro/internal/certify"
	"repro/internal/clex"
	"repro/internal/corec"
	"repro/internal/cparse"
	"repro/internal/ctypes"
	"repro/internal/derive"
	"repro/internal/inline"
	"repro/internal/ip"
	"repro/internal/libc"
	"repro/internal/pointer"
	"repro/internal/polyhedra"
	"repro/internal/ppt"
	"repro/internal/schedule"
	"repro/internal/zone"
)

// Options configures a CSSV run.
type Options struct {
	// PointerMode selects the whole-program points-to algorithm.
	PointerMode pointer.Mode
	// Target selects the object-layout data model (sizeof/offsetof folding,
	// member offsets, alignment padding). The default Paper32 reproduces the
	// paper's packed 32-bit model bit for bit; SysV64 applies the System V
	// AMD64 ABI rules and enables the field-sensitive store transfer and
	// access-path location naming.
	Target ctypes.Target
	// Workers bounds how many procedures are analyzed concurrently. The
	// per-procedure pipelines are independent by construction (the paper's
	// central design point: each procedure is verified separately against
	// contracts), so they fan out over a bounded pool. 0 means
	// runtime.GOMAXPROCS(0); 1 reproduces the sequential driver exactly.
	// Reports are deterministic — input order, bit-identical messages —
	// regardless of the worker count.
	Workers int
	// Domain selects the numeric domain (default polyhedra).
	Domain analysis.Domain
	// PPT tunes procedural points-to construction.
	PPT ppt.Options
	// C2IP tunes the transformation.
	C2IP c2ip.Options
	// WideningDelay / NarrowingPasses forward to the fixpoint engine.
	WideningDelay   int
	NarrowingPasses int
	// Cascade runs the tiered check discharge (interval, then zone, then
	// the configured domain on the sliced residual) instead of a single
	// fixpoint in the configured domain.
	Cascade bool
	// Certify validates the analysis a posteriori: every discharged check
	// is re-proved from an exported invariant certificate by an independent
	// Fourier–Motzkin checker (no polyhedra code in the loop), and every
	// reported violation is replayed through the deterministic directed
	// interpreter and classified witnessed (a concrete trace reaches the
	// failing assert first) or potential. Results land in
	// ProcReport.Certification.
	Certify bool
	// NoSideEffectCheck disables the modifies-clause verification.
	NoSideEffectCheck bool
	// ProcDeadline bounds the wall-clock time of each procedure's
	// pipeline (0 = unlimited). When the deadline passes, the fixpoint
	// engine and the numeric substrates degrade gracefully: remaining
	// checks are reported as unresolved potential errors and the
	// procedure's report carries a Degradation record — the run itself
	// always completes.
	ProcDeadline time.Duration
	// StepBudget bounds the number of fixpoint worklist iterations per
	// procedure (0 = unlimited; cascade tiers share the budget). Unlike
	// the wall-clock deadline, step exhaustion is fully deterministic.
	StepBudget int
	// MaxRays overrides the polyhedra ray cap for this run (0 = the
	// package default, negative = unlimited). Replaces the old mutable
	// polyhedra.MaxRays package global.
	MaxRays int
	// NoArena disables the per-procedure slice arenas that recycle
	// numeric-substrate storage (DBM rows, generator vectors, saturation
	// bitsets). The arena is on by default; the toggle exists for
	// debugging and for measuring its effect.
	NoArena bool
	// Procs restricts analysis to these procedures (default: all defined
	// procedures that are not libc models).
	Procs []string
	// NoLibc disables prepending the standard-library contract header.
	NoLibc bool
	// Contracts selects which contract the analyzed procedure itself gets:
	// the manual one from the source (default), a vacuous one (side effects
	// only), or the automatically derived one (paper §4, Table 5's
	// "Deriving" columns). Callees always keep their declared contracts.
	Contracts ContractMode
	// CacheDir enables the content-addressed on-disk result cache
	// (internal/cache) rooted at this directory. An exact hit replays the
	// stored verdict; an entry whose body and configuration match but whose
	// environment (other declarations, prelude, own contract) changed takes
	// the certificate-revalidation fast path — front end re-run, stored
	// certificates re-proved by the independent checker, no fixpoint.
	// Degraded and auto-contract results are never cached.
	CacheDir string
	// CacheVerify treats every exact hit like a revalidation: certificates
	// re-proved and assert accounting re-checked before the entry is
	// trusted (paranoid mode; the integrity digests are always checked).
	CacheVerify bool
	// Schedule selects how the cascade orders its tiers (only meaningful
	// with Cascade): Off (default) runs every check through the fixed
	// tier order; Adaptive plans per-check tier order and step budgets
	// from the on-disk outcome profile. Scheduling moves cost, never
	// verdicts: the final domain always runs last and unbudgeted on
	// whatever remains.
	Schedule schedule.Mode
	// ScheduleProfile is the directory holding the scheduler's cross-run
	// outcome profiles (content-addressed by configuration, like cache
	// entries). Empty defaults to <CacheDir>/schedule when CacheDir is
	// set; with neither, outcomes are recorded in-memory only and the
	// adaptive scheduler starts cold every run.
	ScheduleProfile string
}

// ContractMode selects the analyzed procedure's own contract.
type ContractMode int

// Contract modes.
const (
	ManualContracts ContractMode = iota
	VacuousContracts
	AutoContracts
)

// ProcReport is one row of the paper's Table 5.
type ProcReport struct {
	Name string
	// LOC: non-blank lines of the original function; SLOC: after the
	// source-to-source transformations (CoreC + inlining).
	LOC, SLOC int
	// IPVars / IPSize: constraint variables and statements of the C2IP
	// output.
	IPVars, IPSize int
	// CPU is the elapsed time of the whole per-procedure pipeline. Under
	// Workers > 1 it includes time the worker goroutine spent descheduled,
	// so the sum over procedures ("sequential-equivalent CPU") can exceed
	// the run's wall clock.
	CPU time.Duration
	// Space is the process-wide heap allocation delta (runtime/metrics
	// "/gc/heap/allocs:bytes") around the pipeline. It is measured only
	// when the procedure ran exclusively (Workers == 1): with concurrent
	// workers a global counter cannot attribute allocations to one
	// procedure, so the driver reports 0 rather than noise.
	Space uint64
	// Violations are the reported messages; Warnings the non-error notes.
	Violations []analysis.Violation
	Warnings   []c2ip.Warning
	Iterations int
	// IP retains the generated program (printing, derivation, tests).
	IP *ip.Program
	// Cascade carries the per-tier statistics and check provenance when
	// Options.Cascade is set.
	Cascade *analysis.CascadeResult
	// Certification carries, under Options.Certify, the per-check outcome
	// of certificate verification and counter-example replay.
	Certification *certify.Outcome
	// Inlined is the analyzed (inlined + normalized) procedure.
	Inlined *cast.FuncDecl
	// PPT is the procedural points-to state used.
	PPT *ppt.PPT
	// Derived carries the auto-derived contract under AutoContracts.
	Derived *derive.Result
	// Degraded is non-nil when the procedure's analysis did not run to
	// completion — its budget was exhausted or it panicked. The
	// procedure's unresolved checks are conservatively present in
	// Violations (never silently "safe").
	Degraded *Degradation
	// CacheStatus records how the result cache participated: "hit" (exact
	// replay, no front end or fixpoint), "revalidated" (front end re-run,
	// certificates re-proved, no fixpoint), "stored" (fresh analysis,
	// result written to the cache), "uncached" (caching enabled but this
	// result was not storable — e.g. degraded), or "" (caching disabled).
	// On "hit" the AST-level intermediates (Inlined, PPT) are nil and
	// Space reflects the hit path, not the original analysis.
	CacheStatus string
}

// Degradation records why and how a procedure's analysis fell short of a
// full-precision run.
type Degradation struct {
	// Cause is "deadline", "step-budget", or "panic".
	Cause string
	// Detail is a human-readable description (for panics, the panic
	// value).
	Detail string
	// Stack is the goroutine stack at the point of a panic; empty for
	// budget exhaustion. Timing- and scheduler-dependent, so it is
	// excluded from determinism comparisons.
	Stack string
	// Unresolved counts the checks reported as unresolved potential
	// errors because of this degradation.
	Unresolved int
}

// Messages returns the number of reported messages.
func (r *ProcReport) Messages() int { return len(r.Violations) }

// Report is a whole-run result.
type Report struct {
	Procs []ProcReport
	// Stats aggregates whole-run cost and cache effectiveness.
	Stats RunStats
}

// RunStats describes one AnalyzeSource run.
type RunStats struct {
	// Workers is the pool size actually used (after defaulting and
	// clamping to the procedure count).
	Workers int
	// Wall is the elapsed time of the whole run; SequentialCPU is the sum
	// of the per-procedure pipeline times — an estimate of the wall clock
	// a Workers == 1 run would need. When workers oversubscribe the
	// available CPUs the per-procedure times include descheduled time, so
	// the estimate (and the speedup derived from it) reads high.
	Wall          time.Duration
	SequentialCPU time.Duration
	// PointerCacheHits / PointerCacheMisses count the memoized
	// whole-program pointer analyses consumed by this run.
	PointerCacheHits, PointerCacheMisses int
	// LibcHeaderReused reports whether the parsed libc contract header was
	// already cached when this run started.
	LibcHeaderReused bool
	// PrecisionDrops counts constraints the polyhedra substrate dropped at
	// its ray cap during this run. Each drop is a sound over-approximation,
	// but a nonzero count means precision was lost — surfaced here (and on
	// the cssv -stats line) instead of silently. The counter is per-run
	// (threaded through polyhedra.Config), so concurrent AnalyzeSource
	// calls in one process cannot cross-contaminate each other.
	PrecisionDrops int
	// DegradedProcs counts procedures whose analysis was cut short by a
	// budget or isolated after a panic; UnresolvedChecks counts their
	// checks conservatively reported as potential errors.
	DegradedProcs    int
	UnresolvedChecks int
	// ArenaRecycledBytes sums, over all procedures, the bytes the
	// per-procedure slice arenas served out of their free lists instead
	// of the garbage-collected heap. Recycling decisions depend only on
	// each procedure's operation sequence, so the total is deterministic.
	ArenaRecycledBytes int64
	// SparseZoneSelections / DenseZoneSelections count the zone
	// substrate's closure-boundary representation decisions across the
	// run (the automatic density policy; forced policies count too).
	// Content-only decisions, hence deterministic.
	SparseZoneSelections, DenseZoneSelections int64
	// CacheHits / CacheRevalidated / CacheMisses count, under
	// Options.CacheDir, how each cacheable procedure was resolved: exact
	// replay, certificate revalidation (front end re-run, stored
	// certificates re-proved, no fixpoint), or full analysis. CacheStores
	// counts entries written (fresh results and revalidation refreshes
	// under the new key). CacheBadEntries counts corrupt, truncated, or
	// undecodable entries encountered (each is logged and analyzed
	// around); CacheCertRejected counts entries rejected because a stored
	// certificate failed re-verification or assert accounting — never
	// silently trusted.
	CacheHits, CacheRevalidated, CacheMisses int
	CacheStores                              int
	CacheBadEntries, CacheCertRejected       int
	// PtCacheEvictions counts pointer-analysis memo entries evicted
	// (oldest first) because the memo reached its configured bound.
	PtCacheEvictions int
	// FixpointIterations sums the fixpoint worklist iterations actually
	// executed this run. Cached procedures contribute nothing — a fully
	// warm run reports 0, which is the deterministic witness that the
	// result cache, not the engine, produced the reports.
	FixpointIterations int
	// MemberResolved / MemberHavocked count C2IP memory-access sites
	// (member accesses lowered to byte arithmetic, plus ordinary derefs)
	// whose constraints were generated with a precise offset/aSize pair for
	// every possible target region, versus sites where a channel had to be
	// abandoned (unknown target, untracked offset, or the legacy wide-store
	// terminator havoc). Content-only counts, hence deterministic.
	MemberResolved, MemberHavocked int
	// ScheduleMode names the cascade scheduling mode of the run ("off" or
	// "adaptive"). ScheduleDecisions counts the plans the scheduler
	// applied across all procedures; ScheduleFromProfile how many of them
	// were steered by the recorded profile rather than the static
	// fallback. Zero/empty when scheduling is off or the cascade
	// did not run.
	ScheduleMode        string
	ScheduleDecisions   int
	ScheduleFromProfile int
	// TierDischarged counts, per tier (domain name, plus "unreachable"
	// for CFG-pruned checks), the checks that tier discharged across the
	// run; nil when the cascade did not run. Content-only, deterministic.
	TierDischarged map[string]int
}

// TotalMessages sums messages over all procedures.
func (r *Report) TotalMessages() int {
	n := 0
	for i := range r.Procs {
		n += r.Procs[i].Messages()
	}
	return n
}

// Proc returns the report for the named procedure, or nil.
func (r *Report) Proc(name string) *ProcReport {
	for i := range r.Procs {
		if r.Procs[i].Name == name {
			return &r.Procs[i]
		}
	}
	return nil
}

// parseUnit parses (with the libc contract header unless noLibc) and
// normalizes a translation unit under a fresh layout engine for the run's
// target. The header is lexed and parsed at most once per process
// (libc.Prelude) and its declarations are shared, immutable, across runs —
// the engine never mutates the interned structs, it memoizes layouts on the
// side.
func parseUnit(filename, src string, noLibc bool, target ctypes.Target) (*cast.File, *corec.Program, error) {
	layout := ctypes.NewEngine(target)
	var pre *cparse.Prelude
	if !noLibc {
		p, err := libc.Prelude()
		if err != nil {
			return nil, nil, err
		}
		pre = p
	}
	file, err := cparse.ParseFilesWithLayout(pre, []cparse.NamedSource{{Name: filename, Src: src}}, layout)
	if err != nil {
		return nil, nil, err
	}
	prog, err := corec.NormalizeWith(file, layout)
	if err != nil {
		return nil, nil, err
	}
	return file, prog, nil
}

// Prepare parses and normalizes a translation unit (with the libc contract
// header unless noLibc) under the packed Paper32 model, for callers that
// drive individual phases (e.g. contract derivation).
func Prepare(filename, src string, noLibc bool) (*corec.Program, error) {
	_, prog, err := parseUnit(filename, src, noLibc, ctypes.Paper32)
	return prog, err
}

// runCounters aggregates per-worker cache statistics and the run's
// precision-drop count (replacing the former process-global counter in
// internal/polyhedra).
type runCounters struct {
	ptHits, ptMisses      atomic.Int64
	ptEvict               atomic.Int64
	drops                 atomic.Int64
	arenaBytes            atomic.Int64
	selSparse, selDense   atomic.Int64
	memResolved, memHavoc atomic.Int64
	cacheHits, cacheReval atomic.Int64
	cacheMiss             atomic.Int64
	cacheStores           atomic.Int64
	cacheBad, cacheRej    atomic.Int64
	fixIters              atomic.Int64
}

// AnalyzeSource runs CSSV on a single translation unit given as text.
//
// Procedures are analyzed independently (possibly concurrently, see
// Options.Workers) against shared immutable inputs: the parsed AST, the
// normalized program, and memoized pure results (parsed libc header,
// whole-program pointer analysis). Report.Procs is always in input order
// and its contents are identical for every worker count; on failure the
// first error in procedure order wins (when several procedures fail
// concurrently, the lowest-index failure that was observed) and in-flight
// workers are cancelled at their next phase boundary.
func AnalyzeSource(filename, src string, opts Options) (*Report, error) {
	start := time.Now()
	libcCached := !opts.NoLibc && libc.PreludeCached()
	file, prog, err := parseUnit(filename, src, opts.NoLibc, opts.Target)
	if err != nil {
		return nil, err
	}

	procs := opts.Procs
	if procs == nil {
		for _, fd := range prog.File.Funcs() {
			if !libc.Functions[fd.Name] {
				procs = append(procs, fd.Name)
			}
		}
		sort.Strings(procs)
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(procs) {
		workers = len(procs)
	}
	if workers < 1 {
		workers = 1
	}
	exclusive := workers == 1

	cc, err := newCacheCtx(filename, src, opts)
	if err != nil {
		return nil, err
	}

	// Scheduler setup: one immutable planner shared by every worker, one
	// recorder per procedure (merged in input order below, so the saved
	// profile is identical for every worker count). The profile is
	// content-addressed by the run configuration, like cache entries; a
	// corrupt profile is logged and replaced by an empty one.
	var planner *schedule.Planner
	var recorders []*schedule.Recorder
	var profPath string
	prof := schedule.NewProfile()
	if opts.Cascade && opts.Schedule != schedule.Off {
		if dir := scheduleProfileDir(opts); dir != "" {
			profPath = schedule.ProfilePath(dir, confFingerprint(opts))
			loaded, perr := schedule.LoadProfile(profPath)
			if perr != nil {
				fmt.Fprintf(os.Stderr, "cssv: schedule profile discarded: %v\n", perr)
			}
			prof = loaded
		}
		planner = schedule.NewPlanner(analysis.TierNames(opts.Domain), prof)
		recorders = make([]*schedule.Recorder, len(procs))
		for i := range recorders {
			recorders[i] = schedule.NewRecorder()
		}
	}

	rc := &runCounters{}
	results := make([]*ProcReport, len(procs))
	err = runPool(workers, len(procs), func(i int, done <-chan struct{}) error {
		var rec *schedule.Recorder
		if recorders != nil {
			rec = recorders[i]
		}
		pr, err := guardedAnalyzeProc(file, prog, procs[i], opts, cc, rc, planner, rec, exclusive, done)
		if err != nil {
			if err == errCancelled {
				return err
			}
			return fmt.Errorf("%s: %w", procs[i], err)
		}
		results[i] = pr
		return nil
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{}
	rep.Stats.ScheduleMode = opts.Schedule.String()
	for _, pr := range results {
		rep.Procs = append(rep.Procs, *pr)
		rep.Stats.SequentialCPU += pr.CPU
		if pr.Degraded != nil {
			rep.Stats.DegradedProcs++
			rep.Stats.UnresolvedChecks += pr.Degraded.Unresolved
		}
		if pr.Cascade != nil {
			for _, c := range pr.Cascade.Checks {
				if !c.Violated {
					if rep.Stats.TierDischarged == nil {
						rep.Stats.TierDischarged = map[string]int{}
					}
					rep.Stats.TierDischarged[c.Tier]++
				}
			}
			rep.Stats.ScheduleDecisions += len(pr.Cascade.Sched)
			for _, d := range pr.Cascade.Sched {
				if d.Source == "profile" {
					rep.Stats.ScheduleFromProfile++
				}
			}
		}
	}
	if recorders != nil && profPath != "" {
		for _, r := range recorders {
			prof.Merge(r.Profile())
		}
		if perr := schedule.SaveProfile(profPath, prof); perr != nil {
			fmt.Fprintf(os.Stderr, "cssv: schedule profile not saved: %v\n", perr)
		}
	}
	rep.Stats.Workers = workers
	rep.Stats.Wall = time.Since(start)
	rep.Stats.PointerCacheHits = int(rc.ptHits.Load())
	rep.Stats.PointerCacheMisses = int(rc.ptMisses.Load())
	rep.Stats.LibcHeaderReused = libcCached
	rep.Stats.PrecisionDrops = int(rc.drops.Load())
	rep.Stats.ArenaRecycledBytes = rc.arenaBytes.Load()
	rep.Stats.SparseZoneSelections = rc.selSparse.Load()
	rep.Stats.DenseZoneSelections = rc.selDense.Load()
	rep.Stats.MemberResolved = int(rc.memResolved.Load())
	rep.Stats.MemberHavocked = int(rc.memHavoc.Load())
	rep.Stats.CacheHits = int(rc.cacheHits.Load())
	rep.Stats.CacheRevalidated = int(rc.cacheReval.Load())
	rep.Stats.CacheMisses = int(rc.cacheMiss.Load())
	rep.Stats.CacheStores = int(rc.cacheStores.Load())
	rep.Stats.CacheBadEntries = int(rc.cacheBad.Load())
	rep.Stats.CacheCertRejected = int(rc.cacheRej.Load())
	rep.Stats.PtCacheEvictions = int(rc.ptEvict.Load())
	rep.Stats.FixpointIterations = int(rc.fixIters.Load())
	return rep, nil
}

// scheduleProfileDir resolves where the scheduler persists its outcome
// profile: the explicit override, else alongside the result cache, else
// nowhere (in-memory only).
func scheduleProfileDir(opts Options) string {
	if opts.ScheduleProfile != "" {
		return opts.ScheduleProfile
	}
	if opts.CacheDir != "" {
		return filepath.Join(opts.CacheDir, "schedule")
	}
	return ""
}

// guardedAnalyzeProc isolates a panicking per-procedure pipeline: the
// worker recovers, and the procedure is reported as degraded with one
// synthesized unresolved violation, so the run completes (with a nonzero
// message count) instead of crashing. Sibling procedures are unaffected.
func guardedAnalyzeProc(orig *cast.File, prog *corec.Program, name string, opts Options,
	cc *cacheCtx, rc *runCounters, planner *schedule.Planner, rec *schedule.Recorder,
	exclusive bool, done <-chan struct{}) (pr *ProcReport, err error) {
	defer func() {
		if r := recover(); r != nil {
			pr, err = panicReport(name, r, debug.Stack()), nil
		}
	}()
	return analyzeProc(orig, prog, name, opts, cc, rc, planner, rec, exclusive, done)
}

// panicReport builds the conservative report for a procedure whose
// analysis panicked: its checks are unknown, so the procedure is never
// silently "safe" — a single unresolved violation stands in for them.
func panicReport(name string, r any, stack []byte) *ProcReport {
	detail := fmt.Sprint(r)
	return &ProcReport{
		Name: name,
		Violations: []analysis.Violation{analysis.NewUnresolvedViolation(-1,
			fmt.Sprintf("internal error analyzing %s (panic: %s); "+
				"every check of this procedure is unresolved and reported as a potential error",
				name, detail),
			clex.Pos{})},
		Degraded: &Degradation{
			Cause:      "panic",
			Detail:     detail,
			Stack:      string(stack),
			Unresolved: 1,
		},
	}
}

// vacuousOf keeps only the side-effect clause of a contract.
func vacuousOf(fd *cast.FuncDecl) *cast.Contract {
	if fd == nil || fd.Contract == nil {
		return &cast.Contract{}
	}
	return &cast.Contract{Modifies: fd.Contract.Modifies}
}

// withContract returns a program copy where proc's contract is replaced.
func withContract(prog *corec.Program, proc string, ct *cast.Contract) *corec.Program {
	out := &cast.File{Name: prog.File.Name}
	for _, d := range prog.File.Decls {
		fd, ok := d.(*cast.FuncDecl)
		if !ok || fd.Name != proc {
			out.Decls = append(out.Decls, d)
			continue
		}
		nf := *fd
		nf.Contract = ct
		out.Decls = append(out.Decls, &nf)
	}
	return &corec.Program{
		File:        out,
		Strings:     prog.Strings,
		Layout:      prog.Layout,
		AccessPaths: prog.AccessPaths,
	}
}

// analyzeProc runs the per-procedure pipeline of Fig. 1. It only reads the
// shared orig/prog ASTs (every rewriting phase clones first), so any number
// of instances may run concurrently; done is polled at phase boundaries so
// a failing sibling cancels the pipeline promptly. exclusive marks that no
// sibling runs concurrently, enabling the Space measurement.
func analyzeProc(orig *cast.File, prog *corec.Program, name string, opts Options,
	cc *cacheCtx, rc *runCounters, planner *schedule.Planner, rec *schedule.Recorder,
	exclusive bool, done <-chan struct{}) (*ProcReport, error) {
	var allocBefore uint64
	if exclusive {
		allocBefore = heapAllocBytes()
	}
	start := time.Now()

	pr := &ProcReport{Name: name}
	if fd := orig.Lookup(name); fd != nil && fd.Body != nil {
		pr.LOC = cast.CountLines(cast.FuncString(fd))
	}

	if cancelled(done) {
		return nil, errCancelled
	}

	// Contract-mode preprocessing: replace P's own pre/postcondition.
	switch opts.Contracts {
	case VacuousContracts:
		prog = withContract(prog, name, vacuousOf(prog.File.Lookup(name)))
	case AutoContracts:
		der, err := derive.Derive(prog, name, derive.Options{
			PointerMode:     opts.PointerMode,
			WideningDelay:   opts.WideningDelay,
			NarrowingPasses: opts.NarrowingPasses,
		})
		if err != nil {
			return nil, fmt.Errorf("derive: %w", err)
		}
		ct := &cast.Contract{
			Requires: der.Requires,
			Ensures:  der.Ensures,
			Modifies: der.Modifies,
		}
		prog = withContract(prog, name, ct)
		pr.Derived = der
	}

	// Result-cache lookup. Auto-contract runs are not cached: the derived
	// contract is itself the product of a fixpoint the cache does not
	// capture. On an exact hit (body, configuration, and environment all
	// unchanged) the whole pipeline below — front end included — is
	// skipped.
	var ckey cache.Key
	cacheable := false
	if cc != nil && opts.Contracts != AutoContracts {
		ckey, cacheable = cc.keyFor(prog, name)
	}
	if cacheable {
		if hit := cc.tryHit(ckey, opts, rc); hit != nil {
			hit.CPU = time.Since(start)
			if exclusive {
				hit.Space = heapAllocBytes() - allocBefore
			}
			return hit, nil
		}
	}

	// Phase 1: inline contracts into P, then renormalize.
	inlined, err := inline.File(prog, name)
	if err != nil {
		return nil, fmt.Errorf("inline: %w", err)
	}
	nprog, err := corec.Renormalize(prog, inlined)
	if err != nil {
		return nil, fmt.Errorf("renormalize: %w", err)
	}
	fd := nprog.File.Lookup(name)
	if fd == nil || fd.Body == nil {
		return nil, fmt.Errorf("procedure not found or has no body")
	}
	if err := corec.Validate(fd); err != nil {
		return nil, fmt.Errorf("inlined procedure is not CoreC: %w", err)
	}
	pr.SLOC = cast.CountLines(cast.FuncString(fd))
	pr.Inlined = fd

	if cancelled(done) {
		return nil, errCancelled
	}

	// Phase 2: whole-program flow-insensitive pointer analysis + PPT. The
	// pointer result is memoized process-wide (read-only for all
	// consumers), so procedures whose inlining leaves the global points-to
	// input unchanged — and repeated runs — share one analysis.
	g, hit, evicted := cachedPointerAnalyze(nprog, opts.PointerMode, defaultPtCacheMax)
	if hit {
		rc.ptHits.Add(1)
	} else {
		rc.ptMisses.Add(1)
	}
	if evicted > 0 {
		rc.ptEvict.Add(int64(evicted))
	}
	pt := ppt.Build(nprog, fd, g, opts.PPT)
	pr.PPT = pt

	if cancelled(done) {
		return nil, errCancelled
	}

	// Phase 3: C2IP.
	res, err := c2ip.Transform(nprog, fd, pt, opts.C2IP)
	if err != nil {
		return nil, fmt.Errorf("c2ip: %w", err)
	}
	pr.IP = res.Prog
	pr.Warnings = res.Warnings
	pr.IPVars = res.Prog.NumVars()
	pr.IPSize = res.Prog.Size()
	rc.memResolved.Add(int64(res.MemberResolved))
	rc.memHavoc.Add(int64(res.MemberHavocked))

	if cancelled(done) {
		return nil, errCancelled
	}

	// Certificate-revalidation fast path: a cache entry whose body and
	// configuration match but whose environment changed is reused iff the
	// freshly generated integer program is identical (encoded form,
	// positions included) and every stored certificate re-proves under the
	// independent checker — no fixpoint runs. The side-effect check below
	// still runs fresh: the procedure's own contract may be exactly what
	// changed.
	revalidated := false
	var cachedCerts []*certify.Certificate
	var cachedOutcome *certify.Outcome
	if cacheable {
		revalidated, cachedCerts, cachedOutcome = cc.tryRevalidate(ckey, pr, res.Prog, opts, rc)
		if !revalidated {
			rc.cacheMiss.Add(1)
		}
	}

	var certs []*certify.Certificate
	if !revalidated {
		// Phase 4: integer analysis — a single fixpoint in the configured
		// domain, or the tiered cascade over reduced sub-programs. The budget
		// token (wall-clock deadline measured from the start of this
		// procedure's pipeline, plus the deterministic step budget) and the
		// per-run substrate configs are threaded through the engine and the
		// numeric kernels; a nil token is free.
		var deadline time.Time
		if opts.ProcDeadline > 0 {
			deadline = start.Add(opts.ProcDeadline)
		}
		tok := budget.New(deadline, opts.StepBudget)
		// One arena per procedure, shared by every substrate of this pipeline
		// (single-goroutine by construction) and freed wholesale when the
		// procedure's report is built — the configs, and the arena with them,
		// go out of scope at return.
		var ar *arena.Arena
		if !opts.NoArena {
			ar = arena.New()
		}
		pcfg := &polyhedra.Config{MaxRays: opts.MaxRays, Token: tok, Arena: ar}
		zcfg := &zone.Config{Token: tok, Arena: ar}
		// Certificates are exported whenever the result may be cached, not
		// only under Options.Certify: revalidating a stored entry later
		// requires its certificates. The flag is result-neutral — it only
		// makes the engine export what it already proved.
		aopts := analysis.Options{
			Domain:          analysis.WithSubstrate(opts.Domain, pcfg, zcfg),
			WideningDelay:   opts.WideningDelay,
			NarrowingPasses: opts.NarrowingPasses,
			Certify:         opts.Certify || cacheable,
			Token:           tok,
			ZoneConfig:      zcfg,
			Planner:         planner,
			Recorder:        rec,
		}
		var exhausted string
		if opts.Cascade {
			cres, err := analysis.AnalyzeCascade(res.Prog, aopts)
			if err != nil {
				return nil, fmt.Errorf("analysis: %w", err)
			}
			pr.Violations = cres.Violations
			pr.Iterations = cres.Iterations
			pr.Cascade = cres
			certs = cres.Certificates
			exhausted = cres.Exhausted
		} else {
			ares, err := analysis.Analyze(res.Prog, aopts)
			if err != nil {
				return nil, fmt.Errorf("analysis: %w", err)
			}
			pr.Violations = ares.Violations
			pr.Iterations = ares.Iterations
			if opts.Certify || cacheable {
				certs = analysis.CertifyResult(ares, aopts)
			}
			exhausted = ares.Exhausted
		}
		rc.fixIters.Add(int64(pr.Iterations))
		// Ray-cap drops are counted per run; budget-induced constraint drops
		// are timing-dependent and deliberately uncounted (determinism).
		rc.drops.Add(pcfg.DroppedConstraints())
		rc.arenaBytes.Add(ar.Recycled())
		sparseSel, denseSel := zcfg.SparseSelections()
		rc.selSparse.Add(sparseSel)
		rc.selDense.Add(denseSel)
		if exhausted != "" {
			unresolved := 0
			for _, v := range pr.Violations {
				if v.Unresolved {
					unresolved++
				}
			}
			pr.Degraded = &Degradation{
				Cause: exhausted,
				Detail: fmt.Sprintf("analysis budget exhausted (%s); %d check(s) unresolved",
					exhausted, unresolved),
				Unresolved: unresolved,
			}
			// Certificates from an exhausted run may be partial; skip
			// certification rather than certify against pre-fixpoint iterates.
			certs = nil
		}

		// Phase 4b: a-posteriori certification — verify every discharged
		// check's certificate with the independent Fourier–Motzkin checker and
		// replay every violation through the directed interpreter. Replay runs
		// against the original IP: slices over-approximate executions, so only
		// a trace of the full program is a genuine witness. This happens before
		// the side-effect check appends its (IP-less) violations. A degraded
		// procedure is not certified: its unresolved checks have no
		// certificates and its counter-examples were never computed.
		if opts.Certify && pr.Degraded == nil {
			if cancelled(done) {
				return nil, errCancelled
			}
			tierOf := map[int]string{}
			if pr.Cascade != nil {
				for _, c := range pr.Cascade.Checks {
					if c.Violated {
						tierOf[c.Index] = c.Tier
					}
				}
			} else {
				dom := opts.Domain
				if dom == nil {
					dom = analysis.PolyDomain{}
				}
				for _, v := range pr.Violations {
					tierOf[v.Index] = dom.Name()
				}
			}
			pr.Certification = certifyProc(res.Prog, certs, pr.Violations, tierOf)
		}
	}

	// nAnalysis separates the analysis-produced violations from the
	// side-effect ones appended below; the cache stores the two lists
	// separately (a revalidation replays only the former).
	nAnalysis := len(pr.Violations)

	// Side-effect verification (the modifies clause is part of the
	// contract and is checked like the pre/postconditions).
	if !opts.NoSideEffectCheck {
		if origFd := prog.File.Lookup(name); origFd != nil {
			pr.Violations = append(pr.Violations,
				checkSideEffects(fd, pt, origFd.Contract)...)
		}
	}

	// Store (or, after a revalidation, refresh under the new key, so the
	// next identical run exact-hits). Degraded results are never cached:
	// they depend on budgets and timing, and their checks are unresolved.
	if cacheable && pr.Degraded == nil {
		outcome := pr.Certification
		storeCerts := certs
		if revalidated {
			// Preserve the stored certification outcome even when this run
			// did not request certification, so the refreshed entry stays
			// usable for certifying runs.
			outcome = cachedOutcome
			storeCerts = cachedCerts
		}
		cc.put(ckey, pr, nAnalysis, res.MemberResolved, res.MemberHavocked, storeCerts, outcome, rc)
		if !revalidated {
			pr.CacheStatus = "stored"
		}
	} else if cc != nil && pr.CacheStatus == "" {
		pr.CacheStatus = "uncached"
	}

	pr.CPU = time.Since(start)
	if exclusive {
		pr.Space = heapAllocBytes() - allocBefore
	}
	return pr, nil
}
