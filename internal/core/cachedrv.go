// The driver side of the on-disk analysis cache (internal/cache): key
// derivation, report (de)hydration, and the three cache paths of
// analyzeProc — exact hit, certificate revalidation, store.
//
// Key derivation partitions the analysis input per procedure:
//
//   - Body: the procedure's rendered definition with its contract stripped.
//   - Conf: a fingerprint of every Options field that can change the
//     result (target, domain, cascade tiers, translation options, contract
//     mode, ...). Worker count, budgets, and the cache options themselves
//     are deliberately excluded: they change cost, not results — and
//     budget-degraded runs are never cached in the first place.
//   - Env: everything else — the raw source text and file name (they pin
//     the line/column positions reported messages carry; rendered text
//     alone is position-blind), every other declaration including the libc
//     contract prelude, the procedure's own contract, and the string
//     table.
//
// Invalidation matrix: Body or Conf changed → miss, full analysis. Env
// changed only → revalidation: the front end is re-run (milliseconds), the
// freshly generated integer program must match the stored one byte for
// byte in encoded form (source positions included), every stored
// certificate is re-proved by the independent Fourier–Motzkin checker, and
// the entry must pass assert accounting — every assert of the program
// covered by a certificate or a reported violation, so a tampered entry
// can never make a check silently safe. Only then is the stored verdict
// reused, with no fixpoint run; any failure falls back to full analysis.
package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/analysis"
	"repro/internal/c2ip"
	"repro/internal/cache"
	"repro/internal/cast"
	"repro/internal/certify"
	"repro/internal/corec"
	"repro/internal/ip"
)

// cacheCtx is the per-run cache state shared by all workers. nil means
// caching is disabled.
type cacheCtx struct {
	store  *cache.Store
	verify bool
	// conf is the run's configuration fingerprint, computed once.
	conf string
	// seed pins the raw translation unit (file name + source text) into
	// every Env hash, so reported positions can never go stale.
	seed string
}

func newCacheCtx(filename, src string, opts Options) (*cacheCtx, error) {
	if opts.CacheDir == "" {
		return nil, nil
	}
	store, err := cache.Open(opts.CacheDir)
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	io.WriteString(h, filename)
	h.Write([]byte{0})
	io.WriteString(h, src)
	return &cacheCtx{
		store:  store,
		verify: opts.CacheVerify,
		conf:   confFingerprint(opts),
		seed:   hex.EncodeToString(h.Sum(nil)),
	}, nil
}

// confFingerprint hashes every result-relevant configuration field. The
// cache format version participates so a codec change retires old entries
// wholesale.
func confFingerprint(opts Options) string {
	dom := opts.Domain
	if dom == nil {
		dom = analysis.PolyDomain{}
	}
	h := sha256.New()
	fmt.Fprintf(h, "format=%d\n", cache.FormatVersion)
	fmt.Fprintf(h, "target=%d pointer=%d domain=%s\n", opts.Target, opts.PointerMode, dom.Name())
	fmt.Fprintf(h, "ppt=%+v\n", opts.PPT)
	fmt.Fprintf(h, "c2ip=%+v\n", opts.C2IP)
	fmt.Fprintf(h, "widen=%d narrow=%d cascade=%v maxrays=%d\n",
		opts.WideningDelay, opts.NarrowingPasses, opts.Cascade, opts.MaxRays)
	fmt.Fprintf(h, "nolibc=%v nosideeffect=%v contracts=%d\n",
		opts.NoLibc, opts.NoSideEffectCheck, opts.Contracts)
	// The schedule mode participates because cached entries replay tier
	// statistics: an entry recorded under one scheduling mode must not be
	// replayed under another. The profile directory does not — the profile
	// can only move cost between tiers, never change results.
	fmt.Fprintf(h, "schedule=%s\n", opts.Schedule)
	return hex.EncodeToString(h.Sum(nil))
}

// keyFor derives the cache key of one procedure against the (possibly
// contract-rewritten) program. ok is false when the procedure has no
// definition; such procedures fail later in the pipeline and are never
// cached.
func (cc *cacheCtx) keyFor(prog *corec.Program, name string) (k cache.Key, ok bool) {
	fd := prog.File.Lookup(name)
	if fd == nil || fd.Body == nil {
		return cache.Key{}, false
	}
	stripped := *fd
	stripped.Contract = nil
	body := sha256.Sum256([]byte(cast.FuncString(&stripped)))

	h := sha256.New()
	io.WriteString(h, cc.seed)
	h.Write([]byte{0})
	// Every declaration with this procedure's body stubbed out: Body and
	// Env partition the rendered input, so an Env-only change leaves the
	// Body eligible for revalidation.
	stub := *fd
	stub.Body = nil
	env := &cast.File{Name: prog.File.Name}
	for _, d := range prog.File.Decls {
		if dfd, isFn := d.(*cast.FuncDecl); isFn && dfd == fd {
			env.Decls = append(env.Decls, &stub)
			continue
		}
		env.Decls = append(env.Decls, d)
	}
	io.WriteString(h, cast.Fprint(env))
	h.Write([]byte{0})
	names := make([]string, 0, len(prog.Strings))
	for n := range prog.Strings {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		io.WriteString(h, n)
		h.Write([]byte{0})
		io.WriteString(h, prog.Strings[n])
		h.Write([]byte{0})
	}
	return cache.Key{
		Proc: name,
		Body: hex.EncodeToString(body[:]),
		Conf: cc.conf,
		Env:  hex.EncodeToString(h.Sum(nil)),
	}, true
}

// cacheLog reports a cache anomaly. Anomalies are never fatal — the driver
// falls back to full analysis — but they are never silent either.
func cacheLog(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cssv: cache: "+format+"\n", args...)
}

// ---------------------------------------------------------------------------
// Report (de)hydration

func encodeViolationList(vs []analysis.Violation) []cache.Violation {
	out := make([]cache.Violation, 0, len(vs))
	for _, v := range vs {
		out = append(out, cache.Violation{
			Index:                  v.Index,
			Msg:                    v.Msg,
			Pos:                    v.Pos,
			Unverifiable:           v.Unverifiable,
			Unresolved:             v.Unresolved,
			CounterExample:         cache.EncodeCounterExample(v.CounterExample),
			CounterExampleIntegral: v.CounterExampleIntegral,
			StateSystem:            cache.EncodeSystem(v.StateSystem),
		})
	}
	return out
}

func decodeViolationList(ds []cache.Violation) ([]analysis.Violation, error) {
	out := make([]analysis.Violation, 0, len(ds))
	for _, d := range ds {
		ce, err := cache.DecodeCounterExample(d.CounterExample)
		if err != nil {
			return nil, err
		}
		state, err := cache.DecodeSystem(d.StateSystem)
		if err != nil {
			return nil, err
		}
		out = append(out, analysis.NewCachedViolation(d.Index, d.Msg, d.Pos,
			d.Unverifiable, d.Unresolved, d.CounterExampleIntegral, ce, state))
	}
	return out, nil
}

func encodeCascade(c *analysis.CascadeResult) *cache.Cascade {
	out := &cache.Cascade{
		Violations:    encodeViolationList(c.Violations),
		Iterations:    c.Iterations,
		ResidualVars:  c.ResidualVars,
		ResidualStmts: c.ResidualStmts,
	}
	for _, t := range c.Tiers {
		out.Tiers = append(out.Tiers, cache.Tier{
			Domain: t.Domain, Vars: t.Vars, Stmts: t.Stmts,
			Asserts: t.Asserts, Discharged: t.Discharged,
			Iterations: t.Iterations, CPUNs: int64(t.CPU),
		})
	}
	for _, ch := range c.Checks {
		out.Checks = append(out.Checks, cache.Check{
			Index: ch.Index, Pos: ch.Pos, Msg: ch.Msg, Tier: ch.Tier,
			Violated: ch.Violated, Vars: ch.Vars, Stmts: ch.Stmts,
		})
	}
	if c.Residual != nil {
		out.Residual = cache.EncodeProgram(c.Residual)
	}
	return out
}

func decodeCascade(d *cache.Cascade) (*analysis.CascadeResult, error) {
	viols, err := decodeViolationList(d.Violations)
	if err != nil {
		return nil, err
	}
	tiers := make([]analysis.TierStat, 0, len(d.Tiers))
	for _, t := range d.Tiers {
		tiers = append(tiers, analysis.TierStat{
			Domain: t.Domain, Vars: t.Vars, Stmts: t.Stmts,
			Asserts: t.Asserts, Discharged: t.Discharged,
			Iterations: t.Iterations, CPU: time.Duration(t.CPUNs),
		})
	}
	checks := make([]analysis.CheckProvenance, 0, len(d.Checks))
	for _, ch := range d.Checks {
		checks = append(checks, analysis.NewCachedCheckProvenance(
			ch.Index, ch.Pos, ch.Msg, ch.Tier, ch.Violated, ch.Vars, ch.Stmts))
	}
	var residual *ip.Program
	if d.Residual != nil {
		residual, err = cache.DecodeProgram(d.Residual)
		if err != nil {
			return nil, err
		}
	}
	return analysis.NewCachedCascade(viols, d.Iterations, tiers, checks,
		residual, d.ResidualVars, d.ResidualStmts), nil
}

// encodeEntry builds the cache entry for a completed, non-degraded
// analysis. nAnalysis is the number of leading pr.Violations produced by
// the analysis proper (the rest are side-effect violations, stored
// separately); certification may differ from pr.Certification on the
// revalidation refresh path (stored outcome preserved under a run that did
// not request certification).
func encodeEntry(pr *ProcReport, nAnalysis, memResolved, memHavocked int,
	certification *certify.Outcome) *cache.Entry {
	d := cache.ProcReport{
		Name: pr.Name, LOC: pr.LOC, SLOC: pr.SLOC,
		IPVars: pr.IPVars, IPSize: pr.IPSize, Iterations: pr.Iterations,
		Violations:     encodeViolationList(pr.Violations[:nAnalysis]),
		SideEffects:    encodeViolationList(pr.Violations[nAnalysis:]),
		MemberResolved: memResolved, MemberHavocked: memHavocked,
		Certification: certification,
	}
	for _, w := range pr.Warnings {
		d.Warnings = append(d.Warnings, cache.Warning{Pos: w.Pos, Msg: w.Msg})
	}
	if pr.IP != nil {
		d.IP = cache.EncodeProgram(pr.IP)
	}
	if pr.Cascade != nil {
		d.Cascade = encodeCascade(pr.Cascade)
	}
	return &cache.Entry{Report: d}
}

// decodeEntry rehydrates a ProcReport. includeSideEffects selects whether
// the stored side-effect violations are appended (exact hit) or left to a
// fresh run of the side-effect check (revalidation, where the contract may
// have changed). The AST-level intermediates (Inlined, PPT) are nil on a
// rehydrated report, by documented design.
func decodeEntry(e *cache.Entry, includeSideEffects bool) (*ProcReport, error) {
	d := &e.Report
	pr := &ProcReport{
		Name: d.Name, LOC: d.LOC, SLOC: d.SLOC,
		IPVars: d.IPVars, IPSize: d.IPSize, Iterations: d.Iterations,
	}
	var err error
	pr.Violations, err = decodeViolationList(d.Violations)
	if err != nil {
		return nil, err
	}
	if includeSideEffects {
		se, err := decodeViolationList(d.SideEffects)
		if err != nil {
			return nil, err
		}
		pr.Violations = append(pr.Violations, se...)
	}
	for _, w := range d.Warnings {
		pr.Warnings = append(pr.Warnings, c2ip.Warning{Pos: w.Pos, Msg: w.Msg})
	}
	if d.IP != nil {
		pr.IP, err = cache.DecodeProgram(d.IP)
		if err != nil {
			return nil, err
		}
	}
	if d.Cascade != nil {
		pr.Cascade, err = decodeCascade(d.Cascade)
		if err != nil {
			return nil, err
		}
	}
	pr.Certification = d.Certification
	return pr, nil
}

// ---------------------------------------------------------------------------
// Verification obligations shared by the paranoid-hit and revalidation paths

// verifyCachedCerts re-proves every stored certificate with the
// independent Fourier–Motzkin checker; any non-certified outcome rejects
// the entry.
func verifyCachedCerts(certs []*certify.Certificate) error {
	for _, r := range certify.VerifyAll(certs) {
		if r.Status != certify.StatusCertified {
			return fmt.Errorf("check %d (%s): %s", r.Index, r.Msg, r.Detail)
		}
	}
	return nil
}

// cacheAccounting enforces never-silently-safe on a cache entry: every
// assert of the integer program must be covered by a certificate or a
// reported violation. An entry that dropped a violation (tampering, a
// partial write that slipped past the digests) fails here and falls back
// to full analysis.
func cacheAccounting(p *ip.Program, certs []*certify.Certificate, d *cache.ProcReport) error {
	covered := map[int]bool{}
	for _, c := range certs {
		covered[c.Check.OrigIndex] = true
	}
	for _, v := range d.Violations {
		covered[v.Index] = true
	}
	for _, idx := range p.Asserts() {
		if !covered[idx] {
			return fmt.Errorf("assert %d has neither a certificate nor a violation", idx)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// The three cache paths

// tryHit attempts the exact-hit path: all three hashes equal. Under
// cc.verify every hit is additionally treated like a revalidation —
// certificates re-proved, accounting re-checked — before being trusted.
// Returns nil on any miss or rejection.
func (cc *cacheCtx) tryHit(k cache.Key, opts Options, rc *runCounters) *ProcReport {
	e, err := cc.store.Get(k)
	if err != nil {
		rc.cacheBad.Add(1)
		cacheLog("%s: unusable entry: %v", k.Proc, err)
		return nil
	}
	if e == nil {
		return nil
	}
	if opts.Certify && e.Report.Certification == nil {
		// Stored by a non-certifying run; the replay half of certification
		// cannot be reconstructed from the entry, so re-analyze (the store
		// at the end of the pipeline overwrites the entry with the outcome
		// included).
		return nil
	}
	pr, err := decodeEntry(e, true)
	if err != nil {
		rc.cacheBad.Add(1)
		cacheLog("%s: undecodable entry: %v", k.Proc, err)
		return nil
	}
	if cc.verify {
		certs, err := cc.store.Certificates(e)
		if err != nil {
			rc.cacheBad.Add(1)
			cacheLog("%s: unusable certificates: %v", k.Proc, err)
			return nil
		}
		if err := verifyCachedCerts(certs); err != nil {
			rc.cacheRej.Add(1)
			cacheLog("%s: certificate failed re-verification: %v", k.Proc, err)
			return nil
		}
		if pr.IP == nil {
			rc.cacheRej.Add(1)
			cacheLog("%s: entry has no integer program to account against", k.Proc)
			return nil
		}
		if err := cacheAccounting(pr.IP, certs, &e.Report); err != nil {
			rc.cacheRej.Add(1)
			cacheLog("%s: assert accounting failed: %v", k.Proc, err)
			return nil
		}
	}
	if !opts.Certify {
		pr.Certification = nil
	}
	rc.cacheHits.Add(1)
	rc.memResolved.Add(int64(e.Report.MemberResolved))
	rc.memHavoc.Add(int64(e.Report.MemberHavocked))
	pr.CacheStatus = "hit"
	return pr
}

// tryRevalidate attempts the certificate-revalidation fast path after the
// front end has run: same procedure body and configuration, different
// environment. On success pr is filled with the stored verdict (fresh
// front-end fields — warnings, sizes, the integer program — are kept), and
// the decoded certificates and stored certification outcome are returned
// so the caller can refresh the entry under the new key. No fixpoint runs.
func (cc *cacheCtx) tryRevalidate(k cache.Key, pr *ProcReport, fresh *ip.Program,
	opts Options, rc *runCounters) (revalidated bool, certs []*certify.Certificate, stored *certify.Outcome) {
	cands, errs := cc.store.Candidates(k.Proc, k.Body, k.Conf, k.Env)
	for _, err := range errs {
		rc.cacheBad.Add(1)
		cacheLog("%s: unusable candidate: %v", k.Proc, err)
	}
	if len(cands) == 0 {
		return false, nil, nil
	}
	freshIP, err := json.Marshal(cache.EncodeProgram(fresh))
	if err != nil {
		return false, nil, nil
	}
	for _, e := range cands {
		if opts.Certify && e.Report.Certification == nil {
			continue
		}
		if e.Report.IP == nil {
			continue
		}
		storedIP, err := json.Marshal(e.Report.IP)
		if err != nil || !bytes.Equal(storedIP, freshIP) {
			continue
		}
		ecerts, err := cc.store.Certificates(e)
		if err != nil {
			rc.cacheBad.Add(1)
			cacheLog("%s: unusable certificates: %v", k.Proc, err)
			continue
		}
		if err := verifyCachedCerts(ecerts); err != nil {
			rc.cacheRej.Add(1)
			cacheLog("%s: certificate failed re-verification: %v", k.Proc, err)
			continue
		}
		if err := cacheAccounting(fresh, ecerts, &e.Report); err != nil {
			rc.cacheRej.Add(1)
			cacheLog("%s: assert accounting failed: %v", k.Proc, err)
			continue
		}
		dec, err := decodeEntry(e, false)
		if err != nil {
			rc.cacheBad.Add(1)
			cacheLog("%s: undecodable entry: %v", k.Proc, err)
			continue
		}
		pr.Violations = dec.Violations
		pr.Iterations = dec.Iterations
		pr.Cascade = dec.Cascade
		if opts.Certify {
			pr.Certification = dec.Certification
		}
		pr.CacheStatus = "revalidated"
		rc.cacheReval.Add(1)
		return true, ecerts, e.Report.Certification
	}
	return false, nil, nil
}

// put stores a completed result (or refreshes a revalidated one under its
// new key). Store failures are logged, never fatal.
func (cc *cacheCtx) put(k cache.Key, pr *ProcReport, nAnalysis, memResolved, memHavocked int,
	certs []*certify.Certificate, certification *certify.Outcome, rc *runCounters) {
	e := encodeEntry(pr, nAnalysis, memResolved, memHavocked, certification)
	if err := cc.store.Put(k, e, certs); err != nil {
		cacheLog("%s: store failed: %v", k.Proc, err)
		return
	}
	rc.cacheStores.Add(1)
}
