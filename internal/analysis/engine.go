package analysis

import (
	"fmt"
	"math/big"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/budget"
	"repro/internal/clex"
	"repro/internal/ip"
	"repro/internal/linear"
	"repro/internal/schedule"
	"repro/internal/zone"
)

// TierBudgetExhausted is the Result.Exhausted value of an analysis cut
// short by Options.TierToken (the scheduler's per-tier step budget), as
// opposed to the procedure budget. The cascade treats it as "skip this
// tier" — the checks fall through to the next tier — never as an
// unresolved verdict.
const TierBudgetExhausted = "tier-budget"

// debugIterEvery reads CSSV_DEBUG_ITER once per process. The trace is a
// human debugging aid: it must go to stderr, never stdout, because
// stdout carries the machine-readable report stream (CLI reports and
// daemon responses are byte-compared against goldens).
var debugIterEvery = sync.OnceValue(func() int {
	return osGetenvInt("CSSV_DEBUG_ITER")
})

// Options tunes the fixpoint iteration.
type Options struct {
	// Domain selects the numeric domain (default PolyDomain).
	Domain Domain
	// WideningDelay is the number of joins at a loop head before widening
	// kicks in.
	WideningDelay int
	// NarrowingPasses is the number of decreasing passes after
	// stabilization.
	NarrowingPasses int
	// CheckOnly, when non-nil, restricts assert checking to the given
	// statement indices; all asserts still refine the state downstream.
	// The cascade uses it to keep already-discharged asserts as transfer
	// functions without re-reporting them.
	CheckOnly map[int]bool
	// Certify makes AnalyzeCascade export a certificate (per-point
	// invariant systems over the discharging tier's sliced sub-program) for
	// every check it discharges, in CascadeResult.Certificates. For plain
	// Analyze runs use CertifyResult instead.
	Certify bool
	// Token, when non-nil, bounds the analysis: each worklist iteration
	// consumes one budget step, and the deadline is polled alongside.
	// On exhaustion the analysis degrades soundly — every check it was
	// asked about is reported as an unresolved Violation (a potential
	// error, never silently "safe") and Result.Exhausted names the cause.
	Token *budget.Token
	// TierToken, when non-nil, is the scheduler's per-tier step budget,
	// polled alongside Token. Its exhaustion is reported as
	// Result.Exhausted == TierBudgetExhausted: the cascade then skips
	// the tier for the affected checks instead of reporting them
	// unresolved, so a tier budget can only cost time, never verdicts.
	TierToken *budget.Token
	// Planner, when non-nil, plans AnalyzeCascade's tiers per check:
	// per-check feature extraction, plan groups, per-tier ordering and
	// budgets. With no planner every check runs the fixed tier order.
	Planner *schedule.Planner
	// Recorder, when non-nil alongside Planner, receives the cascade's
	// per-(bucket, tier) outcomes for the cross-run profile. It is not
	// safe for concurrent use; the driver gives each procedure its own.
	Recorder *schedule.Recorder
	// ZoneConfig configures the zone tier AnalyzeCascade constructs
	// internally (the final domain arrives pre-configured via Domain).
	ZoneConfig *zone.Config
}

func (o *Options) fill() {
	if o.Domain == nil {
		o.Domain = PolyDomain{}
	}
	if o.WideningDelay == 0 {
		o.WideningDelay = 1
	}
	if o.NarrowingPasses == 0 {
		o.NarrowingPasses = 2
	}
}

// Violation is a potential assert failure.
type Violation struct {
	Index int // statement index of the assert
	Msg   string
	Pos   clex.Pos
	// Unverifiable marks assertions C2IP could not express.
	Unverifiable bool
	// Unresolved marks checks the analysis gave up on because its
	// resource budget was exhausted (or the procedure's analysis
	// panicked). Unresolved checks are conservatively reported as
	// potential errors; they carry no state system or counter-example.
	Unresolved bool
	// CounterExample assigns values to constraint variables under which
	// the assertion fails (paper Fig. 8); nil when unavailable.
	CounterExample map[string]*big.Rat
	// CounterExampleIntegral reports that the counter-example is a genuine
	// integral point of the bad region (each coordinate snapped to an
	// integer and re-checked by pinning). When false, only rational points
	// were found: program variables are integers, so the violation is at
	// best "potential" from this witness and replay hints are unusable.
	CounterExampleIntegral bool
	// StateSystem is the invariant the analysis derived just before the
	// assert, for the Fig. 8(a)-style report.
	StateSystem linear.System
}

// Result of analyzing one integer program.
type Result struct {
	Prog *ip.Program
	// Violations in program order.
	Violations []Violation
	// Iterations counts worklist steps (for the statistics tables).
	Iterations int
	// exit state (used by ASPost).
	ExitState State
	// in-states per statement (used by derivation and tests).
	States []State
	// Exhausted names the budget that ran out ("deadline" or
	// "step-budget"), or is empty for a completed analysis. An exhausted
	// result carries no invariants: the iterate states are pre-fixpoint
	// and unsound as invariants, so States is nil, ExitState is the
	// universe, and every requested check appears as an unresolved
	// Violation.
	Exhausted string
}

// cfgEdge is a control-flow edge with the condition assumed along it.
type cfgEdge struct {
	to   int
	cond ip.DNF // nil = true
}

// Analyze runs the forward analysis.
func Analyze(p *ip.Program, opts Options) (*Result, error) {
	opts.fill()
	if err := p.Resolve(); err != nil {
		return nil, err
	}
	n := len(p.Stmts)
	nvars := p.NumVars()

	ipSucc := p.CFG() // node n = exit
	succ := make([][]cfgEdge, n+1)
	for i, edges := range ipSucc {
		for _, e := range edges {
			succ[i] = append(succ[i], cfgEdge{to: e.To, cond: e.Cond})
		}
	}

	// Loop heads: targets of backward edges.
	isHead := make([]bool, n+1)
	for i, edges := range succ {
		for _, e := range edges {
			if e.to <= i {
				isHead[e.to] = true
			}
		}
	}

	dom := opts.Domain
	in := make([]State, n+1)
	for i := range in {
		in[i] = dom.Bottom(nvars)
	}
	in[0] = dom.Universe(nvars)

	visits := make([]int, n+1)
	work := &intHeap{0}
	inWork := make([]bool, n+1)
	inWork[0] = true
	iterations := 0

	transfer := func(i int, st State) State {
		switch s := p.Stmts[i].(type) {
		case *ip.Assign:
			return st.Assign(s.V, s.E)
		case *ip.Havoc:
			return st.Havoc(s.V)
		case *ip.Assume:
			return applyDNF(st, s.C, dom, nvars)
		case *ip.Assert:
			// Downstream of an assert the property is assumed to hold
			// (the error, if any, has been reported). When the property
			// contradicts the state outright, keep the state: cutting the
			// path would mask every later error behind a failed check.
			if s.Unverifiable {
				return st
			}
			refined := applyDNF(st, s.C, dom, nvars)
			if refined.IsEmpty() && !st.IsEmpty() {
				return st
			}
			return refined
		}
		return st
	}

	const maxIterations = 2_000_000
	const wideningEscalation = 12
	debugEvery := debugIterEvery()
	memo := includesMemo{}
	for work.Len() > 0 {
		iterations++
		if debugEvery > 0 && iterations%debugEvery == 0 {
			fmt.Fprintf(os.Stderr, "[engine] iter %d\n", iterations)
		}
		if iterations > maxIterations {
			return nil, fmt.Errorf("analysis: fixpoint iteration budget exceeded")
		}
		if !opts.Token.Step(1) {
			return exhaustedResult(p, opts, dom, nvars, iterations), nil
		}
		if !opts.TierToken.Step(1) {
			return tierExhaustedResult(p, opts, dom, nvars, iterations), nil
		}
		i := work.pop()
		inWork[i] = false
		if i >= n {
			continue
		}
		out := transfer(i, in[i])
		for _, e := range succ[i] {
			s := out
			if e.cond != nil {
				s = applyDNF(out, e.cond, dom, nvars)
			}
			if s.IsEmpty() {
				continue
			}
			joined := in[e.to].Join(s)
			if isHead[e.to] {
				visits[e.to]++
				switch {
				case visits[e.to] > opts.WideningDelay+wideningEscalation:
					// The refined widening did not stabilize: escalate to
					// the simple widening, whose chains are finite.
					joined = in[e.to].WidenSimple(joined)
				case visits[e.to] > opts.WideningDelay:
					joined = in[e.to].Widen(joined)
				}
			}
			if memo.includes(in[e.to], joined) {
				continue
			}
			in[e.to] = joined
			if !inWork[e.to] {
				work.push(e.to)
				inWork[e.to] = true
			}
		}
	}

	// Narrowing: decreasing passes without widening.
	preds := make([][]cfgEdge, n+1)
	for i, edges := range succ {
		for _, e := range edges {
			preds[e.to] = append(preds[e.to], cfgEdge{to: i, cond: e.cond})
		}
	}
	for pass := 0; pass < opts.NarrowingPasses; pass++ {
		for j := 1; j <= n; j++ {
			if opts.Token.Exhausted() {
				// Partially narrowed states are sound but which nodes got
				// the refinement depends on timing; discard everything so
				// an exhausted run always reports the same (unresolved)
				// outcome.
				return exhaustedResult(p, opts, dom, nvars, iterations), nil
			}
			if opts.TierToken.Exhausted() {
				return tierExhaustedResult(p, opts, dom, nvars, iterations), nil
			}
			acc := dom.Bottom(nvars)
			for _, pe := range preds[j] {
				s := transfer(pe.to, in[pe.to])
				if pe.cond != nil {
					s = applyDNF(s, pe.cond, dom, nvars)
				}
				acc = acc.Join(s)
			}
			// Keep only refinements (soundness: the narrowed value must
			// stay above the true fixpoint; intersecting a post-fixpoint
			// with a recomputed value is safe).
			if memo.includes(in[j], acc) {
				in[j] = acc
			}
		}
	}

	res := &Result{Prog: p, Iterations: iterations, States: in}
	// Assert checking.
	for _, idx := range p.Asserts() {
		if opts.CheckOnly != nil && !opts.CheckOnly[idx] {
			continue
		}
		a := p.Stmts[idx].(*ip.Assert)
		st := in[idx]
		if st.IsEmpty() {
			continue // unreachable
		}
		if a.Unverifiable {
			res.Violations = append(res.Violations, Violation{
				Index: idx, Msg: a.Msg, Pos: a.Pos, Unverifiable: true,
				StateSystem: st.System(),
			})
			continue
		}
		if v, bad := checkAssert(st, a, p.Space, dom, nvars); bad {
			v.Index = idx
			res.Violations = append(res.Violations, v)
		}
	}
	res.ExitState = in[n]
	if opts.Token.Exhausted() {
		// The deadline may have passed mid-check: some verdicts above were
		// computed on budget-degraded substrate states. Normalize to the
		// canonical exhausted outcome so reports stay deterministic.
		return exhaustedResult(p, opts, dom, nvars, iterations), nil
	}
	if opts.TierToken.Exhausted() {
		return tierExhaustedResult(p, opts, dom, nvars, iterations), nil
	}
	return res, nil
}

// tierExhaustedResult is the canonical outcome of a run cut short by the
// scheduler's per-tier step budget: shaped exactly like exhaustedResult
// (no invariants, universe exit, unresolved per-check Violations) but
// with the distinguished cause, so the cascade can tell "skip this tier"
// apart from "the procedure budget is gone". Tier budgets are pure step
// counts, so the cut point — and therefore the whole result — is
// deterministic across worker counts.
func tierExhaustedResult(p *ip.Program, opts Options, dom Domain, nvars, iterations int) *Result {
	res := exhaustedResult(p, opts, dom, nvars, iterations)
	res.Exhausted = TierBudgetExhausted
	return res
}

// exhaustedResult is the canonical outcome of a budget-exhausted analysis:
// no invariants (the iterates are pre-fixpoint, hence unsound as
// invariants), a universe exit state, and one unresolved Violation per
// requested check. It depends only on the program and the options, never
// on how far the aborted iteration got, so exhausted runs are
// deterministic across worker counts.
func exhaustedResult(p *ip.Program, opts Options, dom Domain, nvars, iterations int) *Result {
	res := &Result{
		Prog:       p,
		Iterations: iterations,
		ExitState:  dom.Universe(nvars),
		Exhausted:  opts.Token.Cause(),
	}
	if res.Exhausted == "" {
		res.Exhausted = budget.CauseDeadline
	}
	for _, idx := range p.Asserts() {
		if opts.CheckOnly != nil && !opts.CheckOnly[idx] {
			continue
		}
		a := p.Stmts[idx].(*ip.Assert)
		res.Violations = append(res.Violations, Violation{
			Index: idx, Msg: a.Msg, Pos: a.Pos, Unresolved: true,
		})
	}
	return res
}

func osGetenvInt(k string) int {
	v, _ := strconv.Atoi(os.Getenv(k))
	return v
}

// includesMemo caches Includes answers across fixpoint iterations: the
// worklist re-tests the same (invariant, candidate) pairs every time a node
// is revisited without its inputs changing. Entries are keyed by the
// canonical representation keys of both operands (length-prefixed to keep
// the concatenation unambiguous); equal keys mean identical representations
// and therefore the same answer, so the cache cannot change results. States
// without a cheap key bypass the cache.
type includesMemo map[string]bool

func (m includesMemo) includes(a, b State) bool {
	ak := stateKeyOf(a)
	if ak == "" {
		return a.Includes(b)
	}
	bk := stateKeyOf(b)
	if bk == "" {
		return a.Includes(b)
	}
	key := strconv.Itoa(len(ak)) + ":" + ak + bk
	if v, ok := m[key]; ok {
		return v
	}
	v := a.Includes(b)
	m[key] = v
	return v
}

// applyDNF over-approximates assume(d): the join of the per-disjunct meets.
func applyDNF(st State, d ip.DNF, dom Domain, nvars int) State {
	if d.IsTrue() {
		return st
	}
	if d.IsFalse() {
		return dom.Bottom(nvars)
	}
	acc := dom.Bottom(nvars)
	for _, conj := range d {
		acc = acc.Join(st.MeetSystem(linear.System(conj)))
	}
	return acc
}

// checkAssert verifies state |= cond by testing state /\ not(cond) for
// emptiness per disjunct, producing a counter-example from the first
// nonempty intersection.
func checkAssert(st State, a *ip.Assert, sp *linear.Space, dom Domain, nvars int) (Violation, bool) {
	neg := a.C.Negate()
	for _, conj := range neg {
		bad := st.MeetSystem(linear.System(conj))
		if bad.IsEmpty() {
			continue
		}
		v := Violation{
			Msg:         a.Msg,
			Pos:         a.Pos,
			StateSystem: st.System(),
		}
		// Restrict the report to the variables the assertion mentions, and
		// pick the lexicographically smallest corner of the bad region over
		// them (ordered by variable name). The choice is canonical: it
		// depends only on the region's projection onto the mentioned
		// variables, so a run over a sliced sub-program reports the same
		// counter-example as a run over the full program.
		mentioned := map[int]bool{}
		for _, cj := range a.C {
			for _, c := range cj {
				for _, vr := range c.E.Vars() {
					mentioned[vr] = true
				}
			}
		}
		if ce, integral := lexMinCorner(bad, mentioned, sp); len(ce) > 0 {
			v.CounterExample = ce
			v.CounterExampleIntegral = integral
		}
		return v, true
	}
	return Violation{}, false
}

// lexMinCorner fixes the mentioned variables, in name order, each to the
// smallest value the region (so far) allows — the lexicographically least
// attainable corner. A coordinate unbounded below has no minimum; it gets
// the canonical negative representative min(-1, hi), which both witnesses
// the unboundedness (the paper's §2.3 scenario hinges on the
// counter-example showing a *negative* NbLine) and depends only on the
// region's projection, so sliced and full runs agree.
//
// Program variables are integers, so a fractional bound is snapped to the
// nearest integers inside the region (two tried, toward the interior)
// before falling back to the rational value; the choice stays canonical
// because it depends only on Bounds. The second result reports whether
// every coordinate is an integer pinned inside the region — when false,
// only rational points were exhibited and the violation cannot be
// concretely replayed from this witness.
func lexMinCorner(region State, mentioned map[int]bool, sp *linear.Space) (map[string]*big.Rat, bool) {
	var order []int
	for vr := range mentioned {
		order = append(order, vr)
	}
	sort.Slice(order, func(i, j int) bool { return sp.Name(order[i]) < sp.Name(order[j]) })
	out := map[string]*big.Rat{}
	integral := true
	for _, vr := range order {
		lo, hi := region.Bounds(vr)
		val := big.NewRat(-1, 1)
		fromLo := false
		switch {
		case lo != nil:
			val = lo
			fromLo = true
		case hi != nil && hi.Cmp(val) < 0:
			val = hi
		}
		// pin intersects the region with vr = x (den*vr - num == 0).
		pin := func(x *big.Rat) State {
			e := linear.NewExpr()
			e.SetCoef(vr, x.Denom())
			e.Const.Neg(x.Num())
			return region.MeetSystem(linear.System{linear.NewEq(e)})
		}
		chosen, pinned := val, pin(val)
		if !val.IsInt() {
			first := ratFloor(val)
			if fromLo {
				first = ratCeil(val)
			}
			for k := int64(0); k < 2; k++ {
				c := new(big.Int).Set(first)
				if fromLo {
					c.Add(c, big.NewInt(k))
				} else {
					c.Sub(c, big.NewInt(k))
				}
				cand := new(big.Rat).SetInt(c)
				if fromLo && hi != nil && cand.Cmp(hi) > 0 {
					break
				}
				if ps := pin(cand); !ps.IsEmpty() {
					chosen, pinned = cand, ps
					break
				}
			}
		}
		out[sp.Name(vr)] = chosen
		if !chosen.IsInt() || pinned.IsEmpty() {
			integral = false
		}
		if pinned.IsEmpty() {
			// The value is not attained in this domain's representation;
			// keep the reported value (it is within the region's closure)
			// but stop pinning through an empty state.
			continue
		}
		region = pinned
	}
	return out, integral
}

// ratCeil returns the smallest integer >= x.
func ratCeil(x *big.Rat) *big.Int {
	q := new(big.Int).Sub(x.Denom(), big.NewInt(1))
	q.Add(q, x.Num())
	return q.Div(q, x.Denom())
}

// ratFloor returns the largest integer <= x.
func ratFloor(x *big.Rat) *big.Int {
	return new(big.Int).Div(x.Num(), x.Denom())
}

// FormatViolation renders a Fig. 8-style report.
func FormatViolation(v Violation, sp *linear.Space) string {
	if v.Unresolved && v.Index < 0 {
		// Driver-synthesized diagnostic (e.g. a panic isolated to one
		// procedure): Msg is the whole message and there is no position.
		return "error: " + v.Msg
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: error: %s may be violated", v.Pos, v.Msg)
	if v.Unresolved {
		sb.WriteString(" (unresolved: analysis budget exhausted)")
		return sb.String()
	}
	if v.Unverifiable {
		sb.WriteString(" (not expressible in linear arithmetic)")
	}
	if len(v.CounterExample) > 0 {
		sb.WriteString("\n  the requirement may be violated when:\n")
		var names []string
		for name := range v.CounterExample {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&sb, "    %s = %s\n", name, v.CounterExample[name].RatString())
		}
	}
	return sb.String()
}

// intHeap is a tiny min-heap of node indices (processing lower indices
// first approximates reverse post-order on normalized programs).
type intHeap []int

func (h intHeap) Len() int { return len(h) }

func (h *intHeap) push(v int) {
	*h = append(*h, v)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if (*h)[parent] <= (*h)[i] {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

func (h *intHeap) pop() int {
	old := *h
	v := old[0]
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(*h) && (*h)[l] < (*h)[small] {
			small = l
		}
		if r < len(*h) && (*h)[r] < (*h)[small] {
			small = r
		}
		if small == i {
			break
		}
		(*h)[i], (*h)[small] = (*h)[small], (*h)[i]
		i = small
	}
	return v
}
