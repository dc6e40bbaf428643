package analysis

import (
	"sort"
	"time"

	"repro/internal/budget"
	"repro/internal/certify"
	"repro/internal/clex"
	"repro/internal/ip"
	"repro/internal/linear"
	"repro/internal/reduce"
	"repro/internal/schedule"
	"repro/internal/zone"
)

// TierStat reports one tier of the cascade.
type TierStat struct {
	// Domain is the tier's abstract domain name.
	Domain string
	// Vars and Stmts measure the sliced sub-program the tier analyzed.
	Vars, Stmts int
	// Asserts is the number of residual checks entering the tier;
	// Discharged how many the tier proved.
	Asserts, Discharged int
	// Iterations and CPU are the tier's fixpoint cost.
	Iterations int
	CPU        time.Duration
}

// CheckProvenance records, for one assert, which tier decided it and on
// how small a sub-program.
type CheckProvenance struct {
	// Index is the statement index in the analyzed (original) program.
	Index int
	Pos   clex.Pos
	Msg   string
	// Tier is the domain that discharged the check, or the final domain
	// when Violated.
	Tier string
	// Violated marks checks the final tier could not prove (reported as
	// messages).
	Violated bool
	// Vars and Stmts are the dimensions of the sliced sub-program in which
	// the check was decided.
	Vars, Stmts int
}

// CascadeResult is the outcome of a tiered analysis.
type CascadeResult struct {
	// Violations is the final message set, with indices relative to the
	// original program. StateSystem and counter-examples are computed in
	// the residual slice; counter-example variables keep their original
	// names.
	Violations []Violation
	// Iterations sums the worklist steps of every tier.
	Iterations int
	// Tiers describes each tier that ran, cheapest first.
	Tiers []TierStat
	// Checks records per-assert provenance in program order.
	Checks []CheckProvenance
	// Residual is the sliced sub-program the final tier analyzed (the
	// largest one when plan groups reach it separately; nil when the cheap
	// tiers discharged everything); ResidualVars/ResidualStmts are its
	// dimensions.
	Residual      *ip.Program
	ResidualVars  int
	ResidualStmts int
	// Certificates carries, under Options.Certify, one certificate per
	// discharged check: the discharging tier's per-point invariant systems
	// over its sliced sub-program, with statement indices mapped back to
	// the original program, ready for the independent Fourier–Motzkin
	// verifier (certify.Certificate.Verify). Checks removed by CFG pruning
	// get an unreachability certificate over the original program.
	Certificates []*certify.Certificate
	// Exhausted names the budget that ran out mid-cascade, or is empty.
	// Checks still residual at that point are reported as unresolved
	// violations (provenance tier "unresolved"); checks already
	// discharged by completed cheaper tiers keep their verdicts — those
	// tiers ran to a sound fixpoint.
	Exhausted string
	// Sched records the plans the scheduler applied, one per group of
	// checks sharing a plan (nil without Options.Planner).
	Sched []schedule.Decision
}

// cheapTiers are the domains the cascade tries before its final domain,
// cheapest first. It is the one definition of the tier order.
func cheapTiers(zc *zone.Config) []Domain {
	return []Domain{IntervalDomain{}, ZoneDomain{Config: zc}}
}

// TierNames returns the cascade's fixed tier order for the given final
// domain (nil means polyhedra): the cheap tiers, cheapest first, without
// any that coincides with the final domain, then the final domain. A
// schedule.Planner must be built over this order, or its plans would
// name tiers that never run.
func TierNames(final Domain) []string {
	if final == nil {
		final = PolyDomain{}
	}
	var names []string
	for _, d := range cheapTiers(nil) {
		if d.Name() != final.Name() {
			names = append(names, d.Name())
		}
	}
	return append(names, final.Name())
}

// AnalyzeCascade runs the tiered check discharge of the reduction design:
// the IP is pruned of unreachable nodes, then analyzed by the interval
// domain first, the zone domain second, and the configured final domain
// (polyhedra by default) last. Each tier sees only the backward slice of
// the asserts every cheaper tier failed to prove, with constant/copy
// propagation additionally applied in the cheap tiers. Soundness: every
// tier is sound and every reduction over-approximates, so a check
// discharged early truly holds; precision: the final domain remains the
// authority on the residual checks, which it analyzes without propagation
// so that messages and counter-examples match a plain Analyze run.
//
// With Options.Planner set, each check is planned from the features of
// its own backward slice (see planGroups), and checks sharing a plan run
// the tiers together as one group. A plan may reorder, skip or step-budget
// the cheap tiers; a tier whose budget runs out is skipped for its group,
// so its checks fall through to the next tier. The final tier is always
// last and unbudgeted, so scheduling moves cost but can never turn a
// provable check into a report. Without a planner there is one group,
// every check, under the fixed plan.
func AnalyzeCascade(p *ip.Program, opts Options) (*CascadeResult, error) {
	opts.fill()
	if err := p.Resolve(); err != nil {
		return nil, err
	}
	pruned, pm, err := reduce.PruneUnreachable(p)
	if err != nil {
		return nil, err
	}
	propagated, err := reduce.Propagate(pruned)
	if err != nil {
		return nil, err
	}

	final := opts.Domain
	domOf := map[string]Domain{}
	for _, d := range cheapTiers(opts.ZoneConfig) {
		domOf[d.Name()] = d
	}
	domOf[final.Name()] = final
	groups, feats, err := planGroups(pruned, propagated, final, opts.Planner)
	if err != nil {
		return nil, err
	}

	out := &CascadeResult{}
	decided := map[int]CheckProvenance{} // keyed by pruned-program index
	// markUnresolved conservatively reports the given still-residual
	// checks as potential errors once the procedure budget is exhausted;
	// checks already discharged by completed tiers keep their verdicts.
	markUnresolved := func(cause string, checks []int) {
		out.Exhausted = cause
		for _, a := range checks {
			ast := pruned.Stmts[a].(*ip.Assert)
			decided[a] = CheckProvenance{
				Index: pm[a], Pos: ast.Pos, Msg: ast.Msg,
				Tier: "unresolved", Violated: true,
			}
			out.Violations = append(out.Violations, Violation{
				Index: pm[a], Msg: ast.Msg, Pos: ast.Pos, Unresolved: true,
			})
		}
	}

	var cause string // procedure-budget exhaustion, latched across groups
	for _, g := range groups {
		if opts.Planner != nil {
			out.Sched = append(out.Sched, schedule.Decision{
				Checks:  origIndices(g.checks, pm),
				Order:   g.plan.Order,
				Budgets: g.plan.Budgets,
				Source:  g.plan.Source,
			})
		}
		residual := g.checks
		for ti, tierName := range g.plan.Order {
			if len(residual) == 0 || cause != "" {
				break
			}
			if opts.Token.Exhausted() {
				cause = opts.Token.Cause()
				break
			}
			dom := domOf[tierName]
			isFinal := tierName == final.Name()
			base := propagated
			if isFinal {
				base = pruned
			}
			sliced, sm, err := reduce.Slice(base, residual)
			if err != nil {
				return nil, err
			}
			checkOnly := map[int]bool{}
			for _, a := range residual {
				checkOnly[sm.StmtOf[a]] = true
			}
			var tierTok *budget.Token
			if !isFinal && g.plan.Budgets[ti] > 0 {
				tierTok = budget.New(time.Time{}, g.plan.Budgets[ti])
			}
			start := time.Now()
			res, err := Analyze(sliced, Options{
				Domain:          dom,
				WideningDelay:   opts.WideningDelay,
				NarrowingPasses: opts.NarrowingPasses,
				CheckOnly:       checkOnly,
				Token:           opts.Token,
				TierToken:       tierTok,
			})
			if err != nil {
				return nil, err
			}
			cut := res.Exhausted == TierBudgetExhausted
			if res.Exhausted != "" && !cut {
				// Procedure budget: the aborted tier's partial work
				// (including its iteration count, which depends on where
				// the deadline landed) is discarded; everything still
				// residual becomes unresolved.
				cause = res.Exhausted
				break
			}
			tierCPU := time.Since(start)
			// A tier cut by its step budget discharges nothing: all its
			// checks fall through to the next tier. Unlike a deadline, the
			// cut point is a deterministic step count, so the spent
			// iterations still count toward the stats and the profile.
			out.Iterations += res.Iterations
			next := residual
			if !cut {
				next = nil
				violated := map[int]bool{}
				for _, v := range res.Violations {
					violated[v.Index] = true
				}
				// Certificate payload, shared by every check this tier
				// discharged: the tier's per-point invariants over its
				// sliced sub-program, with statement indices mapped back
				// to the original program.
				var certInv []linear.System
				var certOrig []int
				var certNames []string
				if opts.Certify {
					certInv = invariantSystems(res.States)
					certOrig = make([]int, len(sm.Stmt))
					for i, mid := range sm.Stmt {
						certOrig[i] = pm[mid]
					}
					certNames = sliced.Space.Names()
				}
				for _, a := range residual {
					if violated[sm.StmtOf[a]] {
						next = append(next, a)
						continue
					}
					ast := pruned.Stmts[a].(*ip.Assert)
					decided[a] = CheckProvenance{
						Index: pm[a], Pos: ast.Pos, Msg: ast.Msg,
						Tier: tierName, Vars: sliced.NumVars(), Stmts: sliced.Size(),
					}
					if opts.Certify {
						out.Certificates = append(out.Certificates, &certify.Certificate{
							Check: certify.Check{
								OrigIndex: pm[a], Pos: ast.Pos, Msg: ast.Msg,
								Tier: tierName,
							},
							Prog:      sliced,
							AssertIdx: sm.StmtOf[a],
							Inv:       certInv,
							OrigStmt:  certOrig,
							VarNames:  certNames,
						})
					}
				}
			}
			out.Tiers = append(out.Tiers, TierStat{
				Domain:     tierName,
				Vars:       sliced.NumVars(),
				Stmts:      sliced.Size(),
				Asserts:    len(residual),
				Discharged: len(residual) - len(next),
				Iterations: res.Iterations,
				CPU:        tierCPU,
			})
			recordOutcomes(opts.Recorder, feats, residual, next, tierName, res.Iterations)
			if isFinal {
				// Each group reaches the final tier in its own slice; keep
				// the largest for -dump-reduced-ip.
				if out.Residual == nil || sliced.Size() > out.ResidualStmts {
					out.Residual = sliced
					out.ResidualVars = sliced.NumVars()
					out.ResidualStmts = sliced.Size()
				}
				for _, v := range res.Violations {
					prunedIdx := sm.Stmt[v.Index]
					ast := pruned.Stmts[prunedIdx].(*ip.Assert)
					decided[prunedIdx] = CheckProvenance{
						Index: pm[prunedIdx], Pos: ast.Pos, Msg: ast.Msg,
						Tier: tierName, Violated: true,
						Vars: sliced.NumVars(), Stmts: sliced.Size(),
					}
					v.Index = pm[prunedIdx]
					out.Violations = append(out.Violations, v)
				}
			}
			residual = next
		}
		if cause != "" {
			markUnresolved(cause, residual)
		}
	}

	// Groups report out of program order; restore it. Each assert yields
	// at most one violation, so sorting by original index is total.
	sort.SliceStable(out.Violations, func(i, j int) bool {
		return out.Violations[i].Index < out.Violations[j].Index
	})
	assembleChecks(p, pm, decided, opts.Certify, out)
	return out, nil
}

// A checkGroup is a set of checks that run the cascade under one plan.
type checkGroup struct {
	plan   schedule.Plan
	checks []int // pruned-program assert indices, ascending
}

// planGroups splits the pruned program's checks into plan groups. With
// no planner there is one group holding every check under the fixed plan
// (TierNames order, no budgets) and no features are computed. With a
// planner, each check gets its own backward slice of the propagated
// program, from which its Features (kind, slice dimensions, loop count)
// are computed and planned; checks sharing a plan form a group, and
// groups follow their first member's assert index, so the schedule is a
// pure function of the program and the profile.
func planGroups(pruned, propagated *ip.Program, final Domain, planner *schedule.Planner) ([]checkGroup, map[int]schedule.Features, error) {
	if planner == nil {
		return []checkGroup{{plan: schedule.FixedPlan(TierNames(final)), checks: pruned.Asserts()}}, nil, nil
	}
	feats := map[int]schedule.Features{}
	var groups []checkGroup
	byKey := map[string]int{}
	for _, a := range pruned.Asserts() {
		sliced, _, err := reduce.Slice(propagated, []int{a})
		if err != nil {
			return nil, nil, err
		}
		ast := pruned.Stmts[a].(*ip.Assert)
		f := schedule.Features{
			Kind:  schedule.ClassifyKind(ast.Msg),
			Vars:  sliced.NumVars(),
			Stmts: sliced.Size(),
			Loops: backEdgeCount(sliced),
		}
		feats[a] = f
		plan := planner.Plan(f)
		gi, ok := byKey[plan.Key()]
		if !ok {
			gi = len(groups)
			byKey[plan.Key()] = gi
			groups = append(groups, checkGroup{plan: plan})
		}
		groups[gi].checks = append(groups[gi].checks, a)
	}
	return groups, feats, nil
}

// recordOutcomes attributes one tier run over a group to the per-check
// feature buckets: one attempt per entering check, a discharge for each
// that is not left residual, and an even share of the run's worklist
// steps. The
// split is deterministic, so merged profiles are identical across worker
// counts. Without a planner there are no features (feats is nil) and
// nothing is recorded.
func recordOutcomes(r *schedule.Recorder, feats map[int]schedule.Features, entering, left []int, tier string, iterations int) {
	if r == nil || feats == nil || len(entering) == 0 {
		return
	}
	residual := make(map[int]bool, len(left))
	for _, a := range left {
		residual[a] = true
	}
	share := iterations / len(entering)
	for _, a := range entering {
		d := 1
		if residual[a] {
			d = 0
		}
		r.Record(feats[a], tier, 1, d, share)
	}
}

// backEdgeCount counts backward control-flow edges — the loops the
// fixpoint will have to widen through — in a (sliced) program.
func backEdgeCount(p *ip.Program) int {
	if err := p.Resolve(); err != nil {
		return 0
	}
	n := 0
	for i, edges := range p.CFG() {
		for _, e := range edges {
			if e.To <= i {
				n++
			}
		}
	}
	return n
}

// origIndices maps pruned-program assert indices to original-program
// indices for the Decision record.
func origIndices(checks []int, pm reduce.StmtMap) []int {
	out := make([]int, len(checks))
	for i, a := range checks {
		out[i] = pm[a]
	}
	return out
}

// assembleChecks records per-assert provenance in program order;
// unreachable asserts (pruned away) are recorded as discharged by the
// pruning pass.
func assembleChecks(p *ip.Program, pm reduce.StmtMap, decided map[int]CheckProvenance, certifyOn bool, out *CascadeResult) {
	for _, idx := range p.Asserts() {
		found := false
		for pi, orig := range pm {
			if orig == idx {
				if prov, ok := decided[pi]; ok {
					out.Checks = append(out.Checks, prov)
				}
				found = true
				break
			}
		}
		if !found {
			ast := p.Stmts[idx].(*ip.Assert)
			out.Checks = append(out.Checks, CheckProvenance{
				Index: idx, Pos: ast.Pos, Msg: ast.Msg, Tier: "unreachable",
			})
			if certifyOn {
				// Pruning discharged the check as CFG-unreachable; the
				// verifier re-derives reachability on the original program.
				out.Certificates = append(out.Certificates, &certify.Certificate{
					Check: certify.Check{
						OrigIndex: idx, Pos: ast.Pos, Msg: ast.Msg,
						Tier: "unreachable",
					},
					Prog:        p,
					AssertIdx:   idx,
					Unreachable: true,
				})
			}
		}
	}
}
