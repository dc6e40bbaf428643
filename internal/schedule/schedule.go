// Package schedule implements the adaptive portfolio scheduler of the
// tiered check-discharge cascade: given static features of one check's
// backward slice (check kind, slice size, loop count, variable count) it
// picks the order in which the abstract-domain tiers attempt the check
// and a per-tier fixpoint step budget, and it records the outcomes to an
// on-disk profile so the choices improve across runs.
//
// The package is a leaf: it knows nothing about domains, integer
// programs, or the engine. Callers (internal/analysis) translate their
// checks into Features, receive a Plan naming tiers by their domain
// names, and report what happened through a Recorder. This keeps the
// soundness argument trivial to audit: scheduling can reorder tiers,
// skip tiers, and bound tiers, but every verdict is still produced by a
// sound domain on a sound reduction — the scheduler only ever moves cost,
// never truth (DESIGN.md §12).
package schedule

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Mode selects how the cascade orders its tiers.
type Mode int

const (
	// Off runs every check through the fixed cheapest-to-most-precise
	// tier order with no per-tier budgets; no planner is built.
	Off Mode = iota
	// Adaptive consults the profile: tiers that historically discharge
	// checks with this feature signature run first under step budgets
	// sized from past cost; tiers that historically never succeed are
	// skipped. The final tier always runs unbudgeted, so precision is
	// never lost relative to the static cascade.
	Adaptive
)

// String names the mode as accepted by the -schedule flag.
func (m Mode) String() string {
	if m == Adaptive {
		return "adaptive"
	}
	return "off"
}

// ParseMode parses a -schedule flag value.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "off":
		return Off, nil
	case "adaptive":
		return Adaptive, nil
	}
	return Off, fmt.Errorf("schedule: unknown mode %q (want off or adaptive)", s)
}

// Features are the static signals the planner sees for one check. They
// are computed from the check's individual backward slice, before any
// tier runs, so plans depend only on program content — never on timing
// or worker interleaving.
type Features struct {
	// Kind classifies the checked property (see ClassifyKind).
	Kind string
	// Vars and Stmts are the dimensions of the check's backward slice.
	Vars, Stmts int
	// Loops counts the backward control-flow edges in the slice — a
	// proxy for how much widening the fixpoint will need.
	Loops int
}

// ClassifyKind buckets an assert message into a small closed set of
// check kinds. The message text is stable analyzer output (it names the
// violated requirement), so keying on prefixes is deterministic.
func ClassifyKind(msg string) string {
	switch {
	case strings.HasPrefix(msg, "precondition"):
		return "pre"
	case strings.HasPrefix(msg, "postcondition"):
		return "post"
	case strings.HasPrefix(msg, "read through"):
		return "read"
	case strings.HasPrefix(msg, "write through"):
		return "write"
	case strings.Contains(msg, "overflow"):
		return "overflow"
	}
	return "other"
}

// bucket maps the features to the profile key: the kind, the slice size
// in powers of two, and the loop count capped at 3. Coarse on purpose —
// fine buckets would never accumulate enough outcomes to matter.
func (f Features) bucket() string {
	return f.Kind + "/s" + strconv.Itoa(log2Bucket(f.Stmts)) +
		"/v" + strconv.Itoa(log2Bucket(f.Vars)) +
		"/l" + strconv.Itoa(min(f.Loops, 3))
}

func log2Bucket(n int) int {
	b := 0
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

// A Plan is the scheduler's decision for one check: the tiers to try, in
// order, and a fixpoint step budget per tier (0 = unbudgeted). The final
// tier of the cascade is always last and always unbudgeted; earlier
// tiers whose budget runs out are skipped for the remaining checks of
// their group — the check falls through to the next tier, it is never
// reported unresolved because of a tier budget.
type Plan struct {
	// Order lists tier (domain) names, cheapest-attempt first.
	Order []string
	// Budgets holds one step budget per Order entry (0 = unlimited).
	Budgets []int
	// Source records how the plan was chosen: "static" (fixed order) or
	// "profile" (adaptive order derived from recorded outcomes).
	Source string
}

// FixedPlan is the plan of the fixed cascade: the given tier order,
// cheapest first, with no budgets.
func FixedPlan(order []string) Plan {
	return Plan{
		Order:   append([]string(nil), order...),
		Budgets: make([]int, len(order)),
		Source:  "static",
	}
}

// Key is a canonical string form of the plan, used to group checks that
// share a schedule into one cascade run per tier.
func (p Plan) Key() string {
	var sb strings.Builder
	for i, t := range p.Order {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(t)
		sb.WriteByte(':')
		sb.WriteString(strconv.Itoa(p.Budgets[i]))
	}
	return sb.String()
}

// minAttempts is how many recorded attempts a (bucket, tier) pair needs
// before the planner trusts its discharge rate; below it the tier keeps
// its static position and runs unbudgeted (exploration).
const minAttempts = 4

// budgetHeadroom scales the historical mean cost of a successful
// discharge into the tier's step budget: generous enough that ordinary
// variance never cuts a would-be discharge short, small enough that a
// hopeless tier stops early.
const budgetHeadroom = 4

// A Planner maps features to plans: it is the Adaptive mode. It is
// immutable after construction and safe for concurrent use from every
// analysis worker.
type Planner struct {
	// static is the fixed tier order, cheapest first, final tier last.
	static []string
	prof   *Profile
}

// NewPlanner builds a planner over the cascade's static tier order
// (cheapest first; the last entry is the final, authoritative domain).
// prof may be nil: planning then degenerates to the static order until a
// profile accumulates.
func NewPlanner(static []string, prof *Profile) *Planner {
	p := &Planner{static: append([]string(nil), static...), prof: prof}
	if p.prof == nil {
		p.prof = NewProfile()
	}
	return p
}

// Plan decides the tier order and budgets for one check.
func (p *Planner) Plan(f Features) Plan {
	static := FixedPlan(p.static)
	if len(p.static) < 2 {
		return static
	}
	stats := p.prof.Buckets[f.bucket()]
	if stats == nil {
		return static
	}

	final := p.static[len(p.static)-1]
	type ranked struct {
		name   string
		pos    int   // static position, the tie-break and no-data rank
		cost   int64 // mean iterations per discharge (scaled), -1 = no data
		budget int
	}
	var cheap []ranked
	for i, name := range p.static[:len(p.static)-1] {
		r := ranked{name: name, pos: i, cost: -1}
		if o := stats[name]; o != nil && o.Attempts >= minAttempts {
			if o.Discharges == 0 {
				// The tier has never discharged a check that looks like
				// this one: skip it. The final tier keeps full authority,
				// so skipping costs nothing but the tier's wasted fixpoint.
				continue
			}
			r.cost = o.Iterations / o.Discharges
			b := r.cost * budgetHeadroom
			if b < 64 {
				b = 64
			}
			r.budget = int(b)
		}
		cheap = append(cheap, r)
	}
	// Proven-cheap tiers first (by mean cost per discharge), unproven
	// tiers after them in static order. Ties resolve by static position,
	// so the plan is a pure function of (features, profile).
	sort.SliceStable(cheap, func(i, j int) bool {
		a, b := cheap[i], cheap[j]
		if (a.cost >= 0) != (b.cost >= 0) {
			return a.cost >= 0
		}
		if a.cost != b.cost {
			return a.cost < b.cost
		}
		return a.pos < b.pos
	})
	plan := Plan{Source: "profile"}
	for _, r := range cheap {
		plan.Order = append(plan.Order, r.name)
		plan.Budgets = append(plan.Budgets, r.budget)
	}
	plan.Order = append(plan.Order, final)
	plan.Budgets = append(plan.Budgets, 0)
	return plan
}

// TierOutcome accumulates what happened when one tier ran on checks of
// one feature bucket.
type TierOutcome struct {
	// Attempts counts checks that entered the tier; Discharges how many
	// it proved; Iterations the fixpoint worklist steps it spent on
	// runs that entered at least one of the bucket's checks.
	Attempts   int64 `json:"attempts"`
	Discharges int64 `json:"discharges"`
	Iterations int64 `json:"iterations"`
}

// Profile is the accumulated outcome store: bucket -> tier -> outcome.
// A Profile is mutated only through Record and Merge; the Planner reads
// it immutably.
type Profile struct {
	Buckets map[string]map[string]*TierOutcome `json:"buckets"`
}

// NewProfile returns an empty profile.
func NewProfile() *Profile {
	return &Profile{Buckets: map[string]map[string]*TierOutcome{}}
}

// Record adds one tier run over n checks of the given features, of which
// discharged were proved, at a cost of iterations worklist steps.
func (p *Profile) Record(f Features, tier string, n, discharged int, iterations int) {
	b := f.bucket()
	tiers := p.Buckets[b]
	if tiers == nil {
		tiers = map[string]*TierOutcome{}
		p.Buckets[b] = tiers
	}
	o := tiers[tier]
	if o == nil {
		o = &TierOutcome{}
		tiers[tier] = o
	}
	o.Attempts += int64(n)
	o.Discharges += int64(discharged)
	o.Iterations += int64(iterations)
}

// Merge adds every outcome of other into p. Counts are commutative, so
// merging per-procedure recordings in input order yields the same
// profile for every worker count.
func (p *Profile) Merge(other *Profile) {
	if other == nil {
		return
	}
	for b, tiers := range other.Buckets {
		for tier, o := range tiers {
			dst := p.Buckets[b]
			if dst == nil {
				dst = map[string]*TierOutcome{}
				p.Buckets[b] = dst
			}
			d := dst[tier]
			if d == nil {
				d = &TierOutcome{}
				dst[tier] = d
			}
			d.Attempts += o.Attempts
			d.Discharges += o.Discharges
			d.Iterations += o.Iterations
		}
	}
}

// A Recorder collects one procedure's scheduling outcomes. It is used by
// a single analysis goroutine and merged into the run profile by the
// driver in input order, keeping the saved profile deterministic.
type Recorder struct {
	prof *Profile
}

// NewRecorder returns an empty per-procedure recorder.
func NewRecorder() *Recorder { return &Recorder{prof: NewProfile()} }

// Record forwards to the underlying profile.
func (r *Recorder) Record(f Features, tier string, n, discharged, iterations int) {
	if r == nil {
		return
	}
	r.prof.Record(f, tier, n, discharged, iterations)
}

// Profile returns the recorded outcomes.
func (r *Recorder) Profile() *Profile {
	if r == nil {
		return nil
	}
	return r.prof
}

// A Decision is one plan the scheduler applied to a group of checks,
// kept for the -stats report and the suite runner's JSON output.
type Decision struct {
	// Checks are the statement indices (original program) of the checks
	// that shared this plan.
	Checks []int
	// Order and Budgets echo the applied Plan; Source its origin.
	Order   []string
	Budgets []int
	Source  string
}
