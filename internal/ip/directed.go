package ip

import (
	"math"
	"math/big"
	"sort"

	"repro/internal/linear"
	"repro/internal/numkernel"
)

// DirectedOptions tunes the deterministic directed interpreter.
type DirectedOptions struct {
	// MaxDepth bounds the statements executed along one path (default 800).
	MaxDepth int
	// Budget bounds the statements executed across the whole search
	// (default 200000); the search is reported Truncated when it runs out.
	Budget int
	// Values are the candidate values tried, in order, for havocs and for
	// variables read before being written (after any per-variable hint).
	// Default: DefaultValues().
	Values []int64
}

// DefaultValues returns the candidate pool ExecDirected tries when
// DirectedOptions.Values is nil: 0, 1, -1, 2.
func DefaultValues() []int64 { return []int64{0, 1, -1, 2} }

func (o *DirectedOptions) fill() {
	if o.MaxDepth <= 0 {
		o.MaxDepth = 800
	}
	if o.Budget <= 0 {
		o.Budget = 200000
	}
	if o.Values == nil {
		o.Values = DefaultValues()
	}
}

// DirectedResult is the outcome of a directed search.
type DirectedResult struct {
	// Found reports that a concrete execution was found whose first
	// violated assert is the target.
	Found bool
	// Trace is the statement-index sequence of the found execution.
	Trace []int
	// Truncated reports that the search space was not exhausted (budget or
	// depth limit hit, or a value left the int64 range), so Found == false
	// is inconclusive.
	Truncated bool
	// Steps counts the statements executed across all explored paths.
	Steps int
}

// ExecDirected searches deterministically for a concrete execution whose
// first violated assert is the target statement. Unlike Exec, which
// resolves nondeterminism randomly, ExecDirected explores the choice tree
// — initial values and havocs range over a small candidate list (hints
// first), nondeterministic branches try both edges — by depth-first search
// under a global step budget. The result is a genuine witness: every
// assume held, every earlier assert passed, and the target's condition
// evaluated false on integer values.
//
// The program is compiled once per call into a dense form and searched
// over int64 values with overflow-checked arithmetic. The int64 range is a
// search bound like depth and budget: a program coefficient or constant
// outside it stops the search before it starts, a candidate outside it is
// dropped, and an evaluation that overflows ends its path; each reports
// Truncated. Every value on a found trace was computed exactly, so Found
// still means a genuine trace in integer arithmetic.
//
// hints maps variable indices to preferred values (typically the analysis
// counter-example); they are tried first at every choice point for that
// variable. The search is fully deterministic: identical inputs explore
// identical trees.
func (p *Program) ExecDirected(target int, hints map[int]*big.Int, opts DirectedOptions) DirectedResult {
	opts.fill()
	if err := p.Resolve(); err != nil {
		return DirectedResult{}
	}
	if target < 0 || target >= len(p.Stmts) {
		return DirectedResult{}
	}
	if _, ok := p.Stmts[target].(*Assert); !ok {
		return DirectedResult{}
	}
	prog, ok := compileDirected(p)
	if !ok {
		return DirectedResult{Truncated: true}
	}

	n := p.NumVars()
	s := &directedSearch{
		prog:    prog,
		target:  target,
		opts:    opts,
		hint:    make([]int64, n),
		hinted:  make([]bool, n),
		val:     make([]int64, n),
		defined: make([]bool, n),
	}
	for _, x := range opts.Values {
		if !containsInt64(s.pool, x) {
			s.pool = append(s.pool, x)
		}
	}
	for v, h := range hints {
		if v < 0 || v >= n || h == nil {
			continue
		}
		if !h.IsInt64() {
			s.res.Truncated = true // dropped: beyond the search's range
			continue
		}
		s.hint[v], s.hinted[v] = h.Int64(), true
	}

	s.run(0, 0)
	if s.res.Found {
		s.res.Truncated = false
	}
	return s.res
}

// ---------------------------------------------------------------------------
// Compiled form

type dop uint8

const (
	dLabel dop = iota
	dAssign
	dHavoc
	dAssume
	dAssert
	dGoto
	dIfGoto
)

// dterm is one k*x_v term of a compiled expression.
type dterm struct {
	v int
	k int64
}

// dcons is a compiled constraint sum(terms) + c {==, >=} 0, or an
// assigned expression (eq unused). Terms are sorted by variable.
type dcons struct {
	terms []dterm
	c     int64
	eq    bool
}

// ddnf is a compiled DNF. vars is the sorted union of the variables of
// every constraint; taut records that the condition is syntactically true
// (DNF.IsTrue), which short-circuits evaluation but not variable binding.
type ddnf struct {
	conjs [][]dcons
	vars  []int
	taut  bool
}

// dstmt is one compiled statement, tagged by op.
type dstmt struct {
	op dop
	// v is the assigned or havocked variable.
	v int
	// expr is the assigned expression.
	expr dcons
	// cond is the assume/assert condition or the IfGoto branch condition;
	// fall is the IfGoto fall-through condition.
	cond, fall ddnf
	// nondet marks an IfGoto on "unknown"; unverifiable an Assert whose
	// condition is not linear.
	nondet, unverifiable bool
	// target is the resolved Goto/IfGoto statement index.
	target int
	// next is the condition of the Assume right after a Havoc, or nil.
	next *ddnf
}

// compileDirected translates the resolved program; ok == false reports a
// coefficient or constant outside int64.
func compileDirected(p *Program) ([]dstmt, bool) {
	out := make([]dstmt, len(p.Stmts))
	for i, st := range p.Stmts {
		d := &out[i]
		ok := true
		switch st := st.(type) {
		case *Assign:
			d.op, d.v = dAssign, st.V
			d.expr, ok = compileExpr(st.E)
		case *Havoc:
			d.op, d.v = dHavoc, st.V
		case *Assume:
			d.op = dAssume
			d.cond, ok = compileDNF(st.C)
		case *Assert:
			d.op, d.unverifiable = dAssert, st.Unverifiable
			d.cond, ok = compileDNF(st.C)
		case *Goto:
			d.op, d.target = dGoto, p.TargetOf(st.Target)
		case *IfGoto:
			d.op, d.target = dIfGoto, p.TargetOf(st.Target)
			if st.C == nil {
				d.nondet = true
				break
			}
			var ok2 bool
			d.cond, ok = compileDNF(st.C)
			d.fall, ok2 = compileDNF(st.FallthroughCond())
			ok = ok && ok2
		default: // *Label
			d.op = dLabel
		}
		if !ok {
			return nil, false
		}
	}
	for i := range out {
		if out[i].op == dHavoc && i+1 < len(out) && out[i+1].op == dAssume {
			out[i].next = &out[i+1].cond
		}
	}
	return out, true
}

func compileExpr(e linear.Expr) (dcons, bool) {
	var d dcons
	if e.Const != nil {
		if !e.Const.IsInt64() {
			return d, false
		}
		d.c = e.Const.Int64()
	}
	vs := e.Vars() // sorted
	d.terms = make([]dterm, len(vs))
	for i, v := range vs {
		k := e.Coef(v)
		if !k.IsInt64() {
			return d, false
		}
		d.terms[i] = dterm{v: v, k: k.Int64()}
	}
	return d, true
}

func compileDNF(dnf DNF) (ddnf, bool) {
	d := ddnf{taut: dnf.IsTrue(), conjs: make([][]dcons, len(dnf))}
	for i, conj := range dnf {
		d.conjs[i] = make([]dcons, len(conj))
		for j, c := range conj {
			dc, ok := compileExpr(c.E)
			if !ok {
				return d, false
			}
			dc.eq = c.Rel == linear.Eq
			d.conjs[i][j] = dc
			for _, t := range dc.terms {
				d.vars = append(d.vars, t.v)
			}
		}
	}
	sort.Ints(d.vars)
	w := 0
	for i, v := range d.vars {
		if i == 0 || v != d.vars[w-1] {
			d.vars[w] = v
			w++
		}
	}
	d.vars = d.vars[:w]
	return d, true
}

// ---------------------------------------------------------------------------
// Search

type searchStatus uint8

const (
	deadend   searchStatus = iota
	found                  // the target was witnessed
	exhausted              // budget ran out: abort the whole search
)

// directedSearch is the state of one ExecDirected call. The environment
// is val (meaningful where defined is set); candidate lists of the open
// choice points share the cands stack, each truncated back when its
// choice point returns.
type directedSearch struct {
	prog    []dstmt
	target  int
	opts    DirectedOptions
	pool    []int64 // opts.Values without duplicates
	hint    []int64
	hinted  []bool
	val     []int64
	defined []bool
	trace   []int
	cands   []int64
	res     DirectedResult
}

func (s *directedSearch) run(pc, depth int) searchStatus {
	if pc >= len(s.prog) {
		return deadend // normal exit: no violation on this path
	}
	if depth >= s.opts.MaxDepth {
		s.res.Truncated = true
		return deadend
	}
	if s.res.Steps >= s.opts.Budget {
		s.res.Truncated = true
		return exhausted
	}
	st := &s.prog[pc]
	// Bind every undefined variable the statement reads before executing
	// it (initial values are lazy choice points).
	if v := s.needsVar(st); v >= 0 {
		return s.choose(v, st, pc, depth)
	}
	s.res.Steps++
	s.trace = append(s.trace, pc)
	r := s.exec(st, pc, depth)
	s.trace = s.trace[:len(s.trace)-1]
	return r
}

// exec executes the statement at pc, whose variables are all bound.
func (s *directedSearch) exec(st *dstmt, pc, depth int) searchStatus {
	switch st.op {
	case dAssign:
		x, ok := s.eval(&st.expr, -1)
		if !ok {
			return s.overflow()
		}
		return s.runWith(st.v, x, pc+1, depth+1)
	case dHavoc:
		// Havocked variables are typically constrained by the assume that
		// follows (x := unknown; assume(...)): solve it for st.v, unbound,
		// so the candidates include the values that matter.
		v := st.v
		base := len(s.cands)
		wasDefined := s.defined[v]
		s.defined[v] = false
		s.pushHint(v)
		if st.next != nil {
			s.solveFor(st.next, v, base)
		}
		s.defined[v] = wasDefined
		s.pushPool(base)
		r := deadend
		for i := base; i < len(s.cands) && r == deadend; i++ {
			r = s.runWith(v, s.cands[i], pc+1, depth+1)
		}
		s.cands = s.cands[:base]
		return r
	case dAssume:
		h, ok := s.holds(&st.cond)
		if !ok {
			return s.overflow()
		}
		if !h {
			return deadend // blocked
		}
		return s.run(pc+1, depth+1)
	case dAssert:
		violated := st.unverifiable
		if !violated {
			h, ok := s.holds(&st.cond)
			if !ok {
				return s.overflow()
			}
			violated = !h
		}
		if violated {
			if pc == s.target && !st.unverifiable {
				s.res.Found = true
				s.res.Trace = append([]int(nil), s.trace...)
				return found
			}
			return deadend // first error is a different assert: halt
		}
		return s.run(pc+1, depth+1)
	case dGoto:
		return s.run(st.target, depth+1)
	case dIfGoto:
		if st.nondet {
			// Nondeterministic branch: taken edge first, then the
			// fall-through.
			if r := s.run(st.target, depth+1); r != deadend {
				return r
			}
			return s.run(pc+1, depth+1)
		}
		h, ok := s.holds(&st.cond)
		if !ok {
			return s.overflow()
		}
		if h {
			return s.run(st.target, depth+1)
		}
		if h, ok = s.holds(&st.fall); !ok {
			return s.overflow()
		}
		if !h {
			return deadend // infeasible fall-through: blocked
		}
		return s.run(pc+1, depth+1)
	default: // dLabel
		return s.run(pc+1, depth+1)
	}
}

// overflow ends a path whose evaluation left the int64 range.
func (s *directedSearch) overflow() searchStatus {
	s.res.Truncated = true
	return deadend
}

// runWith binds v to x for the continuation at pc and restores the old
// binding afterwards.
func (s *directedSearch) runWith(v int, x int64, pc, depth int) searchStatus {
	oldVal, oldDefined := s.val[v], s.defined[v]
	s.val[v], s.defined[v] = x, true
	r := s.run(pc, depth)
	s.val[v], s.defined[v] = oldVal, oldDefined
	return r
}

// choose tries every candidate value for the unbound v before re-running
// pc.
func (s *directedSearch) choose(v int, st *dstmt, pc, depth int) searchStatus {
	base := len(s.cands)
	s.pushHint(v)
	switch st.op {
	case dAssume, dAssert:
		s.solveFor(&st.cond, v, base)
	case dIfGoto:
		s.solveFor(&st.cond, v, base)
		s.solveFor(&st.fall, v, base)
	}
	s.pushPool(base)
	r := deadend
	for i := base; i < len(s.cands) && r == deadend; i++ {
		s.val[v], s.defined[v] = s.cands[i], true
		r = s.run(pc, depth)
	}
	s.defined[v] = false
	s.cands = s.cands[:base]
	return r
}

// needsVar returns the first variable the statement reads that has no
// value yet, or -1.
func (s *directedSearch) needsVar(st *dstmt) int {
	switch st.op {
	case dAssign:
		for _, t := range st.expr.terms {
			if !s.defined[t.v] {
				return t.v
			}
		}
	case dAssume:
		return s.firstUndefined(st.cond.vars)
	case dAssert:
		if !st.unverifiable {
			return s.firstUndefined(st.cond.vars)
		}
	case dIfGoto:
		if v := s.firstUndefined(st.cond.vars); v >= 0 {
			return v
		}
		return s.firstUndefined(st.fall.vars)
	}
	return -1
}

func (s *directedSearch) firstUndefined(vars []int) int {
	for _, v := range vars {
		if !s.defined[v] {
			return v
		}
	}
	return -1
}

// The candidates of a choice point, in order, are the hint, the values
// solved from the constraints the binding must satisfy, and the pool,
// each kept only on its first occurrence in cands[base:].

func (s *directedSearch) pushHint(v int) {
	if s.hinted[v] {
		s.cands = append(s.cands, s.hint[v])
	}
}

func (s *directedSearch) pushCand(x int64, base int) {
	if !containsInt64(s.cands[base:], x) {
		s.cands = append(s.cands, x)
	}
}

func (s *directedSearch) pushPool(base int) {
	solved := len(s.cands)
	for _, x := range s.pool {
		if !containsInt64(s.cands[base:solved], x) {
			s.cands = append(s.cands, x)
		}
	}
}

// solveFor pushes candidate values for the unbound v from the constraints
// of d in which v is the only unbound variable: the exact solution of an
// equality, and the boundary of an inequality together with its
// just-violating neighbor (boundaries are where asserts tip over).
// Without this, assume(x = 4) deadends unless 4 happens to be in the
// pool. A solution outside int64 is dropped and marks the search
// Truncated.
func (s *directedSearch) solveFor(d *ddnf, v, base int) {
	for _, conj := range d.conjs {
		for i := range conj {
			c := &conj[i]
			var k int64
			single := true
			for _, t := range c.terms {
				if t.v == v {
					k = t.k
				} else if !s.defined[t.v] {
					single = false
					break
				}
			}
			if k == 0 || !single {
				continue
			}
			// c = k*x + rest; solve k*x = a with a = -rest.
			rest, ok := s.eval(c, v)
			var a int64
			if ok {
				a, ok = numkernel.NegOK(rest)
			}
			if !ok || a == math.MinInt64 && k == -1 {
				s.res.Truncated = true
				continue
			}
			q, r := a/k, a%k
			if c.eq {
				if r == 0 {
					s.pushCand(q, base)
				}
				continue
			}
			// k*x >= a: the tightest x is ceil(a/k) for k > 0 and
			// floor(a/k) for k < 0; its neighbor one step past violates.
			var next int64
			if k > 0 {
				if r > 0 {
					q++
				}
				next, ok = numkernel.SubOK(q, 1)
			} else {
				if r > 0 {
					q--
				}
				next, ok = numkernel.AddOK(q, 1)
			}
			s.pushCand(q, base)
			if !ok {
				s.res.Truncated = true
				continue
			}
			s.pushCand(next, base)
		}
	}
}

// eval evaluates e, less its term in skip (-1 for none), at the current
// environment, which binds every other variable of e; ok == false reports
// an int64 overflow.
func (s *directedSearch) eval(e *dcons, skip int) (int64, bool) {
	r := e.c
	for _, t := range e.terms {
		if t.v == skip {
			continue
		}
		p, ok := numkernel.MulOK(t.k, s.val[t.v])
		if !ok {
			return 0, false
		}
		if r, ok = numkernel.AddOK(r, p); !ok {
			return 0, false
		}
	}
	return r, true
}

// holds evaluates d at the current environment; ok == false reports an
// int64 overflow.
func (s *directedSearch) holds(d *ddnf) (h, ok bool) {
	if d.taut {
		return true, true
	}
	for _, conj := range d.conjs {
		all := true
		for i := range conj {
			x, ok := s.eval(&conj[i], -1)
			if !ok {
				return false, false
			}
			if conj[i].eq && x != 0 || !conj[i].eq && x < 0 {
				all = false
				break
			}
		}
		if all {
			return true, true
		}
	}
	return false, true
}

func containsInt64(xs []int64, x int64) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
