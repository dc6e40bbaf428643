package polyhedra

import (
	"math/bits"

	"repro/internal/arena"
	"repro/internal/budget"
)

// genset is the generator representation of a homogenized cone: lines
// (bidirectional) and rays. Rays with a positive coordinate 0 are vertices
// of the dehomogenized polyhedron (point = v[1..]/v[0]); rays with
// coordinate 0 zero are recession rays.
type genset struct {
	lines []vec
	rays  []vec
}

func (g *genset) clone() *genset {
	c := &genset{}
	for _, l := range g.lines {
		c.lines = append(c.lines, l.clone())
	}
	for _, r := range g.rays {
		c.rays = append(c.rays, r.clone())
	}
	return c
}

// cloneAr is clone with machine-tier backings drawn from the arena.
func (g *genset) cloneAr(ar *arena.Arena) *genset {
	c := &genset{}
	for _, l := range g.lines {
		c.lines = append(c.lines, l.cloneAr(ar))
	}
	for _, r := range g.rays {
		c.rays = append(c.rays, r.cloneAr(ar))
	}
	return c
}

// release returns every generator's machine-tier backing to the arena.
// The caller asserts the genset is dead.
func (g *genset) release(ar *arena.Arena) {
	for _, l := range g.lines {
		l.release(ar)
	}
	for _, r := range g.rays {
		r.release(ar)
	}
}

// hasVertex reports whether any ray has a positive homogenizing coordinate,
// i.e. the dehomogenized polyhedron is non-empty.
func (g *genset) hasVertex() bool {
	for _, r := range g.rays {
		if r.sign(0) > 0 {
			return true
		}
	}
	return false
}

// row is a constraint row: v[0] + v[1]*x1 + ... + v[n]*xn {>=, ==} 0.
type row struct {
	v  vec
	eq bool
}

func (r row) clone() row { return row{v: r.v.clone(), eq: r.eq} }

// satRay pairs a ray with the set of added constraints it saturates.
type satRay struct {
	v   vec
	sat bitset
}

// cone is the incremental double-description state used during
// constraint-to-generator conversion.
type cone struct {
	dim   int // vector length
	lines []vec
	rays  []satRay
	ncons int
	// maxRays caps intermediate ray counts; 0 means unlimited.
	maxRays int
	// dropped counts constraints skipped due to the cap (over-approximation).
	dropped int
	// pure forces new vectors onto the exact tier (reference kernel).
	pure bool
	// token, when non-nil, is polled before the combination step: an
	// exhausted budget drops the remaining constraints (sound
	// over-approximation, not counted in dropped — budget drops are
	// timing-dependent and must not surface in deterministic stats).
	token *budget.Token
	// ar recycles machine-tier vectors and saturation bitsets: every
	// generator the conversion replaces or drops is returned to it at the
	// point it becomes provably dead. Nil disables recycling.
	ar *arena.Arena

	// Per-cone scratch reused across add calls, so the classification and
	// adjacency steps stop allocating once warm. spare double-buffers the
	// ray slice: each add builds its successor ray set in spare and swaps,
	// so the old backing is recycled instead of reallocated. common holds
	// the saturation intersection of the pair under the adjacency test.
	spare             []satRay
	plusBuf, minusBuf []classified
	common            bitset
}

// classified pairs a ray with its index and its product against the
// constraint being added (the case-2 partition of cone.add).
type classified struct {
	idx int // index into c.rays, for the adjacency test
	ray satRay
	p   scalar
}

// universePolyCone returns the cone of the universe polyhedron over n
// variables: lines e1..en and the positivity ray e0. The implicit
// positivity constraint d >= 0 is registered as constraint index 0 so that
// saturation-based adjacency tests account for it: the initial ray e0 does
// not saturate it, while every line (d = 0) does.
func universePolyCone(n, maxRays int, pure bool, token *budget.Token, ar *arena.Arena) *cone {
	c := &cone{dim: n + 1, maxRays: maxRays, ncons: 1, pure: pure, token: token, ar: ar}
	for i := 1; i <= n; i++ {
		l := newVecAr(ar, n+1, pure)
		l.setInt64(i, 1)
		c.lines = append(c.lines, l)
	}
	r := newVecAr(ar, n+1, pure)
	r.setInt64(0, 1)
	c.rays = append(c.rays, satRay{v: r, sat: newBitsetAr(ar, 1)})
	return c
}

// universeCone returns the full-space cone in dimension m (m lines, no
// rays); used for the dual (generator-to-constraint) conversion.
func universeCone(m, maxRays int, pure bool, ar *arena.Arena) *cone {
	c := &cone{dim: m, maxRays: maxRays, pure: pure, ar: ar}
	for i := 0; i < m; i++ {
		l := newVecAr(ar, m, pure)
		l.setInt64(i, 1)
		c.lines = append(c.lines, l)
	}
	return c
}

// satAllPrev returns a bitset with constraints 0..n-1 marked saturated.
func satAllPrev(ar *arena.Arena, n int) bitset {
	b := newBitsetAr(ar, n)
	for i := 0; i < n; i++ {
		b.set(i)
	}
	return b
}

// add incorporates the constraint r into the generator description
// (Chernikova's algorithm). It reports whether the constraint was applied
// (false when the ray cap forced it to be dropped, which over-approximates).
//
// The result needs no duplicate check. Every ray's saturation bitset is
// exact over the applied constraints, so the adjacency test is exact, and
// the positive combination of an adjacent (plus, minus) pair lies in the
// relative interior of a unique 2-face of the old cone: it equals neither
// another new ray nor a kept one. Hence a dropped constraint must leave no
// saturation bit behind — its index is reused by the next constraint.
func (c *cone) add(r row) bool {
	idx := c.ncons
	c.ncons++

	// Case 1: some line is not orthogonal to the constraint. Use it to
	// shift every other generator onto the hyperplane.
	for i, l := range c.lines {
		p := dot(r.v, l)
		if p.sign() == 0 {
			continue
		}
		if p.sign() < 0 {
			old := l
			l = l.neg()
			p = p.neg()
			old.release(c.ar) // negation copied; the original backing is dead
		}
		c.lines = append(c.lines[:i], c.lines[i+1:]...)
		// The scan above found the lines before i orthogonal.
		for j := i; j < len(c.lines); j++ {
			l2 := c.lines[j]
			p2 := dot(r.v, l2)
			if p2.sign() != 0 {
				c.lines[j] = combine(c.ar, p, l2, p2.neg(), l)
				l2.release(c.ar)
			}
		}
		for j := range c.rays {
			old := c.rays[j].v
			p2 := dot(r.v, old)
			if p2.sign() != 0 {
				c.rays[j].v = combine(c.ar, p, old, p2.neg(), l)
				old.release(c.ar)
			}
			c.rays[j].sat.set(idx)
		}
		if !r.eq {
			// The line itself becomes the ray on the positive side.
			l = l.normalize()
			c.rays = append(c.rays, satRay{v: l, sat: satAllPrev(c.ar, idx)})
		} else {
			l.release(c.ar)
		}
		return true
	}

	// Case 2: all lines orthogonal; partition rays by the sign of the
	// product with the constraint. The partitions live in per-cone scratch
	// buffers (written back below on every exit path).
	plus, minus := c.plusBuf[:0], c.minusBuf[:0]
	keep := c.spare[:0]
	for i, ry := range c.rays {
		p := dot(r.v, ry.v)
		switch p.sign() {
		case 0:
			keep = append(keep, ry)
		case 1:
			plus = append(plus, classified{i, ry, p})
		default:
			minus = append(minus, classified{i, ry, p})
		}
	}
	if c.maxRays > 0 && len(plus)*len(minus) > c.maxRays {
		// The combination step would explode; drop the constraint
		// (the represented set only grows, a sound over-approximation
		// for the forward analysis).
		c.plusBuf, c.minusBuf, c.spare = plus, minus, keep[:0]
		c.ncons--
		c.dropped++
		return false
	}
	if (len(minus) > 0 || r.eq) && c.token.Exhausted() {
		// Budget exhausted: stop refining and drop the constraint (one
		// that every ray already satisfies costs nothing to apply). Like
		// the ray cap this only grows the represented set, so the
		// degraded result stays a sound over-approximation. Not counted
		// in dropped: budget drops depend on wall-clock timing and must
		// not feed deterministic precision stats.
		c.plusBuf, c.minusBuf, c.spare = plus, minus, keep[:0]
		c.ncons--
		return false
	}

	for i := range keep {
		keep[i].sat.set(idx)
	}
	newRays := keep
	if !r.eq {
		for _, pl := range plus {
			newRays = append(newRays, pl.ray)
		}
	}
	// Combine adjacent (plus, minus) pairs onto the hyperplane.
	allRays := c.rays
	minCommon := c.dim - len(c.lines) - 2
	for _, pl := range plus {
		for _, mi := range minus {
			if !c.adjacent(pl.idx, mi.idx, allRays, minCommon) {
				continue
			}
			// w = p_plus * minus - p_minus * plus (positive combination).
			w := combine(c.ar, pl.p, mi.ray.v, mi.p.neg(), pl.ray.v)
			if w.isZero() {
				w.release(c.ar)
				continue
			}
			sat := pl.ray.sat.and(c.ar, mi.ray.sat)
			sat.set(idx)
			newRays = append(newRays, satRay{v: w, sat: sat})
		}
	}
	c.rays = newRays
	c.spare = allRays[:0]
	c.plusBuf, c.minusBuf = plus, minus
	// The minus rays never survive the constraint; plus rays survive only
	// for inequalities. Their storage is released strictly after the
	// combination loop, which reads it through allRays.
	for _, mi := range minus {
		mi.ray.v.release(c.ar)
		mi.ray.sat.release(c.ar)
	}
	if r.eq {
		for _, pl := range plus {
			pl.ray.v.release(c.ar)
			pl.ray.sat.release(c.ar)
		}
	}
	return true
}

// adjacent implements the combinatorial adjacency test: rays i1 and i2 are
// adjacent iff no other ray saturates every constraint they both saturate.
// The intersection is built in the cone's scratch. A pair saturating fewer
// than minCommon (cone dimension minus lineality minus 2) common
// constraints is rejected without the scan: the constraints tight on a
// 2-face have at least that rank (Fukuda–Prodon), so the count is
// necessary for adjacency and the scan decides every pair that meets it.
func (c *cone) adjacent(i1, i2 int, all []satRay, minCommon int) bool {
	a, b := all[i1].sat, all[i2].sat
	common := c.common[:0]
	n := 0
	for k := 0; k < len(a) && k < len(b); k++ {
		w := a[k] & b[k]
		common = append(common, w)
		n += bits.OnesCount64(w)
	}
	c.common = common
	if n < minCommon {
		return false
	}
	for i := range all {
		if i != i1 && i != i2 && common.subsetOf(all[i].sat) {
			return false
		}
	}
	return true
}

// result extracts the plain generator set. The saturation bitsets are
// not part of it and are released; the cone must not be used afterwards.
func (c *cone) result() *genset {
	g := &genset{}
	for _, l := range c.lines {
		g.lines = append(g.lines, l.normalize())
	}
	for _, r := range c.rays {
		g.rays = append(g.rays, r.v)
		r.sat.release(c.ar)
	}
	return g
}

// gensOf converts a constraint system to generators under the given
// configuration. The int reports how many constraints the ray cap dropped
// (budget-induced drops are excluded; see cone.add).
func gensOf(cons []row, n int, cfg *Config) (*genset, int) {
	c := universePolyCone(n, cfg.maxRays(), cfg.pure(), cfg.token(), cfg.ar())
	// Equalities first: they only shrink the representation.
	for _, r := range cons {
		if r.eq {
			c.add(r)
		}
	}
	for _, r := range cons {
		if !r.eq {
			c.add(r)
		}
	}
	return c.result(), c.dropped
}

// consOf converts generators to a minimized constraint system via the dual
// cone: the constraints of cone(G) are the generators of
// {c : c.g >= 0 for rays, c.l == 0 for lines}. The dual conversion is
// never capped or budget-dropped: skipping a generator would shrink the
// represented set, which is unsound for the forward analysis.
func consOf(g *genset, n int, cfg *Config) []row {
	ar := cfg.ar()
	dual := universeCone(n+1, 0, cfg.pure(), ar)
	for _, l := range g.lines {
		dual.add(row{v: l, eq: true})
	}
	for _, r := range g.rays {
		dual.add(row{v: r, eq: false})
	}
	// The outputs are copied out and the dual cone's entire working set is
	// released: add never stores the input rows (it only reads them), so
	// none of the dual's storage aliases g.
	var out []row
	for _, l := range dual.lines {
		if !trivialRow(l, true) {
			out = append(out, row{v: l.cloneAr(ar), eq: true})
		}
		l.release(ar)
	}
	for _, r := range dual.rays {
		if !trivialRow(r.v, false) {
			out = append(out, row{v: r.v.cloneAr(ar), eq: false})
		}
		r.v.release(ar)
		r.sat.release(ar)
	}
	return out
}

// trivialRow reports whether the row is the implicit positivity constraint
// (a nonnegative multiple of e0) or zero, neither of which constrains the
// dehomogenized polyhedron.
func trivialRow(v vec, eq bool) bool {
	n := v.dim()
	for i := 1; i < n; i++ {
		if v.sign(i) != 0 {
			return false
		}
	}
	if eq {
		// d == 0 would denote an empty polyhedron; keep it so emptiness
		// is preserved, unless it is the zero row.
		return v.sign(0) == 0
	}
	return v.sign(0) >= 0
}
