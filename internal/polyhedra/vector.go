// Package polyhedra implements the convex-polyhedra abstract domain of
// Cousot and Halbwachs [6,17] using the double-description (Chernikova)
// method with exact arithmetic. It is the Go substitute for the New Polka
// library the paper's prototype used [19].
//
// A polyhedron over n integer variables is represented by its homogenized
// cone in R^(n+1): coordinate 0 is the homogenizing coordinate d, and
// coordinates 1..n are the variables. A constraint row c means
// c[0]*d + c[1]*x1 + ... + c[n]*xn >= 0 (or == 0); a point x of the
// polyhedron corresponds to the ray (1, x). Both the constraint and the
// generator representation are maintained lazily, each derived from the
// other by the same conversion algorithm applied in the dual.
//
// Arithmetic is exact but two-tiered, the trick New Polka itself uses:
// coefficient vectors live on a machine-word (int64) tier with
// overflow-checked operations, and promote — per row, not per polyhedron —
// to big.Int exactly when an operation would overflow. Promotion preserves
// values bit-for-bit, and normalization demotes exact-tier rows whose
// entries fit a machine word again, so results are identical to a pure
// big.Int kernel (enforced by the differential tests in ops_test.go).
package polyhedra

import (
	"math"
	"math/big"
	"sync"

	"repro/internal/arena"
	"repro/internal/numkernel"
)

// vec is a hybrid coefficient vector. Exactly one tier is active: the
// machine tier w (when xs == nil) or the exact tier xs. pure marks
// vectors of the reference kernel (Config.PureBig): they live on the
// exact tier and are never demoted. The flag is per-vector rather than a
// package global so concurrent analyses with different configurations
// cannot interfere.
type vec struct {
	w    []int64
	xs   []*big.Int
	pure bool
}

func newVec(n int, pure bool) vec {
	if pure {
		xs := make([]*big.Int, n)
		for i := range xs {
			xs[i] = new(big.Int)
		}
		return vec{xs: xs, pure: true}
	}
	return vec{w: make([]int64, n)}
}

// newVecAr is newVec with the machine-tier backing drawn from the arena;
// pure (exact-tier) vectors never touch the arena.
func newVecAr(ar *arena.Arena, n int, pure bool) vec {
	if pure {
		return newVec(n, pure)
	}
	return vec{w: ar.Int64s(n)}
}

func (v vec) dim() int {
	if v.xs != nil {
		return len(v.xs)
	}
	return len(v.w)
}

func (v vec) isBig() bool { return v.xs != nil }

// promoted returns an exact-tier vector with the same values. Machine-tier
// input yields fresh, independent storage; exact-tier input is returned
// as-is (shared).
func (v vec) promoted() vec {
	if v.xs != nil {
		return v
	}
	xs := make([]*big.Int, len(v.w))
	for i, x := range v.w {
		xs[i] = big.NewInt(x)
	}
	return vec{xs: xs}
}

// demoted moves v back to the machine tier when every entry fits an int64;
// otherwise (or for reference-kernel vectors) v is returned unchanged.
func (v vec) demoted() vec {
	if v.xs == nil || v.pure {
		return v
	}
	for _, x := range v.xs {
		if !x.IsInt64() {
			return v
		}
	}
	w := make([]int64, len(v.xs))
	for i, x := range v.xs {
		w[i] = x.Int64()
	}
	return vec{w: w}
}

func (v vec) clone() vec {
	if v.xs != nil {
		c := make([]*big.Int, len(v.xs))
		for i := range v.xs {
			c[i] = new(big.Int).Set(v.xs[i])
		}
		return vec{xs: c, pure: v.pure}
	}
	return vec{w: append([]int64(nil), v.w...)}
}

// cloneAr is clone with the machine-tier backing drawn from the arena.
func (v vec) cloneAr(ar *arena.Arena) vec {
	if v.xs != nil {
		return v.clone()
	}
	w := ar.Int64s(len(v.w))
	copy(w, v.w)
	return vec{w: w}
}

// release returns a machine-tier vector's backing store to the arena.
// The caller asserts the vector is dead: no live row, generator, or
// genset references it.
func (v vec) release(ar *arena.Arena) {
	if v.xs == nil {
		ar.PutInt64s(v.w)
	}
}

func (v vec) sign(i int) int {
	if v.xs != nil {
		return v.xs[i].Sign()
	}
	switch {
	case v.w[i] > 0:
		return 1
	case v.w[i] < 0:
		return -1
	}
	return 0
}

// setInt64 stores x at index i (both tiers hold any int64).
func (v vec) setInt64(i int, x int64) {
	if v.xs != nil {
		v.xs[i].SetInt64(x)
		return
	}
	v.w[i] = x
}

// setBig stores x at index i, promoting the vector when x does not fit the
// machine tier.
func (v *vec) setBig(i int, x *big.Int) {
	if v.xs == nil {
		if x.IsInt64() {
			v.w[i] = x.Int64()
			return
		}
		*v = v.promoted()
	}
	v.xs[i].Set(x)
}

// setScalar stores s at index i, promoting the vector when s is on the
// exact tier and does not fit a machine word.
func (v *vec) setScalar(i int, s scalar) {
	if s.b != nil {
		v.setBig(i, s.b)
		return
	}
	v.setInt64(i, s.w)
}

// bigAt returns the exact value at index i; machine-tier reads allocate.
// Callers must treat the result as read-only.
func (v vec) bigAt(i int) *big.Int {
	if v.xs != nil {
		return v.xs[i]
	}
	return big.NewInt(v.w[i])
}

// bigRef is bigAt without allocation: machine-tier reads are materialized
// into tmp.
func (v vec) bigRef(i int, tmp *big.Int) *big.Int {
	if v.xs != nil {
		return v.xs[i]
	}
	return tmp.SetInt64(v.w[i])
}

func (v vec) neg() vec {
	if v.xs == nil {
		c := make([]int64, len(v.w))
		for i, x := range v.w {
			if x == math.MinInt64 {
				return v.promoted().neg()
			}
			c[i] = -x
		}
		return vec{w: c}
	}
	c := make([]*big.Int, len(v.xs))
	for i := range v.xs {
		c[i] = new(big.Int).Neg(v.xs[i])
	}
	return vec{xs: c, pure: v.pure}
}

func (v vec) isZero() bool {
	if v.xs == nil {
		for _, x := range v.w {
			if x != 0 {
				return false
			}
		}
		return true
	}
	for _, x := range v.xs {
		if x.Sign() != 0 {
			return false
		}
	}
	return true
}

// appendKey appends the canonical value-based encoding of every entry to
// key. Equal vectors encode equally regardless of tier.
func (v vec) appendKey(key []byte) []byte {
	if v.xs == nil {
		for _, x := range v.w {
			key = numkernel.AppendKeyInt64(key, x)
		}
		return key
	}
	for _, x := range v.xs {
		key = numkernel.AppendKeyBig(key, x)
	}
	return key
}

// scalar is a hybrid integer: the machine value w when b == nil, the exact
// value b otherwise.
type scalar struct {
	w int64
	b *big.Int
}

func (s scalar) sign() int {
	if s.b != nil {
		return s.b.Sign()
	}
	switch {
	case s.w > 0:
		return 1
	case s.w < 0:
		return -1
	}
	return 0
}

func (s scalar) neg() scalar {
	if s.b == nil {
		if n, ok := numkernel.NegOK(s.w); ok {
			return scalar{w: n}
		}
		return scalar{b: new(big.Int).Neg(big.NewInt(s.w))}
	}
	return scalar{b: new(big.Int).Neg(s.b)}
}

// bigRef materializes the scalar into tmp when it is on the machine tier.
func (s scalar) bigRef(tmp *big.Int) *big.Int {
	if s.b != nil {
		return s.b
	}
	return tmp.SetInt64(s.w)
}

// dot returns the inner product of a and b, promoting to the exact tier on
// overflow.
func dot(a, b vec) scalar {
	if a.xs == nil && b.xs == nil {
		var acc int64
		for i, x := range a.w {
			y := b.w[i]
			if x == 0 || y == 0 {
				continue
			}
			p, ok := numkernel.MulOK(x, y)
			if !ok {
				return scalar{b: dotBig(a, b)}
			}
			if acc, ok = numkernel.AddOK(acc, p); !ok {
				return scalar{b: dotBig(a, b)}
			}
		}
		return scalar{w: acc}
	}
	return scalar{b: dotBig(a, b)}
}

// dotBig is the exact-tier inner product; per-element temporaries come from
// the pooled scratch space.
func dotBig(a, b vec) *big.Int {
	sc := getScratch()
	defer putScratch(sc)
	t, ta, tb := sc.t[0], sc.t[1], sc.t[2]
	s := new(big.Int)
	n := a.dim()
	for i := 0; i < n; i++ {
		// Rows and generators are sparse; skipping zero factors avoids
		// most of the work.
		if a.sign(i) == 0 || b.sign(i) == 0 {
			continue
		}
		t.Mul(a.bigRef(i, ta), b.bigRef(i, tb))
		s.Add(s, t)
	}
	return s
}

// normalize divides v by the gcd of its entries (leaving sign intact) and
// returns the canonical-tier result: exact-tier rows whose entries all fit
// a machine word are demoted, so equal rows always land on the same tier.
func (v vec) normalize() vec {
	if v.xs == nil {
		var g uint64
		for _, x := range v.w {
			if x != 0 {
				g = numkernel.Gcd64(g, numkernel.AbsU64(x))
				if g == 1 {
					return v
				}
			}
		}
		if g == 0 {
			return v
		}
		if g > math.MaxInt64 {
			// Every nonzero entry is MinInt64 (|MinInt64| = 2^63): the
			// quotient is -1.
			for i := range v.w {
				if v.w[i] != 0 {
					v.w[i] = -1
				}
			}
			return v
		}
		d := int64(g)
		for i := range v.w {
			v.w[i] /= d
		}
		return v
	}
	sc := getScratch()
	g, t := sc.t[0], sc.t[1]
	g.SetInt64(0)
	for i := range v.xs {
		if v.xs[i].Sign() != 0 {
			g.GCD(nil, nil, g.Abs(g), t.Abs(v.xs[i]))
		}
	}
	if g.Sign() != 0 && g.Cmp(bigOne) != 0 {
		for i := range v.xs {
			v.xs[i].Quo(v.xs[i], g)
		}
	}
	putScratch(sc)
	return v.demoted()
}

// combine returns ka*a + kb*b, normalized. The machine-tier result is
// drawn from the arena; on overflow the partial result is returned to it
// and the combination replays on the exact tier.
func combine(ar *arena.Arena, ka scalar, a vec, kb scalar, b vec) vec {
	if ka.b == nil && kb.b == nil && a.xs == nil && b.xs == nil {
		r := ar.Int64sUninit(len(a.w)) // every entry is written before any read
		ok := true
		for i, av := range a.w {
			bv := b.w[i]
			var x, y int64
			if av != 0 {
				if x, ok = numkernel.MulOK(ka.w, av); !ok {
					break
				}
			}
			if bv != 0 {
				if y, ok = numkernel.MulOK(kb.w, bv); !ok {
					break
				}
			}
			if r[i], ok = numkernel.AddOK(x, y); !ok {
				break
			}
		}
		if ok {
			return vec{w: r}.normalize()
		}
		ar.PutInt64s(r)
	}
	return combineBig(ka, a, kb, b)
}

// combineBig is the exact-tier linear combination.
func combineBig(ka scalar, a vec, kb scalar, b vec) vec {
	sc := getScratch()
	bka := ka.bigRef(sc.t[0])
	bkb := kb.bigRef(sc.t[1])
	t, tv := sc.t[2], sc.t[3]
	n := a.dim()
	r := make([]*big.Int, n)
	for i := 0; i < n; i++ {
		az, bz := a.sign(i) == 0, b.sign(i) == 0
		switch {
		case az && bz:
			r[i] = new(big.Int)
		case bz:
			r[i] = new(big.Int).Mul(bka, a.bigRef(i, tv))
		case az:
			r[i] = new(big.Int).Mul(bkb, b.bigRef(i, tv))
		default:
			r[i] = new(big.Int).Mul(bka, a.bigRef(i, tv))
			t.Mul(bkb, b.bigRef(i, tv))
			r[i].Add(r[i], t)
		}
	}
	putScratch(sc)
	return vec{xs: r, pure: a.pure || b.pure}.normalize()
}

var (
	bigOne = big.NewInt(1)
)

// scratch is pooled working storage for the exact-tier paths and the dedup
// key builders, so the hot loops allocate only their results.
type scratch struct {
	t   [4]*big.Int
	key []byte
}

var scratchPool = sync.Pool{New: func() any {
	s := &scratch{}
	for i := range s.t {
		s.t[i] = new(big.Int)
	}
	return s
}}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

func putScratch(s *scratch) {
	s.key = s.key[:0]
	scratchPool.Put(s)
}

// bitset is a growable bit vector used for constraint-saturation tracking.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

// newBitsetAr is newBitset with the backing drawn from the arena.
func newBitsetAr(ar *arena.Arena, n int) bitset { return bitset(ar.Uint64s((n + 63) / 64)) }

// release returns the bitset's backing store to the arena; the caller
// asserts no live ray references it.
func (b bitset) release(ar *arena.Arena) { ar.PutUint64s(b) }

func (b bitset) clone() bitset { return append(bitset(nil), b...) }

func (b *bitset) set(i int) {
	for len(*b) <= i/64 {
		*b = append(*b, 0)
	}
	(*b)[i/64] |= 1 << uint(i%64)
}

func (b bitset) get(i int) bool {
	if i/64 >= len(b) {
		return false
	}
	return b[i/64]&(1<<uint(i%64)) != 0
}

// and returns the intersection of b and c, drawn from the arena.
func (b bitset) and(ar *arena.Arena, c bitset) bitset {
	n := len(b)
	if len(c) < n {
		n = len(c)
	}
	r := bitset(ar.Uint64sUninit(n)) // every word is written below
	for i := 0; i < n; i++ {
		r[i] = b[i] & c[i]
	}
	return r
}

// subsetOf reports whether every bit of b is set in c.
func (b bitset) subsetOf(c bitset) bool {
	for i := range b {
		var ci uint64
		if i < len(c) {
			ci = c[i]
		}
		if b[i]&^ci != 0 {
			return false
		}
	}
	return true
}
