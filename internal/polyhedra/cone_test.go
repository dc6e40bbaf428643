package polyhedra

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/arena"
	"repro/internal/budget"
)

// ---------------------------------------------------------------------------
// Double-description invariants. cone.add keeps no duplicate check: it
// relies on every ray's saturation bitset being exact, which makes the
// combinatorial adjacency test exact, which in turn makes every combined
// ray a distinct new extreme ray. These tests check that chain after every
// add, including adds dropped at the ray cap or on an exhausted budget.

// coneRun drives a cone and mirrors the rows it applied, in constraint
// index order.
type coneRun struct {
	c       *cone
	applied []row
}

// newConeRun returns the primal cone of the universe polyhedron over n
// variables (its positivity row d >= 0 is applied row 0) or, when dual is
// set, the full-space cone of dimension n+1 with no rows.
func newConeRun(n, maxRays int, pure, dual bool, tok *budget.Token) *coneRun {
	ar := arena.New()
	if dual {
		return &coneRun{c: universeCone(n+1, maxRays, pure, ar)}
	}
	c := universePolyCone(n, maxRays, pure, tok, ar)
	pos := newVec(n+1, pure)
	pos.setInt64(0, 1)
	return &coneRun{c: c, applied: []row{{v: pos}}}
}

func (cr *coneRun) add(r row) bool {
	ok := cr.c.add(r)
	if ok {
		cr.applied = append(cr.applied, r)
	}
	return ok
}

// check verifies the invariants the adjacency test rests on.
func (cr *coneRun) check() error {
	c := cr.c
	if c.ncons != len(cr.applied) {
		return fmt.Errorf("ncons %d, applied %d rows", c.ncons, len(cr.applied))
	}
	for i, ry := range c.rays {
		for k := 0; k < 64*len(ry.sat); k++ {
			want := k < len(cr.applied) && dot(cr.applied[k].v, ry.v).sign() == 0
			if ry.sat.get(k) != want {
				return fmt.Errorf("ray %d: saturation bit %d is %v, recomputed %v", i, k, ry.sat.get(k), want)
			}
		}
	}
	for i, ri := range c.rays {
		for j := i + 1; j < len(c.rays); j++ {
			if vecEqual(ri.v, c.rays[j].v) {
				return fmt.Errorf("rays %d and %d are equal", i, j)
			}
		}
	}
	for i, li := range c.lines {
		for j := i + 1; j < len(c.lines); j++ {
			if vecEqual(li, c.lines[j]) {
				return fmt.Errorf("lines %d and %d are equal", i, j)
			}
		}
		for k, r := range cr.applied {
			if dot(r.v, li).sign() != 0 {
				return fmt.Errorf("line %d is not orthogonal to applied row %d", i, k)
			}
		}
	}
	return nil
}

func vecEqual(a, b vec) bool { return bytes.Equal(a.appendKey(nil), b.appendKey(nil)) }

// runConeScript interprets data as a cone configuration followed by rows,
// checking the invariants after every add on the given kernel.
func runConeScript(data []byte, pure bool) error {
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}
	n := 1 + int(next()%5)
	maxRays := int(next() % 8) // 0 = unlimited
	var tok *budget.Token
	if s := int(next() % 8); s > 0 {
		tok = budget.New(time.Time{}, s)
	}
	cr := newConeRun(n, maxRays, pure, next()%4 == 0, tok)
	if err := cr.check(); err != nil {
		return fmt.Errorf("initial cone: %v", err)
	}
	for k := 0; k < 12 && pos < len(data); k++ {
		r := row{v: newVec(n+1, pure), eq: next()%5 == 0}
		for i := 0; i <= n; i++ {
			r.v.setInt64(i, hybridCoef(next()))
		}
		tok.Step(1)
		applied := cr.add(r)
		if err := cr.check(); err != nil {
			return fmt.Errorf("after add %d (applied=%v): %v", k, applied, err)
		}
	}
	return nil
}

func checkConeScript(t *testing.T, data []byte) {
	t.Helper()
	for _, pure := range []bool{false, true} {
		if err := runConeScript(data, pure); err != nil {
			t.Fatalf("PureBig=%v: %v", pure, err)
		}
	}
}

// FuzzConeInvariant: after every cone.add, each ray's saturation bitset
// matches its recomputed saturation of the applied rows, no two rays and
// no two lines are equal, and every line is orthogonal to every applied
// row — on the hybrid and on the pure-big.Int kernel.
func FuzzConeInvariant(f *testing.F) {
	f.Add([]byte{2, 0, 0, 1, 1, 1, 0, 2, 7, 5, 6, 3, 7, 6, 5, 8, 4, 6, 7})
	f.Add([]byte{4, 3, 0, 1, 1, 7, 5, 6, 8, 6, 1, 7, 5, 9, 6, 6, 1, 4, 8, 5, 6, 7, 2, 3, 9, 4, 6, 8})
	f.Add([]byte{3, 2, 3, 1, 13, 15, 14, 13, 1, 15, 14, 13, 15, 1, 13, 13, 14, 15, 1, 2, 3, 4, 5})
	f.Add([]byte{3, 0, 0, 0, 1, 7, 5, 6, 8, 1, 5, 7, 6, 8, 1, 6, 8, 7, 5, 0, 9, 3, 5, 8})
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 8+rng.Intn(60))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkConeScript(t, data)
	})
}

// TestConeInvariantRandom is the deterministic always-on slice of
// FuzzConeInvariant.
func TestConeInvariantRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 400; trial++ {
		data := make([]byte, 4+rng.Intn(80))
		rng.Read(data)
		// Mostly small coefficients, so the rows stay on the machine tier
		// and build cones with many rays.
		for i := 4; i < len(data); i++ {
			if rng.Intn(8) != 0 {
				data[i] = byte(4 + rng.Intn(5))
			}
		}
		checkConeScript(t, data)
	}
}

// TestConeDropPathSound: a conversion that drops rows, at the ray cap or
// on an exhausted budget, represents exactly the cone of the rows it did
// apply, so it contains the exact conversion of those rows. A saturation
// bit left behind by a dropped row breaks this: it makes the adjacency test
// reject genuine pairs and lose extreme rays.
func TestConeDropPathSound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	drops := 0
	for trial := 0; trial < 3000; trial++ {
		n := 3 + rng.Intn(4)
		maxRays := 2 + rng.Intn(6)
		var tok *budget.Token
		if trial%4 == 3 {
			tok = budget.New(time.Time{}, 2+rng.Intn(n+4))
		}
		cr := newConeRun(n, maxRays, false, false, tok)
		nrows := n + 2 + rng.Intn(n+3)
		for k := 0; k < nrows; k++ {
			r := row{v: newVec(n+1, false), eq: rng.Intn(8) == 0}
			for i := 0; i <= n; i++ {
				// Coefficients in {-1, 0, 1} give many rays that
				// saturate a row, which the drop path must not mark.
				r.v.setInt64(i, rng.Int63n(3)-1)
			}
			tok.Step(1)
			if !cr.add(r) {
				drops++
			}
		}
		exact := universePolyCone(n, 0, false, nil, nil)
		for _, r := range cr.applied[1:] {
			exact.add(r)
		}
		want := exact.result()
		got := cr.c.result()
		for _, r := range consOf(got, n, nil) {
			if !rowHoldsGens(r, want) {
				t.Fatalf("trial %d (n=%d, cap=%d): dropped-row conversion misses points of its applied rows", trial, n, maxRays)
			}
		}
		for _, r := range consOf(want, n, nil) {
			if !rowHoldsGens(r, got) {
				t.Fatalf("trial %d (n=%d, cap=%d): dropped-row conversion has points outside its applied rows", trial, n, maxRays)
			}
		}
	}
	if drops == 0 {
		t.Fatal("no row was dropped; the test does not reach the drop path")
	}
}
