package ip

import (
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/linear"
)

// geC builds sum(terms[i]*x_i) + k >= 0 from positional coefficients.
func geC(k int64, terms ...int64) linear.Constraint {
	e := linear.ConstExpr(k)
	for v, c := range terms {
		if c != 0 {
			e.AddTerm(v, c)
		}
	}
	return linear.NewGe(e)
}

func eqC(k int64, terms ...int64) linear.Constraint {
	c := geC(k, terms...)
	return linear.NewEq(c.E)
}

func TestExecDirectedFindsWitness(t *testing.T) {
	// x := unknown; assume(x >= 0); assert(x >= 1): x = 0 violates.
	p := New("w")
	x := p.Space.Var("x")
	p.Emit(&Havoc{V: x})
	p.Emit(&Assume{C: Single(geC(0, 1))})
	p.Emit(&Assert{C: Single(geC(-1, 1)), Msg: "x >= 1"})
	res := p.ExecDirected(2, nil, DirectedOptions{})
	if !res.Found {
		t.Fatalf("witness not found: %+v", res)
	}
	if want := []int{0, 1, 2}; !reflect.DeepEqual(res.Trace, want) {
		t.Errorf("trace = %v, want %v", res.Trace, want)
	}
}

func TestExecDirectedNoWitness(t *testing.T) {
	// assume(x >= 1); assert(x >= 0) always holds: exhaustive search over
	// the finite candidate list finds nothing and is not truncated.
	p := New("safe")
	p.Space.Var("x")
	p.Emit(&Assume{C: Single(geC(-1, 1))})
	p.Emit(&Assert{C: Single(geC(0, 1)), Msg: "x >= 0"})
	res := p.ExecDirected(1, nil, DirectedOptions{})
	if res.Found {
		t.Fatalf("found impossible witness: trace %v", res.Trace)
	}
	if res.Truncated {
		t.Errorf("tiny search reported truncated")
	}
}

// TestExecDirectedSolvesConstants checks constraint-directed value
// selection: assume(x = 4) requires the solver to propose 4, which is not
// in the generic candidate pool.
func TestExecDirectedSolvesConstants(t *testing.T) {
	p := New("const")
	p.Space.Var("x")
	y := p.Space.Var("y")
	p.Emit(&Assume{C: Conj(eqC(-4, 1))})                     // x = 4
	p.Emit(&Havoc{V: y})                                     // y := unknown
	p.Emit(&Assume{C: Conj(eqC(0, 1, -1))})                  // y = x
	p.Emit(&Assert{C: Single(geC(-5, 0, 1)), Msg: "y >= 5"}) // fails: y = 4
	res := p.ExecDirected(3, nil, DirectedOptions{})
	if !res.Found {
		t.Fatalf("constraint-solved witness not found: %+v", res)
	}
}

// TestExecDirectedBoundary checks that inequality boundaries (and their
// just-violating neighbors) are proposed: the only failing value of
// assert(x <= 99) under assume(x <= 100) is far outside the generic pool.
func TestExecDirectedBoundary(t *testing.T) {
	p := New("bound")
	p.Space.Var("x")
	p.Emit(&Assume{C: Conj(geC(0, 1), geC(100, -1))}) // 0 <= x <= 100
	p.Emit(&Assert{C: Single(geC(99, -1)), Msg: "x <= 99"})
	res := p.ExecDirected(1, nil, DirectedOptions{})
	if !res.Found {
		t.Fatalf("boundary witness (x = 100) not found: %+v", res)
	}
}

func TestExecDirectedHints(t *testing.T) {
	// Without a hint the witness x = 77 is unreachable; with one it is
	// found immediately.
	p := New("hint")
	x := p.Space.Var("x")
	p.Emit(&Havoc{V: x})
	neq := DNF{
		{geC(-78, 1)}, // x >= 78
		{geC(76, -1)}, // x <= 76
	}
	p.Emit(&Assert{C: neq, Msg: "x != 77"})
	if res := p.ExecDirected(1, nil, DirectedOptions{}); res.Found {
		t.Fatalf("witness found without hint: %v", res.Trace)
	}
	hints := map[int]*big.Int{x: big.NewInt(77)}
	if res := p.ExecDirected(1, hints, DirectedOptions{}); !res.Found {
		t.Fatalf("hinted witness not found")
	}
}

func TestExecDirectedFirstErrorSemantics(t *testing.T) {
	// Both asserts fail on x = 0, but the first one halts the path: the
	// second is not witnessable.
	p := New("first")
	x := p.Space.Var("x")
	p.Emit(&Havoc{V: x})
	p.Emit(&Assume{C: Single(eqC(0, 1))})                 // x = 0
	p.Emit(&Assert{C: Single(geC(-1, 1)), Msg: "x >= 1"}) // fails first
	p.Emit(&Assert{C: Single(geC(-2, 1)), Msg: "x >= 2"}) // shadowed
	if res := p.ExecDirected(3, nil, DirectedOptions{}); res.Found {
		t.Errorf("shadowed assert witnessed: %v", res.Trace)
	}
	if res := p.ExecDirected(2, nil, DirectedOptions{}); !res.Found {
		t.Errorf("first assert not witnessed")
	}
}

func TestExecDirectedBranches(t *testing.T) {
	// The violation hides behind the non-taken edge of a nondeterministic
	// branch.
	p := New("branch")
	x := p.Space.Var("x")
	p.Emit(&Assign{V: x, E: linear.ConstExpr(0)})
	p.Emit(&IfGoto{Target: "skip"}) // if (unknown)
	p.Emit(&Assign{V: x, E: linear.ConstExpr(5)})
	p.Emit(&Label{Name: "skip"})
	p.Emit(&Assert{C: Single(geC(-1, 1)), Msg: "x >= 1"}) // fails when skipped
	res := p.ExecDirected(4, nil, DirectedOptions{})
	if !res.Found {
		t.Fatalf("branch witness not found")
	}
}

func TestExecDirectedUnverifiableNeverTarget(t *testing.T) {
	p := New("unv")
	p.Space.Var("x")
	p.Emit(&Assert{Unverifiable: true, Msg: "opaque"})
	if res := p.ExecDirected(0, nil, DirectedOptions{}); res.Found {
		t.Errorf("unverifiable assert must not be witnessable")
	}
}

func TestExecDirectedDeterministic(t *testing.T) {
	p := New("det")
	x := p.Space.Var("x")
	y := p.Space.Var("y")
	p.Emit(&Havoc{V: x})
	p.Emit(&Havoc{V: y})
	p.Emit(&Assume{C: Single(geC(0, 1, 1))})
	p.Emit(&Assert{C: Single(geC(0, 1, -1)), Msg: "x >= y"})
	// Several hints, so map iteration order varies between calls.
	hints := map[int]*big.Int{x: big.NewInt(3), y: big.NewInt(-7)}
	for _, h := range []map[int]*big.Int{nil, hints} {
		first := p.ExecDirected(3, h, DirectedOptions{})
		if first.Steps == 0 {
			t.Fatalf("search executed no statement: %+v", first)
		}
		for i := 0; i < 5; i++ {
			// Found, Trace, Truncated and Steps must all repeat.
			again := p.ExecDirected(3, h, DirectedOptions{})
			if !reflect.DeepEqual(first, again) {
				t.Fatalf("run %d differs: %+v vs %+v", i, first, again)
			}
		}
	}
}

// TestExecDirectedCoefOutOfRange: a coefficient beyond int64 keeps the
// search from running, which is reported as truncation, never as a
// verdict. Exactly, x = 0 violates the assert.
func TestExecDirectedCoefOutOfRange(t *testing.T) {
	p := New("bigcoef")
	x := p.Space.Var("x")
	e := linear.ConstExpr(-1)
	e.SetCoef(x, new(big.Int).Lsh(big.NewInt(1), 64)) // 2^64*x - 1 >= 0
	p.Emit(&Havoc{V: x})
	p.Emit(&Assert{C: Single(linear.NewGe(e)), Msg: "2^64*x >= 1"})
	res := p.ExecDirected(1, nil, DirectedOptions{})
	if res.Found || !res.Truncated || res.Steps != 0 {
		t.Errorf("got %+v, want truncated before any step", res)
	}
}

// TestExecDirectedOverflowEndsPath: x := 1 doubled in a loop reaches 2^62
// after 62 rounds; the 63rd doubling overflows int64 and ends the path.
// Steps: the initial assign, 62 rounds of label+assign+goto, then the
// label and the failing assign of round 63 — 1 + 186 + 2 = 189, well
// short of the depth bound.
func TestExecDirectedOverflowEndsPath(t *testing.T) {
	p := New("double")
	x := p.Space.Var("x")
	double := linear.VarExpr(x).Add(linear.VarExpr(x))
	p.Emit(&Assign{V: x, E: linear.ConstExpr(1)})
	p.Emit(&Label{Name: "L"})
	p.Emit(&Assign{V: x, E: double})
	p.Emit(&Goto{Target: "L"})
	p.Emit(&Assert{C: Single(geC(-1, 1)), Msg: "dead"})
	res := p.ExecDirected(4, nil, DirectedOptions{})
	if res.Found || !res.Truncated || res.Steps != 189 {
		t.Errorf("got %+v, want truncated after 189 steps", res)
	}
}

// TestExecDirectedWitnessAfterOverflow: the taken edge of the
// nondeterministic branch enters the doubling loop and overflows (2 +
// 186 + 2 steps); the fall-through then violates x >= 2 with x = 1 (one
// more step). The witness is exact, so the search is not truncated.
func TestExecDirectedWitnessAfterOverflow(t *testing.T) {
	p := New("double-witness")
	x := p.Space.Var("x")
	double := linear.VarExpr(x).Add(linear.VarExpr(x))
	p.Emit(&Assign{V: x, E: linear.ConstExpr(1)})
	p.Emit(&IfGoto{Target: "L"})                          // if (unknown)
	p.Emit(&Assert{C: Single(geC(-2, 1)), Msg: "x >= 2"}) // target
	p.Emit(&Label{Name: "L"})
	p.Emit(&Assign{V: x, E: double})
	p.Emit(&Goto{Target: "L"})
	res := p.ExecDirected(2, nil, DirectedOptions{})
	if !res.Found || res.Truncated || res.Steps != 191 {
		t.Errorf("got %+v, want found, not truncated, 191 steps", res)
	}
	if want := []int{0, 1, 2}; !reflect.DeepEqual(res.Trace, want) {
		t.Errorf("trace = %v, want %v", res.Trace, want)
	}
}

// TestExecDirectedHintOutOfRange: a hint beyond int64 is dropped, so x
// ranges over the pool 0, 1, -1, 2, all of which satisfy x <= 100 (the
// havoc plus four asserts: 5 steps); the dropped hint marks the search
// truncated. The in-range pool alone exhausts the same tree untruncated.
func TestExecDirectedHintOutOfRange(t *testing.T) {
	p := New("bighint")
	x := p.Space.Var("x")
	p.Emit(&Havoc{V: x})
	p.Emit(&Assert{C: Single(geC(100, -1)), Msg: "x <= 100"})
	hints := map[int]*big.Int{x: new(big.Int).Lsh(big.NewInt(1), 70)}
	res := p.ExecDirected(1, hints, DirectedOptions{})
	if res.Found || !res.Truncated || res.Steps != 5 {
		t.Errorf("got %+v, want truncated, not found, 5 steps", res)
	}
	res = p.ExecDirected(1, nil, DirectedOptions{})
	if res.Found || res.Truncated || res.Steps != 5 {
		t.Errorf("without the hint: got %+v, want exhausted in 5 steps", res)
	}
}

// TestExecDirectedImplicitFallthrough: an IfGoto with nil FalseC explores
// exactly the edges of one whose FalseC is the explicit negation of C. y
// is first read at the branch, so its candidates are solved from both
// conditions. Hand search for the taken-edge assert: x = 0 (4 values of y,
// 2 steps each, all halting at the fall-through assert) and x = -1
// (blocked) fail; x = 10, y = 10 takes the branch and violates y <= 4:
// 1 + (1 + 8) + 1 + 4 = 15 steps.
func TestExecDirectedImplicitFallthrough(t *testing.T) {
	build := func(explicit bool) *Program {
		p := New("fall")
		x := p.Space.Var("x")
		p.Space.Var("y")
		cond := Conj(geC(-3, 1), geC(0, -1, 1)) // x >= 3 && y - x >= 0
		br := &IfGoto{C: cond, Target: "T"}
		if explicit {
			br.FalseC = cond.Negate()
		}
		p.Emit(&Havoc{V: x})
		p.Emit(&Assume{C: Conj(geC(0, 1), geC(10, -1))})      // 0 <= x <= 10
		p.Emit(br)                                            // 2
		p.Emit(&Assert{C: Single(geC(-5, 1)), Msg: "x >= 5"}) // 3
		p.Emit(&Goto{Target: "End"})
		p.Emit(&Label{Name: "T"})
		p.Emit(&Assert{C: Single(geC(4, 0, -1)), Msg: "y <= 4"}) // 6
		p.Emit(&Label{Name: "End"})
		return p
	}
	implicit, explicit := build(false), build(true)
	res := implicit.ExecDirected(6, nil, DirectedOptions{})
	if !res.Found || res.Truncated || res.Steps != 15 {
		t.Errorf("got %+v, want found in 15 steps", res)
	}
	if want := []int{0, 1, 2, 5, 6}; !reflect.DeepEqual(res.Trace, want) {
		t.Errorf("trace = %v, want %v", res.Trace, want)
	}
	for _, target := range []int{3, 6} {
		a := implicit.ExecDirected(target, nil, DirectedOptions{})
		b := explicit.ExecDirected(target, nil, DirectedOptions{})
		if !reflect.DeepEqual(a, b) {
			t.Errorf("target %d: nil FalseC %+v, explicit negation %+v", target, a, b)
		}
	}
}

func TestExecDirectedBudgetTruncates(t *testing.T) {
	// An infinite loop ahead of the target exhausts any finite budget.
	p := New("loop")
	x := p.Space.Var("x")
	p.Emit(&Assign{V: x, E: linear.ConstExpr(0)})
	p.Emit(&Label{Name: "L"})
	p.Emit(&Goto{Target: "L"})
	p.Emit(&Assert{C: Single(geC(-1, 1)), Msg: "dead"})
	res := p.ExecDirected(3, nil, DirectedOptions{Budget: 100})
	if res.Found {
		t.Fatalf("witness found through an infinite loop")
	}
	if !res.Truncated {
		t.Errorf("budget exhaustion not reported as truncated")
	}
}

func TestExecTruncatedFlag(t *testing.T) {
	p := New("loop")
	x := p.Space.Var("x")
	p.Emit(&Assign{V: x, E: linear.ConstExpr(0)})
	p.Emit(&Label{Name: "L"})
	p.Emit(&Goto{Target: "L"})
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	violated, truncated := p.Exec(rng, 50)
	if len(violated) != 0 {
		t.Errorf("violations in a loop with no asserts: %v", violated)
	}
	if !truncated {
		t.Errorf("infinite loop not reported truncated")
	}

	q := New("straight")
	y := q.Space.Var("y")
	q.Emit(&Assign{V: y, E: linear.ConstExpr(1)})
	q.Emit(&Assert{C: Single(geC(0, 1)), Msg: "y >= 0"})
	if err := q.Resolve(); err != nil {
		t.Fatal(err)
	}
	violated, truncated = q.Exec(rng, 0) // 0 = DefaultMaxSteps
	if truncated {
		t.Errorf("straight-line program reported truncated")
	}
	if len(violated) != 0 {
		t.Errorf("unexpected violations: %v", violated)
	}
}
