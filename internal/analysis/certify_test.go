package analysis

import (
	"math/big"
	"testing"

	"repro/internal/ip"
	"repro/internal/linear"
)

// TestCounterExampleIntegralSnapping: the bad region 0 <= x <= 10 has the
// integral lex-min corner x = 0, so the counter-example must be integral.
func TestCounterExampleIntegralSnapping(t *testing.T) {
	p := ip.New("t")
	x := p.Space.Var("x")
	lo := linear.NewGe(linear.VarExpr(x)) // x >= 0
	hi := linear.ConstExpr(10)
	hi = hi.Sub(linear.VarExpr(x)) // 10 - x >= 0
	p.Emit(&ip.Assume{C: ip.Conj(lo, linear.NewGe(hi))})
	// assert(x >= 1): violated by x = 0 only.
	one := linear.VarExpr(x)
	one.AddConst(-1)
	p.Emit(&ip.Assert{C: ip.Single(linear.NewGe(one)), Msg: "x >= 1"})
	res, err := Analyze(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 1 {
		t.Fatalf("want 1 violation, got %d", len(res.Violations))
	}
	v := res.Violations[0]
	if !v.CounterExampleIntegral {
		t.Errorf("integral witness x = 0 not marked integral: %v", v.CounterExample)
	}
	got := v.CounterExample["x"]
	if got == nil || got.Cmp(new(big.Rat)) != 0 {
		t.Errorf("counter-example x = %v, want 0", got)
	}
}

// TestCounterExampleRationalOnly: assume(2x - 2y = 1) admits no integer
// point at all, so the bad region of the (violated) assert contains only
// rational witnesses and the violation must be marked non-integral.
func TestCounterExampleRationalOnly(t *testing.T) {
	p := ip.New("t")
	x := p.Space.Var("x")
	y := p.Space.Var("y")
	diff := linear.NewExpr()
	diff.AddTerm(x, 2)
	diff.AddTerm(y, -2)
	diff.AddConst(-1) // 2x - 2y - 1 = 0
	bounds := func(v int) []linear.Constraint {
		hi := linear.ConstExpr(3)
		hi = hi.Sub(linear.VarExpr(v))
		return []linear.Constraint{
			linear.NewGe(linear.VarExpr(v)), // v >= 0
			linear.NewGe(hi),                // v <= 3
		}
	}
	conj := append([]linear.Constraint{linear.NewEq(diff)}, bounds(x)...)
	conj = append(conj, bounds(y)...)
	p.Emit(&ip.Assume{C: ip.DNF{conj}})
	// assert(2x - 2y >= 2): always violated (the region has 2x - 2y = 1),
	// and its integer negation 2x - 2y <= 1 keeps the fractional region.
	c := linear.NewExpr()
	c.AddTerm(x, 2)
	c.AddTerm(y, -2)
	c.AddConst(-2)
	p.Emit(&ip.Assert{C: ip.Single(linear.NewGe(c)), Msg: "2x - 2y >= 2"})
	res, err := Analyze(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 1 {
		t.Fatalf("want 1 violation, got %d", len(res.Violations))
	}
	v := res.Violations[0]
	if v.CounterExampleIntegral {
		t.Errorf("rational-only witness marked integral: %v", v.CounterExample)
	}
	fractional := false
	for _, val := range v.CounterExample {
		if !val.IsInt() {
			fractional = true
		}
	}
	if !fractional {
		t.Errorf("expected a fractional coordinate in %v", v.CounterExample)
	}
}

// TestCounterExampleSnapsInsideRegion: the fractional lex-min corner of
// 1/2 <= x <= 5/2 (from 2x >= 1, 5 - 2x >= 0) must snap to the integral
// point x = 1 inside the region, not report 1/2.
func TestCounterExampleSnapsInsideRegion(t *testing.T) {
	p := ip.New("t")
	x := p.Space.Var("x")
	lo := linear.NewExpr()
	lo.AddTerm(x, 2)
	lo.AddConst(-1) // 2x - 1 >= 0
	hi := linear.NewExpr()
	hi.AddTerm(x, -2)
	hi.AddConst(5) // 5 - 2x >= 0
	p.Emit(&ip.Assume{C: ip.Conj(linear.NewGe(lo), linear.NewGe(hi))})
	// assert(x >= 100): everything in the region violates it.
	big100 := linear.VarExpr(x)
	big100.AddConst(-100)
	p.Emit(&ip.Assert{C: ip.Single(linear.NewGe(big100)), Msg: "x >= 100"})
	res, err := Analyze(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 1 {
		t.Fatalf("want 1 violation, got %d", len(res.Violations))
	}
	v := res.Violations[0]
	if !v.CounterExampleIntegral {
		t.Fatalf("region contains integers but witness is non-integral: %v", v.CounterExample)
	}
	got := v.CounterExample["x"]
	if got == nil || !got.IsInt() {
		t.Fatalf("counter-example x = %v is not integral", got)
	}
	if got.Num().Int64() < 1 || got.Num().Int64() > 2 {
		t.Errorf("snapped witness x = %v outside [1, 2]", got)
	}
}

// TestCertifyResultPlainRun: certificates from a plain Analyze run over the
// canonical loop verify, and cover exactly the discharged checks.
func TestCertifyResultPlainRun(t *testing.T) {
	opts := Options{Certify: true}
	res, err := Analyze(buildLoop(true), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("unexpected violations: %v", res.Violations)
	}
	certs := CertifyResult(res, opts)
	if len(certs) != 2 {
		t.Fatalf("want certificates for both asserts, got %d", len(certs))
	}
	for _, cert := range certs {
		if err := cert.Verify(); err != nil {
			t.Errorf("certificate for %q rejected: %v", cert.Check.Msg, err)
		}
	}
}

// TestCertifyResultSkipsViolated: the violated check gets no certificate.
func TestCertifyResultSkipsViolated(t *testing.T) {
	opts := Options{Certify: true}
	res, err := Analyze(buildLoop(false), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 1 {
		t.Fatalf("want 1 violation, got %d", len(res.Violations))
	}
	certs := CertifyResult(res, opts)
	if len(certs) != 1 {
		t.Fatalf("want 1 certificate, got %d", len(certs))
	}
	if certs[0].Check.Msg != "x >= 0" {
		t.Errorf("certified wrong check: %q", certs[0].Check.Msg)
	}
	if err := certs[0].Verify(); err != nil {
		t.Errorf("certificate rejected: %v", err)
	}
}

// buildSumProgram needs the relational bound x + y <= 10 to prove its
// assert: with neither variable individually bounded, intervals learn
// nothing and zones cannot represent the sum, so only the polyhedra tier
// discharges the check.
func buildSumProgram() *ip.Program {
	p := ip.New("sum")
	x := p.Space.Var("x")
	y := p.Space.Var("y")
	sum := linear.ConstExpr(10)
	sum.AddTerm(x, -1)
	sum.AddTerm(y, -1) // 10 - x - y >= 0
	p.Emit(&ip.Assume{C: ip.Single(linear.NewGe(sum))})
	slack := linear.ConstExpr(12)
	slack.AddTerm(x, -1)
	slack.AddTerm(y, -1) // 12 - x - y >= 0
	p.Emit(&ip.Assert{C: ip.Single(linear.NewGe(slack)), Msg: "x + y <= 12"})
	return p
}

// TestCascadeCertificates: every check the cascade discharges (across all
// tiers) carries a certificate that verifies, with correct original-index
// mapping.
func TestCascadeCertificates(t *testing.T) {
	loop := func() *ip.Program { return buildLoop(true) }
	for _, in := range []struct {
		name  string
		build func() *ip.Program
		dom   Domain
		certs int
		// tier, when set, is the tier that must discharge every check.
		tier string
	}{
		{"loop", loop, PolyDomain{}, 2, ""},
		{"loop", loop, ZoneDomain{}, 2, ""},
		{"loop", loop, IntervalDomain{}, 2, ""},
		{"sum", buildSumProgram, PolyDomain{}, 1, "polyhedra"},
	} {
		tag := in.name + "/" + in.dom.Name()
		res, err := AnalyzeCascade(in.build(), Options{Domain: in.dom, Certify: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) != 0 {
			t.Fatalf("[%s] unexpected violations: %v", tag, res.Violations)
		}
		if len(res.Certificates) != in.certs {
			t.Fatalf("[%s] want %d certificates, got %d", tag, in.certs, len(res.Certificates))
		}
		orig := in.build()
		for _, cert := range res.Certificates {
			if err := cert.Verify(); err != nil {
				t.Errorf("[%s] certificate for %q rejected: %v", tag, cert.Check.Msg, err)
			}
			if in.tier != "" && cert.Check.Tier != in.tier {
				t.Errorf("[%s] %q discharged by %s, want %s", tag, cert.Check.Msg, cert.Check.Tier, in.tier)
			}
			// The mapped-back index must point at an assert with the same
			// message in the original program.
			a, ok := orig.Stmts[cert.Check.OrigIndex].(*ip.Assert)
			if !ok || a.Msg != cert.Check.Msg {
				t.Errorf("[%s] OrigIndex %d does not name assert %q",
					tag, cert.Check.OrigIndex, cert.Check.Msg)
			}
		}
	}
}

// TestCascadeUnreachableCertificate: a CFG-unreachable assert gets an
// unreachability certificate that verifies on the original program.
func TestCascadeUnreachableCertificate(t *testing.T) {
	p := ip.New("dead")
	x := p.Space.Var("x")
	p.Emit(&ip.Assign{V: x, E: linear.ConstExpr(0)})
	p.Emit(&ip.Goto{Target: "end"})
	bad := linear.VarExpr(x)
	bad.AddConst(-100)
	p.Emit(&ip.Assert{C: ip.Single(linear.NewGe(bad)), Msg: "dead check"})
	p.Emit(&ip.Label{Name: "end"})
	res, err := AnalyzeCascade(p, Options{Certify: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("unreachable assert reported: %v", res.Violations)
	}
	if len(res.Certificates) != 1 {
		t.Fatalf("want 1 certificate, got %d", len(res.Certificates))
	}
	cert := res.Certificates[0]
	if !cert.Unreachable || cert.Check.Tier != "unreachable" {
		t.Errorf("certificate not marked unreachable: %+v", cert.Check)
	}
	if err := cert.Verify(); err != nil {
		t.Errorf("unreachability certificate rejected: %v", err)
	}
}
