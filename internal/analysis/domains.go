package analysis

import (
	"math/big"

	"repro/internal/interval"
	"repro/internal/linear"
	"repro/internal/polyhedra"
	"repro/internal/zone"
)

// IntervalDomain is the non-relational interval domain (the cheap end of
// the §3.5 ablation).
type IntervalDomain struct{}

// Name implements Domain.
func (IntervalDomain) Name() string { return "interval" }

// Universe implements Domain.
func (IntervalDomain) Universe(n int) State { return boxState{interval.Universe(n)} }

// Bottom implements Domain.
func (IntervalDomain) Bottom(n int) State { return boxState{interval.Bottom(n)} }

type boxState struct{ b *interval.Box }

func (s boxState) Clone() State              { return boxState{s.b.Clone()} }
func (s boxState) Join(o State) State        { return boxState{s.b.Join(o.(boxState).b)} }
func (s boxState) Widen(o State) State       { return boxState{s.b.Widen(o.(boxState).b)} }
func (s boxState) WidenSimple(o State) State { return boxState{s.b.Widen(o.(boxState).b)} }
func (s boxState) MeetSystem(sys linear.System) State {
	cur := s.b
	for _, c := range sys {
		cur = cur.MeetConstraint(c)
	}
	return boxState{cur}
}
func (s boxState) Assign(v int, e linear.Expr) State { return boxState{s.b.Assign(v, e)} }
func (s boxState) Havoc(v int) State                 { return boxState{s.b.Havoc(v)} }
func (s boxState) Includes(o State) bool             { return s.b.Includes(o.(boxState).b) }
func (s boxState) IsEmpty() bool                     { return s.b.IsEmpty() }
func (s boxState) Entails(c linear.Constraint) bool  { return s.b.Entails(c) }
func (s boxState) System() linear.System             { return s.b.System() }
func (s boxState) Sample() []*big.Rat                { return s.b.Sample() }
func (s boxState) Bounds(v int) (lo, hi *big.Rat)    { return s.b.Bounds(v) }
func (s boxState) String(sp *linear.Space) string    { return s.b.String(sp) }

// ZoneDomain is the difference-bound-matrix domain (the middle of the
// ablation). Config, when non-nil, carries the run's budget token; the
// zero value is the default-configured domain.
type ZoneDomain struct {
	Config *zone.Config
}

// Name implements Domain.
func (ZoneDomain) Name() string { return "zone" }

// Universe implements Domain.
func (d ZoneDomain) Universe(n int) State { return zoneState{d.Config.Universe(n)} }

// Bottom implements Domain.
func (d ZoneDomain) Bottom(n int) State { return zoneState{d.Config.Bottom(n)} }

// WithSubstrate returns d reconfigured with the given per-run substrate
// configs: a PolyDomain (or nil, the default) becomes PolyDomain{pc}, a
// ZoneDomain becomes ZoneDomain{zc}; any other domain — intervals,
// custom test domains — is returned unchanged.
func WithSubstrate(d Domain, pc *polyhedra.Config, zc *zone.Config) Domain {
	switch d.(type) {
	case nil:
		return PolyDomain{Config: pc}
	case PolyDomain:
		return PolyDomain{Config: pc}
	case ZoneDomain:
		return ZoneDomain{Config: zc}
	}
	return d
}

type zoneState struct{ d *zone.DBM }

func (s zoneState) Clone() State              { return zoneState{s.d.Clone()} }
func (s zoneState) Join(o State) State        { return zoneState{s.d.Join(o.(zoneState).d)} }
func (s zoneState) Widen(o State) State       { return zoneState{s.d.Widen(o.(zoneState).d)} }
func (s zoneState) WidenSimple(o State) State { return zoneState{s.d.Widen(o.(zoneState).d)} }
func (s zoneState) MeetSystem(sys linear.System) State {
	cur := s.d
	for _, c := range sys {
		cur = cur.MeetConstraint(c)
	}
	return zoneState{cur}
}
func (s zoneState) Assign(v int, e linear.Expr) State { return zoneState{s.d.Assign(v, e)} }
func (s zoneState) Havoc(v int) State                 { return zoneState{s.d.Havoc(v)} }
func (s zoneState) Includes(o State) bool             { return s.d.Includes(o.(zoneState).d) }
func (s zoneState) IsEmpty() bool                     { return s.d.IsEmpty() }
func (s zoneState) Entails(c linear.Constraint) bool  { return s.d.Entails(c) }
func (s zoneState) System() linear.System             { return s.d.System() }
func (s zoneState) Sample() []*big.Rat                { return s.d.Sample() }
func (s zoneState) Bounds(v int) (lo, hi *big.Rat)    { return s.d.Bounds(v) }
func (s zoneState) String(sp *linear.Space) string    { return s.d.String(sp) }

// StateKey implements stateKeyer.
func (s zoneState) StateKey() (string, bool) { return s.d.Key() }
