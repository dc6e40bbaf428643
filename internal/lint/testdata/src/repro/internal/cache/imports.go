// Fixture for the layering analyzer: the analysis cache persists claims
// the independent checker re-proves, so it may link the checker and the
// shared IRs but never the engine or a numeric substrate.
package cache

import (
	_ "repro/internal/analysis"  // want `must not import repro/internal/analysis`
	_ "repro/internal/certify"   // allowed: certificates are the cached currency
	_ "repro/internal/clex"      // allowed: shared position type
	_ "repro/internal/ip"        // allowed: the integer-program IR is shared vocabulary
	_ "repro/internal/linear"    // allowed: the constraint IR is shared vocabulary
	_ "repro/internal/polyhedra" // want `must not import repro/internal/polyhedra`
	_ "repro/internal/zone"      // want `must not import repro/internal/zone`
)
