// Package distq is the public facade: it states its cluster to the
// composition root and may not wire components of its own.
package distq

import (
	_ "repro/internal/cluster"
	_ "repro/internal/coordinator" // want `repro/distq may not import repro/internal/coordinator: only the cluster composition root constructs components`
	_ "repro/internal/engine"      // want `repro/distq may not import repro/internal/engine: only the cluster composition root constructs components`
	_ "repro/internal/split"       // want `repro/distq may not import repro/internal/split: only the cluster composition root constructs components`
)
