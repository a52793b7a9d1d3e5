// Package workload keeps the names the odebench module imports from
// the macro workload suite. The six mixes themselves are experiments
// E17 and E18 of the registry in internal/bench (EXPERIMENTS.md), run
// by `ode-bench -workload`.
package workload

import "ode/internal/bench"

type (
	// Store is where a mix runs: embedded, remote or sharded.
	Store = bench.Store
	// Tx is the operation surface of a Store's transactions.
	Tx = bench.Tx
)

var (
	// NewEmbeddedStore adapts a loaded bench world into a Store.
	NewEmbeddedStore = bench.NewEmbeddedStore
	// NewRemoteStore adapts a connected client into a Store.
	NewRemoteStore = bench.NewRemoteStore
)
