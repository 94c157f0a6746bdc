// Package engine names the CQ engine every layer above the server
// programs against: the network service, the experiment harness, the
// simulators, and the benchmark drivers all accept an Engine. There is
// one engine, cqserver.Server — the paper's single evaluator behind one
// M/M/1 input queue, whose utilisation THROTLOOP reads. DESIGN.md §5e
// records the measurement that ruled out a spatially sharded engine.
//
// The package lives outside internal/netsvc so that engine-level code need
// not depend on the network layer.
package engine

import (
	"fmt"

	"lira/internal/cqserver"
)

// Engine is the mobile CQ evaluation engine: ingest, drain, evaluate, and
// the LIRA adaptation loop. Every method is single-caller (the owner's
// drive loop, or callers serialized by the owner's mutex).
type Engine = *cqserver.Server

// New builds the engine for cfg, interpreted exactly as cqserver.New
// interprets it (defaults included). shards is kept for signature
// compatibility with existing callers: 0 and 1 are accepted, and any
// larger count is an error.
func New(cfg cqserver.Config, shards int) (Engine, error) {
	if shards > 1 {
		return nil, fmt.Errorf("engine: shard count %d: only the unsharded engine exists", shards)
	}
	return cqserver.New(cfg)
}
