package core

import (
	"context"

	"darkdns/internal/rdap"
)

// MuxQuerier adapts an in-process rdap.Mux (the simulated per-TLD RDAP
// services) to the pipeline's Querier interface. It honours the no-retry
// policy because it makes exactly the one lookup it is asked for.
type MuxQuerier struct {
	Mux *rdap.Mux
}

// Domain implements rdap.Querier.
func (q MuxQuerier) Domain(_ context.Context, name string) (*rdap.Record, error) {
	return q.Mux.RDAPDomain(name)
}
