// Package feed implements the public newly-registered-domain feed the
// paper releases (zonestream.openintel.nl) as a multi-tenant pub/sub
// fan-out tier: a framed session protocol over TCP (HELLO / SUBSCRIBE /
// UNSUBSCRIBE commands answered with batch DATA frames, sequenced
// heartbeats, and explicit GAP markers when a slow subscriber is shed),
// a sharded copy-on-write subscriber registry, per-subscriber bounded
// queues with a configurable shedding policy, per-tenant subscriber caps
// and delivery rate limits, and a consuming client with auto-resume.
//
// The package splits along the tier's layers:
//
//   - protocol.go — the wire grammar: command parsing and frame encoding
//   - wire.go     — the DATA-frame codec: append-style entry encoder and
//     the canonical-shape decoder, both held to encoding/json's bytes
//   - registry.go — sharded subscriber registry, tenants, bounded queues
//   - server.go   — listener, session loop, fan-out pump, delivery
//   - client.go   — Subscribe/Subscription consumer with auto-resume
//
// An entry is encoded once per pump batch and those bytes are what every
// live subscriber's queue holds; a replaying session encodes its own log
// reads. FanoutStats.EncodeCacheHits counts the deliveries that used the
// pump's shared encoding.
//
// DESIGN.md §11 describes the architecture and its delivery contract:
// every subscriber of the same topic at the same offset observes a
// byte-identical entry sequence, modulo explicit GAP markers.
package feed

import (
	"time"
)

// Entry is one feed record as delivered to subscribers.
type Entry struct {
	Offset int64     `json:"offset"`
	Time   time.Time `json:"time"`
	Domain string    `json:"domain"`
	Raw    string    `json:"raw,omitempty"`
}

// Gap marks a hole the server deliberately left in a subscriber's stream:
// the inclusive offset range [From, To] was shed (slow consumer) or
// could not be encoded. Subscribers that need the lost range reconnect
// with SUBSCRIBE FROM to replay it from the log.
type Gap struct {
	From    int64  `json:"from"`
	To      int64  `json:"to"`
	Dropped int64  `json:"dropped"`
	Reason  string `json:"reason,omitempty"`
}
