// Package types defines the identifier vocabulary shared by every RBFT
// module: node, client, instance and view identifiers, sequence numbers,
// request references, and the cluster configuration with its quorum
// arithmetic.
package types

import (
	"fmt"
	"time"
)

// NodeID identifies one of the N physical nodes in the cluster. Node IDs are
// dense integers in [0, N).
type NodeID int

// ClientID identifies a client. Client IDs live in a separate namespace from
// node IDs.
type ClientID int

// InstanceID identifies one of the f+1 protocol instances running on every
// node. Instance 0 is never special by itself; which instance is the master
// is a function of the current instance-change counter.
type InstanceID int

// View is the shared view number. RBFT increments the view on every protocol
// instance change, which rotates the primary of every instance at once.
type View uint64

// SeqNum is a per-instance sequence number assigned by that instance's
// primary during ordering.
type SeqNum uint64

// RequestID is the client-chosen request identifier (monotonically increasing
// per client in well-behaved clients).
type RequestID uint64

// DigestSize is the byte length of request and batch digests (SHA-256).
const DigestSize = 32

// Digest is a collision-resistant hash of a request payload or batch.
type Digest [DigestSize]byte

// String renders a short hex prefix, enough for logs.
func (d Digest) String() string {
	return fmt.Sprintf("%x", d[:4])
}

// IsZero reports whether the digest is all zeroes (an unset digest).
func (d Digest) IsZero() bool {
	return d == Digest{}
}

// RequestRef identifies a request for ordering purposes. RBFT instances
// order request identifiers, not request bodies: the triple
// (client, request id, digest) is what flows through the three-phase commit.
type RequestRef struct {
	Client ClientID
	ID     RequestID
	Digest Digest
}

// Key returns a map key uniquely identifying the request origin (client and
// request id). Two refs with the same Key but different digests indicate an
// equivocating client.
func (r RequestRef) Key() RequestKey {
	return RequestKey{Client: r.Client, ID: r.ID}
}

// RequestKey is the (client, request id) pair used to index request state.
type RequestKey struct {
	Client ClientID
	ID     RequestID
}

// Config captures the static cluster parameters.
type Config struct {
	// N is the number of nodes. RBFT requires N = 3f+1.
	N int
	// F is the number of Byzantine nodes tolerated.
	F int
}

// The named threshold helpers below are the only place in the repository
// where quorum arithmetic is spelled out. Everything else — protocol cores,
// baselines, drivers, tests — goes through them (or the Config methods that
// delegate to them), and the quorumsafety analyzer (tools/analyzers)
// rejects raw 2f+1 / f+1 / 2f / 3f+1 expressions anywhere outside this
// package. A threshold with a name can be audited once; an inline
// expression has to be re-derived at every call site, which is exactly how
// off-by-one quorum bugs survive review.

// Quorum returns the Byzantine quorum size 2f+1 for a cluster tolerating f
// faults: any two quorums intersect in at least one correct node.
func Quorum(f int) int { return 2*f + 1 }

// WeakQuorum returns f+1, the smallest count guaranteeing at least one
// correct node among the senders.
func WeakQuorum(f int) int { return f + 1 }

// PrepareThreshold returns 2f, the number of PREPARE messages (besides the
// PRE-PREPARE itself) needed for a replica to reach the prepared state.
func PrepareThreshold(f int) int { return 2 * f }

// ClusterSize returns 3f+1, the minimum number of nodes needed to tolerate
// f Byzantine faults.
func ClusterSize(f int) int { return 3*f + 1 }

// NewConfig returns the configuration tolerating f faults (N = 3f+1).
func NewConfig(f int) Config {
	return Config{N: ClusterSize(f), F: f}
}

// Validate reports whether the configuration is a well-formed 3f+1 cluster.
func (c Config) Validate() error {
	if c.F < 0 {
		return fmt.Errorf("config: negative f (%d)", c.F)
	}
	if c.N != ClusterSize(c.F) {
		return fmt.Errorf("config: N=%d is not 3f+1 for f=%d", c.N, c.F)
	}
	return nil
}

// Instances returns the number of protocol instances every node runs (f+1).
// Numerically equal to WeakQuorum but semantically distinct: it counts
// redundant ordering lanes, not message senders.
func (c Config) Instances() int { return c.F + 1 }

// Quorum returns the Byzantine quorum size 2f+1.
func (c Config) Quorum() int { return Quorum(c.F) }

// WeakQuorum returns f+1, the count guaranteeing at least one correct node.
func (c Config) WeakQuorum() int { return WeakQuorum(c.F) }

// PrepareQuorum returns 2f, the number of PREPARE messages (besides the
// PRE-PREPARE) needed for a replica to reach the prepared state.
func (c Config) PrepareQuorum() int { return PrepareThreshold(c.F) }

// PrimaryOf returns the node hosting the primary replica of instance inst in
// view v. The placement (v + inst) mod N guarantees that with f+1 <= N
// instances, no node hosts more than one primary at a time.
func (c Config) PrimaryOf(v View, inst InstanceID) NodeID {
	return NodeID((uint64(v) + uint64(inst)) % uint64(c.N))
}

// AllNodes returns the node IDs [0, N).
func (c Config) AllNodes() []NodeID {
	nodes := make([]NodeID, c.N)
	for i := range nodes {
		nodes[i] = NodeID(i)
	}
	return nodes
}

// OtherNodes returns every node ID but self, ascending: the targets of a
// broadcast from self. Drivers compute it once per node.
func (c Config) OtherNodes(self NodeID) []NodeID {
	nodes := make([]NodeID, 0, c.N-1)
	for i := 0; i < c.N; i++ {
		if NodeID(i) != self {
			nodes = append(nodes, NodeID(i))
		}
	}
	return nodes
}

// MasterInstance is the instance whose ordering is executed. In RBFT the
// master is fixed (instance 0); instance changes replace its primary by
// advancing the shared view rather than by re-electing the master.
const MasterInstance InstanceID = 0

// DefaultBatchTimeout is how long a primary waits to fill a batch when its
// configuration names no timeout. The protocol instances apply it, and the
// multi-primary merge paces its empty-batch fillers by it.
const DefaultBatchTimeout = 5 * time.Millisecond

// OrderingMode selects which instances' orderings reach execution.
type OrderingMode int

const (
	// OrderingMasterOnly is the paper's design: all f+1 instances order
	// every request, only the master's order executes. The default.
	OrderingMasterOnly OrderingMode = iota
	// OrderingMultiPrimary partitions the request space over the f+1
	// instances (PartitionOf) so each lane orders a disjoint subset, and a
	// deterministic round-robin merge of the lane streams feeds execution.
	OrderingMultiPrimary
)

// String returns the flag/config spelling of the mode.
func (m OrderingMode) String() string {
	switch m {
	case OrderingMasterOnly:
		return "master-only"
	case OrderingMultiPrimary:
		return "multi-primary"
	default:
		return fmt.Sprintf("ordering-mode(%d)", int(m))
	}
}

// ParseOrderingMode maps a flag value back to the mode.
func ParseOrderingMode(s string) (OrderingMode, error) {
	switch s {
	case "master-only":
		return OrderingMasterOnly, nil
	case "multi-primary":
		return OrderingMultiPrimary, nil
	default:
		return OrderingMasterOnly, fmt.Errorf("unknown ordering mode %q (want master-only or multi-primary)", s)
	}
}

// PartitionOf returns the instance that owns a client's requests under
// multi-primary ordering. Like the threshold helpers above, this is the only
// place partition-assignment arithmetic is spelled out: the quorumsafety
// analyzer rejects raw `x % instances` expressions outside this package, so
// dispatch, re-proposal and recovery can never disagree about ownership.
//
// The map is a plain modulo over the dense deployment-assigned client-id
// space: balanced by construction and — deliberately — independent of the
// view and the instance-change counter. Prepared batches that survive a view
// change via NEW-VIEW re-proposal must commit unchanged, which a shifting
// partition map would violate; an instance change instead remaps *ownership*
// of each lane by rotating which node hosts its primary (PrimaryOf).
func PartitionOf(c ClientID, instances int) InstanceID {
	if instances <= 1 {
		return MasterInstance
	}
	return InstanceID(uint64(c) % uint64(instances))
}
