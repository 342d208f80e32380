package core

import (
	"errors"
	"time"

	"rbft/internal/message"
	"rbft/internal/obs"
	"rbft/internal/types"
)

// OnVerified is the apply stage: it consumes a preverified message and runs
// the deterministic protocol logic. No crypto happens past this point — the
// Verified value's authentication material is trusted unconditionally.
func (n *Node) OnVerified(v *message.Verified, now time.Time) Output {
	var out Output
	switch {
	case n.behavior.Silent:
	case !v.FromClient:
		n.applyNodeMessage(&out, v, now)
	default:
		if req, ok := v.Msg.(*message.Request); ok { // preverify builds nothing else
			n.applyRequest(&out, req, v, now)
		}
	}
	n.observeIO(v.Msg, &out)
	return out
}

// OnRejected applies the node-state reaction to a frame the preverify stage
// rejected; err is what Preverify*Frame returned and names the frame's origin.
// Flood accounting and NIC closures for node traffic, blacklisting for client
// signature failures. Keeping these decisions in the apply stage (rather than
// in the concurrent verifiers) keeps flood state deterministic.
func (n *Node) OnRejected(err error, now time.Time) Output {
	var out Output
	var f *message.PreverifyError
	if !errors.As(err, &f) || n.behavior.Silent {
		return out
	}
	if f.FromClient {
		// An invalid signature blacklists the client: it proves the client
		// is faulty (MACs passed, so nobody else forged the frame). Bad MACs
		// and malformed frames are dropped without reaction — they carry no
		// proof of origin.
		if f.Kind == message.FailBadSig {
			n.client(f.Client, now).blacklisted = true
		}
	} else {
		if n.nicClosed(f.From, now) {
			return out
		}
		n.countInvalid(&out, f.From, now)
	}
	n.rejected[f.Kind].Inc()
	return out
}

// applyNodeMessage processes a preverified message from another node:
// PROPAGATE, the per-instance protocol messages, and INSTANCE-CHANGE.
func (n *Node) applyNodeMessage(out *Output, v *message.Verified, now time.Time) {
	if n.nicClosed(v.From, now) {
		return
	}
	switch m := v.Msg.(type) {
	case *message.Propagate:
		n.applyRequest(out, &m.Req, v, now)
	case *message.InstanceChange:
		n.onInstanceChange(out, m, now)
	default:
		n.applyInstanceMessage(out, v.Msg, v.From, now)
	}
}

// nicClosed reports whether traffic from a peer is dropped: a flood closure
// is in force, or the sender names no node of the cluster.
func (n *Node) nicClosed(from types.NodeID, now time.Time) bool {
	return !n.member(from) || now.Before(n.closedUntil[from])
}

// member reports whether id names a node of the cluster, and so may index a
// per-node table.
func (n *Node) member(id types.NodeID) bool { return id >= 0 && int(id) < n.cfg.Cluster.N }

// The flood defence, Aardvark's fixed policy: FloodThreshold invalid
// messages from one peer within one FloodWindow close that peer's NIC for
// NICClosePeriod.
const (
	FloodThreshold = 64
	FloodWindow    = 100 * time.Millisecond
	NICClosePeriod = time.Second
)

// countInvalid records an invalid message from a peer and closes its NIC if
// it reaches FloodThreshold within the window.
func (n *Node) countInvalid(out *Output, from types.NodeID, now time.Time) {
	if now.Sub(n.floodStart) > FloodWindow {
		n.floodStart = now
		clear(n.floodCounts)
	}
	n.floodCounts[from]++
	if n.floodCounts[from] >= FloodThreshold {
		until := now.Add(NICClosePeriod)
		n.closedUntil[from] = until
		out.NICCloses = append(out.NICCloses, NICClose{Peer: from, Until: until})
		n.floodCounts[from] = 0
		if n.tr.Enabled() {
			n.tr.Trace(obs.Event{At: now, Type: obs.EvNICClose, Peer: from})
		}
	}
}
