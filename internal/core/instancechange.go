package core

import (
	"maps"
	"time"

	"rbft/internal/message"
	"rbft/internal/monitor"
	"rbft/internal/obs"
	"rbft/internal/types"
	"rbft/internal/wal"
)

// voteInstanceChange broadcasts this node's INSTANCE-CHANGE for the current
// cpi (at most once per cpi) and evaluates the quorum.
func (n *Node) voteInstanceChange(out *Output, reason monitor.Reason, now time.Time) {
	votes := n.votesFor(n.cpi)
	if votes[n.cfg.Node] {
		return // already voted this round
	}
	votes[n.cfg.Node] = true
	ic := &message.InstanceChange{CPI: n.cpi, Node: n.cfg.Node}
	var buf [message.MaxBodySize]byte
	ic.Auth = n.keys.AuthenticatorForNodes(n.cfg.Cluster.N, ic.AppendBody(buf[:0]))
	out.NodeMsgs = append(out.NodeMsgs, NodeSend{Msg: ic})
	if n.tr.Enabled() {
		n.tr.Trace(obs.Event{
			At: now, Type: obs.EvInstanceChangeStart,
			CPI: n.cpi, Reason: reason.String(),
		})
	}
	n.checkInstanceChangeQuorum(out, reason, now)
}

// onInstanceChange processes a MAC-verified INSTANCE-CHANGE from a peer,
// per the paper: discard if the cpi is stale; otherwise record it and echo
// our own vote if our monitor also observed the problem.
func (n *Node) onInstanceChange(out *Output, ic *message.InstanceChange, now time.Time) {
	if ic.CPI < n.cpi {
		return // intended for a previous instance change
	}
	votes := n.votesFor(ic.CPI)
	votes[ic.Node] = true

	// "The node checks if it should also send an INSTANCE_CHANGE message. It
	// does so only if it also observes too much difference between the
	// performance of the replicas."
	if ic.CPI == n.cpi && n.lastSuspect.Suspicious && !votes[n.cfg.Node] {
		n.voteInstanceChange(out, n.lastSuspect.Reason, now)
		return
	}
	n.checkInstanceChangeQuorum(out, n.lastSuspect.Reason, now)
}

// checkInstanceChangeQuorum performs the instance change once 2f+1 matching
// INSTANCE-CHANGE messages for the current cpi have been collected.
func (n *Node) checkInstanceChangeQuorum(out *Output, reason monitor.Reason, now time.Time) {
	votes := n.icVotes[n.cpi]
	if len(votes) < n.cfg.Cluster.Quorum() {
		return
	}
	n.cpi++
	n.view++
	n.lastSuspect = monitor.Verdict{}
	n.mon.Reset(now)
	maps.DeleteFunc(n.icVotes, func(v uint64, _ map[types.NodeID]bool) bool { return v < n.cpi })
	out.InstanceChanges = append(out.InstanceChanges, ICEvent{
		CPI:     n.cpi,
		NewView: n.view,
		Reason:  reason,
	})
	// Journal before the replicas' view-change records so a replay sees the
	// node-level transition first, exactly as it happened.
	n.journal(out, wal.Record{Kind: wal.KindInstanceChange, CPI: n.cpi, View: n.view})
	if n.tr.Enabled() {
		n.tr.Trace(obs.Event{
			At: now, Type: obs.EvInstanceChangeComplete,
			CPI: n.cpi, View: n.view, Reason: reason.String(),
		})
	}
	// Every local replica view-changes at once, rotating all primaries.
	for i, r := range n.replicas {
		n.absorb(out, types.InstanceID(i), r.StartViewChange(n.view, now), now)
	}
}

func (n *Node) votesFor(cpi uint64) map[types.NodeID]bool {
	votes := n.icVotes[cpi]
	if votes == nil {
		votes = make(map[types.NodeID]bool, n.cfg.Cluster.Quorum())
		n.icVotes[cpi] = votes
	}
	return votes
}
