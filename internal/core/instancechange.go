package core

import (
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
	if n.icVotes[n.cfg.Node] > n.cpi {
		return // already voted this round
	}
	n.icVotes[n.cfg.Node] = n.cpi + 1
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
// per the paper: discard if the cpi is stale; otherwise record it as the
// sender's latest vote and echo our own vote if our monitor also observed the
// problem.
func (n *Node) onInstanceChange(out *Output, ic *message.InstanceChange, now time.Time) {
	if ic.CPI < n.cpi || !n.member(ic.Node) {
		return // intended for a previous instance change, or no node's
	}
	n.icVotes[ic.Node] = max(n.icVotes[ic.Node], ic.CPI+1) // a vote for cpi 2⁶⁴−1 wraps to none

	// "The node checks if it should also send an INSTANCE_CHANGE message. It
	// does so only if it also observes too much difference between the
	// performance of the replicas."
	if ic.CPI == n.cpi && n.lastSuspect.Suspicious && n.icVotes[n.cfg.Node] <= n.cpi {
		n.voteInstanceChange(out, n.lastSuspect.Reason, now)
		return
	}
	n.checkInstanceChangeQuorum(out, n.lastSuspect.Reason, now)
}

// checkInstanceChangeQuorum performs instance changes for as long as 2f+1
// nodes' latest INSTANCE-CHANGE is for the current cpi or a later one. A vote
// for a later cpi counts for the earlier ones: a correct node votes for a cpi
// only while at it, and reaches it only through a quorum for every cpi below,
// while a faulty node could vote for each earlier cpi anyway. So a node that
// missed whole rounds catches up on the votes of the round the others are in.
func (n *Node) checkInstanceChangeQuorum(out *Output, reason monitor.Reason, now time.Time) {
	for {
		votes := 0
		for _, v := range n.icVotes {
			if v > n.cpi {
				votes++
			}
		}
		if votes < n.cfg.Cluster.Quorum() {
			return
		}
		n.cpi++
		n.view++
		n.lastSuspect = monitor.Verdict{}
		n.mon.Reset(now)
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
}
