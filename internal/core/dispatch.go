package core

import (
	"time"

	"rbft/internal/message"
	"rbft/internal/obs"
	"rbft/internal/pbft"
	"rbft/internal/types"
	"rbft/internal/wal"
)

// maybeDispatch runs the Dispatch module once f+1 PROPAGATE copies
// (including our own) have been collected: in master-only mode the request
// goes to all f+1 local replicas for redundant ordering; in multi-primary
// mode only to the lane owning the client's partition.
func (n *Node) maybeDispatch(out *Output, r *pendingRequest, now time.Time) {
	if r.executed || !r.dispatchedAt.IsZero() || r.nsenders < n.cfg.Cluster.WeakQuorum() {
		return
	}
	r.dispatchedAt = now
	ref := r.ref
	first, last := n.lanes(ref.Client)
	n.mon.RequestDispatched(types.InstanceID(first), now)
	if n.tr.Enabled() {
		n.tr.Trace(obs.Event{
			At: now, Type: obs.EvRequestDispatched, Client: ref.Client, Req: ref.ID,
		})
	}
	for i := first; i <= last; i++ {
		// A replica's output can deliver and execute the request, and r go.
		if r.Holds(ref) && !(r.executed && r.lanes[i].Idle()) {
			n.absorb(out, types.InstanceID(i), n.replicas[i].AddRecord(ref, r, now), now)
		}
	}
}

// applyInstanceMessage routes a preverified protocol message to the right
// local replica. Sender attribution, instance bounds and MACs/signatures
// were all checked by the preverify stage; the bounds recheck below only
// guards against a forged Verified value. A replica-level rejection
// (semantically invalid message) still feeds flood accounting.
func (n *Node) applyInstanceMessage(out *Output, msg message.Message, from types.NodeID, now time.Time) {
	inst, _, ok := message.InstanceAndSender(msg)
	if !ok || int(inst) >= len(n.replicas) || inst < 0 {
		n.countInvalid(out, from, now)
		return
	}
	res, err := n.replicas[inst].OnMessage(msg, now)
	if err != nil {
		n.countInvalid(out, from, now)
		return
	}
	n.absorb(out, inst, res, now)
}

// absorb converts a replica's output into node output: forwards its
// messages, feeds deliveries to the monitor, and hands the Execution module
// the batches each delivery releases, in execution order — in master-only
// mode the master instance's batch itself (the backup lanes order for the
// monitor alone), in multi-primary mode whatever the round-robin lane merge
// lets go, each journalled so a restart resumes the merge cursors.
func (n *Node) absorb(out *Output, inst types.InstanceID, res pbft.Output, now time.Time) {
	out.Records = append(out.Records, res.Records...)
	out.NodeMsgs = append(out.NodeMsgs, res.Msgs...)
	for _, batch := range res.Delivered {
		if n.tr.Enabled() {
			n.tr.Trace(obs.Event{
				At: now, Type: obs.EvOrdered, Instance: inst,
				Seq: batch.Seq, View: batch.View, Count: len(batch.Refs),
			})
		}
		for i, ref := range batch.Refs {
			var at time.Time // zero once the request executed here
			if r := batch.Recs[i].(*pendingRequest); r.Holds(ref) && !r.executed {
				at = r.dispatchedAt
			}
			if n.spansOn && !at.IsZero() {
				n.tr.Trace(obs.Event{
					At: now, Type: obs.EvSpan, Stage: obs.StageOrder,
					Instance: inst, Seq: batch.Seq, View: batch.View,
					Client: ref.Client, Req: ref.ID,
					Trace: obs.TraceID(ref.Digest), Dur: now.Sub(at),
				})
			}
			verdict := n.mon.RequestOrdered(inst, ref, at, now)
			if verdict.Suspicious {
				n.lastSuspect = verdict
				n.voteInstanceChange(out, verdict.Reason, now)
			}
		}
		if n.multiPrimary() {
			for _, mb := range n.merge.push(batch) {
				n.journal(out, wal.Record{Kind: wal.KindMerged, Instance: mb.Instance, Seq: mb.Seq})
				n.executeBatch(out, mb, now)
			}
		} else if inst == types.MasterInstance {
			n.executeBatch(out, batch, now)
		}
	}
	if n.multiPrimary() {
		n.updateFiller(now)
	}
}
