package core

import (
	"slices"
	"time"

	"rbft/internal/exec"
	"rbft/internal/message"
	"rbft/internal/obs"
	"rbft/internal/types"
	"rbft/internal/wal"
)

// executing is one request of the batch executeBatch is working on.
type executing struct {
	req *pendingRequest
	cs  *clientState
}

// executeBatch runs the Execution module for one batch of requests in the
// agreed execution order — the master's order in master-only mode, the lane
// merge's order in multi-primary mode; lane records which ordering lane
// released the batch. The executed set is keyed by (client, id): if an
// equivocating client signed several bodies under one id, only the first
// ordered one executes — and since the execution order is identical
// everywhere, every correct node picks the same body.
//
// Everything that touches node state — skip-if-executed, executed-set
// marking, journaling, reply caching, the record's release — happens in
// sequence order on this (single-threaded) node; only the App.Execute calls
// go through the scheduler, which may fan them out across worker shards in
// waves of non-conflicting requests, so goroutine interleaving can never
// reach the node's state, trace or WAL. restoreExecution is the replay-side
// counterpart.
func (n *Node) executeBatch(out *Output, lane types.InstanceID, refs []types.RequestRef, now time.Time) {
	batch, ops := n.execBatch[:0], n.execOps[:0]
	for _, ref := range refs {
		cs := n.client(ref.Client, now)
		if cs.isExecuted(ref.ID) {
			continue
		}
		r := n.lookup(ref)
		if r == nil {
			// Cannot happen for requests dispatched by this node (dispatch
			// requires the body, stored under the digest it was verified
			// against); guards against divergent state.
			continue
		}
		cs.markExecuted(ref.ID)
		n.journal(out, wal.Record{
			Kind: wal.KindExecuted, Client: ref.Client, Req: ref.ID,
			Digest: ref.Digest, Op: r.op, Instance: lane,
		})
		if n.metricsOn && n.executedByLane != nil {
			n.executedByLane[lane].Inc()
		}
		// cs stays valid to the end of the batch: r pins it in the table
		// (a client with pending bodies is never evicted).
		batch = append(batch, executing{req: r, cs: cs})
		ops = append(ops, exec.Op{Client: ref.Client, ID: ref.ID, Body: r.op})
	}
	if len(batch) == 0 {
		return
	}
	res := n.sched.ExecuteBatch(ops)
	base := len(out.ExecWaves)
	out.ExecWaves = append(out.ExecWaves, res.Waves...)
	if n.metricsOn && n.execWaves != nil {
		n.execWaves.Add(uint64(len(res.Waves)))
		n.execConflicts.Add(uint64(res.Conflicts))
		n.execParallel.Add(uint64(res.Parallel))
	}
	out.Executions = slices.Grow(out.Executions, len(batch))
	out.ClientMsgs = slices.Grow(out.ClientMsgs, len(batch))
	for i, e := range batch {
		ref, result := e.req.ref, res.Results[i]
		if n.tr.Enabled() {
			n.tr.Trace(obs.Event{
				At: now, Type: obs.EvExecuted, Client: ref.Client, Req: ref.ID,
			})
		}
		e.cs.cacheReply(ref.ID, result, n.cfg.ReplyCacheSize)
		out.Executions = append(out.Executions, Execution{Ref: ref, Result: result, Wave: base + res.Wave[i]})
		out.ClientMsgs = append(out.ClientMsgs, n.replyTo(ref.Client, ref.ID, result))
		n.release(e.cs, ref.Key())
	}
	// Hand the working slices back empty: they must not pin the executed
	// requests' frames until the next batch overwrites them.
	clear(batch)
	clear(ops)
	n.execBatch, n.execOps = batch[:0], ops[:0]
}

// replyTo builds an authenticated REPLY.
func (n *Node) replyTo(client types.ClientID, id types.RequestID, result []byte) ClientSend {
	rep := &message.Reply{Client: client, ID: id, Result: result, Node: n.cfg.Node}
	var buf [message.MaxBodySize]byte
	rep.MAC = n.keys.MACForClient(client, rep.AppendBody(buf[:0]))
	return ClientSend{To: client, Msg: rep}
}

// cachedReply looks up a cached reply for a retransmitted request.
func (n *Node) cachedReply(cs *clientState, id types.RequestID) ([]byte, bool) {
	for i := len(cs.replies) - 1; i >= 0; i-- {
		if cs.replies[i].id == id {
			return cs.replies[i].result, true
		}
	}
	return nil, false
}
