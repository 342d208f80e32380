package core

import (
	"slices"
	"time"

	"rbft/internal/exec"
	"rbft/internal/message"
	"rbft/internal/obs"
	"rbft/internal/pbft"
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
// merge's order in multi-primary mode; b.Instance is the ordering lane that
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
func (n *Node) executeBatch(out *Output, b pbft.Batch, now time.Time) {
	batch, ops, lane := n.execBatch[:0], n.execOps[:0], b.Instance
	for i, ref := range b.Refs {
		cs := n.client(ref.Client, now)
		if cs.isExecuted(ref.ID) {
			continue
		}
		r := b.Recs[i].(*pendingRequest)
		if !r.Holds(ref) { // gone while the lane merge held the batch
			r, _ = n.lookup(ref)
		}
		if r == nil || !r.stored {
			continue // delivered here without its body (FETCH): re-ordered if retransmitted
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
	for i, e := range batch {
		ref, result := e.req.ref, res.Results[i]
		if n.tr.Enabled() {
			n.tr.Trace(obs.Event{
				At: now, Type: obs.EvExecuted, Client: ref.Client, Req: ref.ID,
			})
		}
		e.cs.cacheReply(ref.ID, result)
		out.Executions = append(out.Executions, Execution{Ref: ref, Result: result, Wave: base + res.Wave[i]})
		n.reply(ref.Client, e.req.bundle, ref.ID, result)
		n.release(e.cs, e.req)
	}
	n.sendReplies(out)
	// Hand the working slices back empty: they must not pin the executed
	// requests' frames until the next batch overwrites them.
	clear(batch)
	clear(ops)
	n.execBatch, n.execOps = batch[:0], ops[:0]
}

// answer is a reply waiting in Node.answers for its frame: the result of
// request id, which arrived in the client bundle whose first id is bundle.ID.
type answer struct {
	bundle types.RequestKey
	id     types.RequestID
	result []byte
}

// reply queues the answer to client's request id for sendReplies.
func (n *Node) reply(client types.ClientID, bundle, id types.RequestID, result []byte) {
	n.answers = append(n.answers, answer{bundle: types.RequestKey{Client: client, ID: bundle}, id: id, result: result})
}

// sendReplies sends what reply queued, in order, as authenticated frames: a
// run of answers to consecutive requests of one client bundle — at most
// message.MaxBundleOps, as the bundle was — shares one REPLY and one MAC.
func (n *Node) sendReplies(out *Output) {
	for a := n.answers; len(a) > 0; {
		k := 1
		for k < len(a) && a[k].bundle == a[0].bundle && a[k].id == a[0].id+types.RequestID(k) {
			k++
		}
		rep := &message.Reply{Client: a[0].bundle.Client, ID: a[0].id, Result: a[0].result, Rest: make([][]byte, k-1), Node: n.cfg.Node}
		for i := range rep.Rest {
			rep.Rest[i] = a[1+i].result
		}
		var buf [message.MaxBodySize]byte
		rep.MAC = n.keys.MACForClient(rep.Client, rep.AppendBody(buf[:0]))
		out.ClientMsgs = append(out.ClientMsgs, ClientSend{To: rep.Client, Msg: rep})
		a = a[k:]
	}
	clear(n.answers) // pins no result until the next batch
	n.answers = n.answers[:0]
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
