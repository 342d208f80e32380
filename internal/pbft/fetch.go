package pbft

import (
	"fmt"
	"maps"
	"time"

	"rbft/internal/message"
	"rbft/internal/types"
)

// Catch-up (batch fetch). Transports are FIFO but not immune to loss: a
// flood-closed NIC interval, a dropped UDP datagram or an overloaded receive
// queue can leave a replica with a delivery gap it can never fill from the
// normal flow (the COMMITs are gone). The checkpoint stream reveals the gap:
// when f+1 distinct peers advertise a matching checkpoint digest at a
// sequence this replica has not delivered, at least one correct peer is
// ahead, so the missing batches are committed and safe to fetch. The replica
// asks every peer for the range and adopts a batch once f+1 distinct peers
// return identical content.

const (
	// fetchChunk caps the sequence range served per FETCH.
	fetchChunk = 64
	// fetchRetry is the re-request interval while a gap persists.
	fetchRetry = 100 * time.Millisecond
	// retainDeliveredFactor scales how many delivered batches are kept for
	// serving fetches, in units of the watermark window.
	retainDeliveredFactor = 2
)

// fetchState tracks one outstanding catch-up.
type fetchState struct {
	target   types.SeqNum // highest sequence evidence says is committed
	deadline time.Time    // next retry
	// votes[seq][node] is the batch digest a peer returned: the PRE-PREPARE
	// digest of (instance, view, seq, refs), the one its log digest chains.
	// The response that completes a quorum carries the content itself.
	votes map[types.SeqNum]map[types.NodeID]types.Digest
}

// deliveredBatch is a delivered batch kept for serving fetches: its refs and
// the view it was delivered in.
type deliveredBatch struct {
	view types.View
	refs []types.RequestRef
}

// noteCheckpointEvidence is called for every received CHECKPOINT; when f+1
// distinct peers agree on a digest at a sequence beyond our deliveries, we
// are behind and start (or extend) a fetch.
func (in *Instance) noteCheckpointEvidence(out *Output, seq types.SeqNum, now time.Time) {
	if seq <= in.lastDelivered {
		return
	}
	votes := in.checkpoints[seq]
	if votes == nil {
		return
	}
	counts := make(map[types.Digest]int, len(votes))
	behind := false
	for _, d := range votes {
		counts[d]++
		if counts[d] >= in.cfg.Cluster.WeakQuorum() {
			behind = true
			break
		}
	}
	if !behind {
		return
	}
	if in.fetch == nil {
		in.fetch = &fetchState{votes: make(map[types.SeqNum]map[types.NodeID]types.Digest)}
	}
	if seq > in.fetch.target {
		in.fetch.target = seq
	}
	if in.fetch.deadline.IsZero() || !now.Before(in.fetch.deadline) {
		in.sendFetch(out, now)
	}
}

// sendFetch broadcasts the request for the current gap and arms the retry.
func (in *Instance) sendFetch(out *Output, now time.Time) {
	if in.fetch == nil || in.fetch.target <= in.lastDelivered {
		in.fetch = nil
		return
	}
	in.fetch.deadline = now.Add(fetchRetry)
	if in.behavior.Silent {
		return
	}
	f := &message.Fetch{Instance: in.cfg.Instance, FromSeq: in.lastDelivered, ToSeq: in.fetch.target, Node: in.cfg.Node}
	var buf [message.MaxBodySize]byte
	f.Auth = in.keys.AuthenticatorForNodes(in.cfg.Cluster.N, f.AppendBody(buf[:0]))
	out.send(nil, f)
}

// onFetch serves retained delivered batches for the requested range.
func (in *Instance) onFetch(out *Output, f *message.Fetch) error {
	if f.Instance != in.cfg.Instance {
		return fmt.Errorf("pbft: FETCH for instance %d on instance %d", f.Instance, in.cfg.Instance)
	}
	if in.behavior.Silent {
		return nil
	}
	from := f.FromSeq
	to := f.ToSeq
	if to > in.lastDelivered {
		to = in.lastDelivered
	}
	if to > from+fetchChunk {
		to = from + fetchChunk
	}
	for seq := from + 1; seq <= to; seq++ {
		b, ok := in.recentDelivered[seq]
		if !ok {
			continue // GC'd past the retention window
		}
		resp := &message.FetchResp{Instance: in.cfg.Instance, Seq: seq, View: b.view, Batch: b.refs, Node: in.cfg.Node}
		resp.Auth = in.keys.AuthenticatorForNodes(in.cfg.Cluster.N, resp.Body())
		out.send([]types.NodeID{f.Node}, resp)
	}
	return nil
}

// onFetchResp tallies responses; f+1 identical batches, delivered in the
// same view, from distinct peers are adopted as delivered, under the view
// and digest those peers delivered them with.
func (in *Instance) onFetchResp(out *Output, fr *message.FetchResp, now time.Time) error {
	if fr.Instance != in.cfg.Instance {
		return fmt.Errorf("pbft: FETCH-RESP for instance %d on instance %d", fr.Instance, in.cfg.Instance)
	}
	if in.fetch == nil || fr.Seq <= in.lastDelivered || fr.Seq > in.fetch.target {
		return nil
	}
	pp := message.PrePrepare{Instance: fr.Instance, View: fr.View, Seq: fr.Seq, Batch: fr.Batch}
	digest := pp.BatchDigest()
	votes := in.fetch.votes[fr.Seq]
	if votes == nil {
		votes = make(map[types.NodeID]types.Digest, in.cfg.Cluster.WeakQuorum())
		in.fetch.votes[fr.Seq] = votes
	}
	if _, dup := votes[fr.Node]; dup {
		return nil
	}
	votes[fr.Node] = digest
	if tally(votes, digest) < in.cfg.Cluster.WeakQuorum() {
		return nil
	}
	// Adopt: mark the entry delivered with the fetched content.
	e := in.entry(fr.Seq)
	if !e.delivered {
		in.unwait(fr.Seq, e)
		e.delivered = true
		e.havePP = true
		e.view = fr.View
		e.digest = digest
		e.batch = fr.Batch
		in.deliverReady(out, now)
	}
	in.fetchProgress()
	return nil
}

// fetchProgress forgets the votes deliveries have overtaken and closes the
// fetch once its target is delivered.
func (in *Instance) fetchProgress() {
	if in.fetch == nil {
		return
	}
	maps.DeleteFunc(in.fetch.votes, func(s types.SeqNum, _ map[types.NodeID]types.Digest) bool { return s <= in.lastDelivered })
	if in.fetch.target <= in.lastDelivered {
		in.fetch = nil
	}
}

// fetchWake exposes the retry deadline to NextWake.
func (in *Instance) fetchWake() time.Time {
	if in.fetch == nil {
		return time.Time{}
	}
	return in.fetch.deadline
}

// fetchTick retries an overdue fetch.
func (in *Instance) fetchTick(out *Output, now time.Time) {
	if in.fetch == nil || now.Before(in.fetch.deadline) {
		return
	}
	in.fetchProgress()
	if in.fetch != nil {
		in.sendFetch(out, now)
	}
}

// retainDelivered records a delivered batch for serving future fetches and
// prunes the retention window. The refs that the pruned batch delivered and
// this replica still holds leave with it: the retention window is as long
// as a replica remembers a delivered ref it was not told executed.
func (in *Instance) retainDelivered(seq types.SeqNum, view types.View, refs []types.RequestRef) {
	in.recentDelivered[seq] = deliveredBatch{view: view, refs: refs}
	retention := retainDeliveredFactor * in.cfg.WatermarkWindow
	if seq > retention {
		old := seq - retention
		for _, ref := range in.recentDelivered[old].refs {
			if r := in.reqs[ref]; r != nil && r.at == old {
				r.retire = true
				in.settle(ref, r)
			}
		}
		delete(in.recentDelivered, old)
	}
}
