package pbft

import (
	"slices"
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
	// retainDeliveredFactor scales, in watermark windows, how many delivered
	// batches are kept for serving fetches; the log ring holds one more.
	retainDeliveredFactor = 2
)

// fetchState tracks one outstanding catch-up. The FETCH-RESP votes live in
// the slots (slot.fetched): the batch digest each peer returned, the
// PRE-PREPARE digest of (instance, view, seq, refs) its log digest chains.
type fetchState struct {
	target   types.SeqNum // highest sequence evidence says is committed
	deadline time.Time    // next retry
}

// noteCheckpointEvidence is called for every received CHECKPOINT; when f+1
// distinct peers agree on a digest at a sequence beyond our deliveries, we
// are behind and start (or extend) a fetch.
func (in *Instance) noteCheckpointEvidence(out *Output, seq types.SeqNum, votes []types.Digest, now time.Time) {
	if seq <= in.lastDelivered {
		return
	}
	behind := false
	for _, d := range votes {
		if !d.IsZero() && tally(votes, d) >= in.cfg.Cluster.WeakQuorum() {
			behind = true
			break
		}
	}
	if !behind {
		return
	}
	if in.fetch == nil {
		in.fetch = &fetchState{}
	}
	in.fetch.target = max(in.fetch.target, seq)
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

// onFetch serves the retained delivered batches of the requested range: the
// last retainDeliveredFactor × W up to lastDelivered.
func (in *Instance) onFetch(out *Output, f *message.Fetch) error {
	if in.behavior.Silent {
		return nil
	}
	from := f.FromSeq
	to := min(f.ToSeq, in.lastDelivered, from+fetchChunk)
	for seq := from + 1; seq <= to; seq++ {
		s := in.at(seq)
		if s.seq != seq || !s.delivered || seq+retainDeliveredFactor*in.cfg.WatermarkWindow <= in.lastDelivered {
			continue // out of retention
		}
		resp := &message.FetchResp{Instance: in.cfg.Instance, Seq: seq, View: s.deliveredIn, Batch: s.batch, Node: in.cfg.Node}
		resp.Auth = in.keys.AuthenticatorForNodes(in.cfg.Cluster.N, resp.Body())
		out.send([]types.NodeID{f.Node}, resp)
	}
	return nil
}

// onFetchResp tallies responses; f+1 identical batches, delivered in the
// same view, from distinct peers are adopted as delivered, under the view
// and digest those peers delivered them with.
func (in *Instance) onFetchResp(out *Output, fr *message.FetchResp, now time.Time) error {
	if in.fetch == nil || fr.Seq <= in.lastDelivered || fr.Seq > in.fetch.target {
		return nil
	}
	s := in.slot(fr.Seq)
	if s == nil || !s.fetched[fr.Node].IsZero() {
		return nil
	}
	pp := message.PrePrepare{Instance: fr.Instance, View: fr.View, Seq: fr.Seq, Batch: fr.Batch}
	digest := pp.BatchDigest()
	s.fetched[fr.Node] = digest
	if tally(s.fetched, digest) < in.cfg.Cluster.WeakQuorum() {
		return nil
	}
	// Adopt: mark the slot delivered with the fetched content.
	if !s.delivered {
		in.unwait(s)
		s.delivered = true
		s.havePP = true
		s.view = fr.View
		s.digest = digest
		s.batch, s.recs = fr.Batch, nil
		in.deliverReady(out, now)
	}
	if in.fetch.target <= in.lastDelivered {
		in.fetch = nil // caught up
	}
	return nil
}

// fetchTick retries an overdue fetch.
func (in *Instance) fetchTick(out *Output, now time.Time) {
	if in.fetch == nil || now.Before(in.fetch.deadline) {
		return
	}
	in.sendFetch(out, now) // or close it, if caught up
}

// retainDelivered is called as seq is delivered: the batch that leaves the
// retention window, retainDeliveredFactor × W below it, stops being served
// to fetches, and the replica's state for the refs it delivered that were
// not retired at execution goes with it. The retention window is as long as
// a replica remembers a delivered ref it was not told executed.
func (in *Instance) retainDelivered(seq types.SeqNum) {
	// The batch delivered before keeps no records once it has none to retire
	// here: a node retires the entries as it executes the batch.
	if s := in.at(seq - 1); s.seq == seq-1 && !slices.ContainsFunc(s.recs, func(rec Record) bool { r := in.entry(rec); return r != nil && r.at == seq-1 }) {
		s.recs = nil
	}
	retention := retainDeliveredFactor * in.cfg.WatermarkWindow
	if seq <= retention {
		return
	}
	old := seq - retention
	if s := in.at(old); s.seq == old {
		for _, rec := range s.recs { // an entry delivered at old is a ref of this batch
			if r := in.entry(rec); r != nil && r.at == old {
				r.retire = true
				in.settle(rec, r)
			}
		}
		// Free the batch now, not a window later when the slot is reused;
		// above the stable checkpoint a prepared proof may still need it.
		if old <= in.stableSeq {
			s.batch, s.recs = nil, nil
		}
	}
}
