package pbft

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"time"

	"rbft/internal/message"
	"rbft/internal/types"
	"rbft/internal/wal"
)

// StartViewChange moves the replica into view change toward newView. In RBFT
// this is only ever invoked by the node's protocol-instance-change mechanism,
// never by the instance itself, and it happens on every instance at once.
func (in *Instance) StartViewChange(newView types.View, now time.Time) Output {
	var out Output
	if newView <= in.view {
		return out // only move forward
	}
	in.view = newView
	in.inViewChange = true
	// Primary-only state is void across the change.
	in.pending = nil
	in.batchDeadline = time.Time{}
	in.delayed = nil

	vc := &message.ViewChange{
		Instance:  in.cfg.Instance,
		NewView:   newView,
		StableSeq: in.stableSeq,
		Prepared:  in.preparedProofs(),
		Node:      in.cfg.Node,
	}
	vc.Sig = in.keys.Sign(vc.Body())
	in.journal(&out, wal.Record{Kind: wal.KindViewChange, View: newView})
	if !in.behavior.Silent {
		out.send(nil, vc)
	}
	// Our own vote for our own instance, signature unchecked: it cannot fail
	// validation.
	_ = in.onViewChange(&out, vc)
	return out
}

// preparedProofs collects the prepared certificates of the watermark window
// in sequence order: only a sequence in the window can gather PREPAREs.
func (in *Instance) preparedProofs() []message.PreparedProof {
	var proofs []message.PreparedProof
	for seq := in.stableSeq + 1; seq <= in.stableSeq+in.cfg.WatermarkWindow; seq++ {
		if s := in.at(seq); s.seq == seq && s.havePP && s.sentComm {
			proofs = append(proofs, message.PreparedProof{Seq: seq, View: s.view, Digest: s.digest, Batch: s.batch})
		}
	}
	return proofs
}

// onViewChange keeps each sender's latest VIEW-CHANGE: one for a higher view
// supersedes its older one, so a peer holds one slot whatever views it names.
func (in *Instance) onViewChange(out *Output, vc *message.ViewChange) error {
	if vc.NewView < in.view {
		return nil // stale
	}
	if held := in.viewChanges[vc.Node]; held != nil && held.NewView >= vc.NewView {
		return nil
	}
	in.viewChanges[vc.Node] = vc

	// Only the new primary, while in the view change, assembles NEW-VIEW.
	if in.view != vc.NewView || !in.inViewChange || !in.IsPrimary() {
		return nil
	}
	// The slots are in node order, which is the order onNewView requires.
	var vcs []message.ViewChange
	for _, held := range in.viewChanges {
		if held != nil && held.NewView == vc.NewView {
			vcs = append(vcs, *held)
		}
	}
	if len(vcs) < in.cfg.Cluster.Quorum() {
		return nil
	}

	pps := in.computeNewViewPrePrepares(vc.NewView, vcs)
	nv := &message.NewView{
		Instance:    in.cfg.Instance,
		View:        vc.NewView,
		ViewChanges: vcs,
		PrePrepares: pps,
		Node:        in.cfg.Node,
	}
	if !in.behavior.Silent {
		nv.Auth = in.keys.AuthenticatorForNodes(in.cfg.Cluster.N, nv.Body())
		out.send(nil, nv)
	}
	in.installNewView(out, nv)
	return nil
}

// computeNewViewPrePrepares derives the deterministic set of re-issued
// PRE-PREPAREs from a set of VIEW-CHANGE messages: for every sequence number
// between the highest reported stable checkpoint and the highest prepared
// sequence, the proposal prepared in the highest view wins; gaps become null
// (empty) batches. A correct replica reports proofs only inside its watermark
// window, so at most W above that checkpoint; one beyond is a faulty sender's
// and ignored, which bounds the NEW-VIEW at W proposals.
func (in *Instance) computeNewViewPrePrepares(v types.View, vcs []message.ViewChange) []message.PrePrepare {
	var minS types.SeqNum
	for i := range vcs {
		minS = max(minS, vcs[i].StableSeq)
	}
	maxS := minS
	best := make(map[types.SeqNum]message.PreparedProof)
	for i := range vcs {
		for _, p := range vcs[i].Prepared {
			if p.Seq <= minS || p.Seq-minS > in.cfg.WatermarkWindow {
				continue
			}
			maxS = max(maxS, p.Seq)
			if cur, ok := best[p.Seq]; !ok || p.View > cur.View {
				best[p.Seq] = p
			}
		}
	}
	var pps []message.PrePrepare
	for seq := minS + 1; seq-minS <= maxS-minS; seq++ { // no wrap at the top of the range
		pp := message.PrePrepare{
			Instance: in.cfg.Instance,
			View:     v,
			Seq:      seq,
			Node:     in.cfg.Cluster.PrimaryOf(v, in.cfg.Instance),
			Batch:    []types.RequestRef{},
		}
		if p, ok := best[seq]; ok {
			pp.Batch = p.Batch
		}
		pps = append(pps, pp)
	}
	return pps
}

func (in *Instance) onNewView(out *Output, nv *message.NewView, now time.Time) error {
	if nv.View < in.view || (nv.View == in.view && !in.inViewChange) {
		return nil // stale
	}
	wantPrimary := in.cfg.Cluster.PrimaryOf(nv.View, in.cfg.Instance)
	if nv.Node != wantPrimary {
		return fmt.Errorf("pbft: NEW-VIEW for view %d from %d, want primary %d", nv.View, nv.Node, wantPrimary)
	}

	// Validate the embedded VIEW-CHANGE quorum: one per sender, in node order.
	for i := range nv.ViewChanges {
		vc := &nv.ViewChanges[i]
		if vc.Instance != in.cfg.Instance || vc.NewView != nv.View {
			return fmt.Errorf("pbft: NEW-VIEW embeds mismatched VIEW-CHANGE (instance %d, view %d)", vc.Instance, vc.NewView)
		}
		if i > 0 && vc.Node <= nv.ViewChanges[i-1].Node {
			return fmt.Errorf("pbft: NEW-VIEW embeds VIEW-CHANGE from %d after %d, want ascending nodes", vc.Node, nv.ViewChanges[i-1].Node)
		}
	}
	if len(nv.ViewChanges) < in.cfg.Cluster.Quorum() {
		return fmt.Errorf("pbft: NEW-VIEW carries %d view changes, need %d", len(nv.ViewChanges), in.cfg.Cluster.Quorum())
	}

	// The re-issued PRE-PREPAREs must be exactly the deterministic function
	// of the view changes.
	want := in.computeNewViewPrePrepares(nv.View, nv.ViewChanges)
	if len(want) != len(nv.PrePrepares) {
		return fmt.Errorf("pbft: NEW-VIEW re-issues %d proposals, want %d", len(nv.PrePrepares), len(want))
	}
	for i := range want {
		got := &nv.PrePrepares[i]
		if got.Seq != want[i].Seq || got.View != nv.View || got.BatchDigest() != want[i].BatchDigest() {
			return fmt.Errorf("pbft: NEW-VIEW proposal %d does not match the view-change certificates", got.Seq)
		}
	}

	in.installNewView(out, nv)
	return nil
}

// installNewView applies an accepted NEW-VIEW: enter the view, replay the
// re-issued proposals, and (as primary) re-queue known-but-undelivered
// requests so nothing in flight is lost.
func (in *Instance) installNewView(out *Output, nv *message.NewView) {
	in.journal(out, wal.Record{Kind: wal.KindNewView, View: nv.View})
	in.view = nv.View
	in.inViewChange = false
	for i, held := range in.viewChanges {
		if held != nil && held.NewView <= nv.View {
			in.viewChanges[i] = nil
		}
	}

	maxSeq := in.stableSeq
	reissued := make(map[types.RequestRef]bool)
	for i := range nv.PrePrepares {
		pp := nv.PrePrepares[i]
		maxSeq = max(maxSeq, pp.Seq)
		for _, ref := range pp.Batch {
			reissued[ref] = true
		}
		// Reset a stale undelivered slot from the previous view so the
		// re-issued proposal is processed cleanly.
		if s := in.at(pp.Seq); s.seq == pp.Seq && s.view < nv.View && !s.delivered {
			in.restart(s)
		}
		in.acceptPrePrepare(out, &pp, time.Time{})
	}
	// Clear un-prepared leftovers from older views, and the PREPAREs waiting
	// on them; their requests re-enter through the primary's queue below.
	// No slot takes a sequence above lastDelivered+W, and a proposal at or
	// below lastDelivered has no waiters.
	for seq := in.lastDelivered + 1; seq <= in.lastDelivered+in.cfg.WatermarkWindow; seq++ {
		if s := in.at(seq); s.seq == seq && s.view < nv.View && !s.delivered && !s.sentComm {
			in.restart(s)
		}
	}

	if in.IsPrimary() {
		in.nextSeq = max(in.nextSeq, maxSeq+1, in.stableSeq+1)
		// Deterministically re-queue the requests in flight: known here,
		// undelivered here, and not re-issued.
		var refs []types.RequestRef
		in.store.Each(func(ref types.RequestRef, rec Record) {
			if r := rec.Entry(in.cfg.Instance); r.known && r.at == 0 && !reissued[ref] {
				refs = append(refs, ref)
			}
		})
		slices.SortFunc(refs, func(a, b types.RequestRef) int {
			return cmp.Or(cmp.Compare(a.Client, b.Client), cmp.Compare(a.ID, b.ID), bytes.Compare(a.Digest[:], b.Digest[:]))
		})
		in.pending = append(in.pending, refs...)
		if len(in.pending) > 0 {
			// Cut immediately, without consulting the batch timer (the zero
			// time): view changes are rare and latency-sensitive.
			in.cutBatch(out, time.Time{})
		}
	}
}
