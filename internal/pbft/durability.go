package pbft

import (
	"rbft/internal/types"
	"rbft/internal/wal"
)

// Durability: the replica stays a pure state machine, so it does not write
// the WAL itself. Instead, when cfg.Durable is set, every state transition
// that must survive a crash *describes itself* as a wal.Record attached to
// the Output, and the driver persists (and fsyncs) those records before
// transmitting the messages of the same output. "Log before send" is
// therefore a driver obligation; the replica's obligation is to emit the
// record in the same output as the message it covers.
//
// On restart the driver replays the log through Restore, one record at a
// time, then calls FinishRestore. Restored state is deliberately minimal:
// enough to never equivocate (send two conflicting PREPAREs/COMMITs for
// the same view and sequence, or reuse a primary sequence number for a new
// batch) and to resume from the last stable checkpoint. Everything else —
// missed deliveries, peer checkpoints, request bodies — is re-learned
// through the normal fetch and propagation machinery.

// journal appends rec to out when durability is on, stamping the instance.
func (in *Instance) journal(out *Output, rec wal.Record) {
	if !in.cfg.Durable {
		return
	}
	rec.Instance = in.cfg.Instance
	out.Records = append(out.Records, rec)
}

// promise is a durable claim this replica made before the crash: in view
// View it vouched for Digest at the sequence number of its slot. The zero
// digest means no claim.
type promise struct {
	view   types.View
	digest types.Digest
}

// conflicts reports whether acting on s would contradict the restored
// promise p: same view, different digest. A matching digest is not a
// conflict — re-sending an identical message is harmless — and a higher
// view legitimately supersedes the old proposal. A promise at or below the
// stable checkpoint can never conflict with in-window traffic.
func (in *Instance) conflicts(s *slot, p promise) bool {
	return !p.digest.IsZero() && s.seq > in.stableSeq && p.view == s.view && p.digest != s.digest
}

// keep records rec's claim in p unless p holds one from a later view.
func (p *promise) keep(rec wal.Record) {
	if p.digest.IsZero() || rec.View >= p.view {
		*p = promise{view: rec.View, digest: rec.Digest}
	}
}

// restoreState accumulates cross-record facts during a replay.
type restoreState struct {
	maxVCView types.View   // highest VIEW-CHANGE we sent
	maxNVView types.View   // highest NEW-VIEW we installed
	maxPPSeq  types.SeqNum // highest sequence we assigned as primary
}

// Restore applies one WAL record to the replica. Call for every record of
// this instance, in log order, before any live input; then FinishRestore.
func (in *Instance) Restore(rec wal.Record) {
	if in.restore == nil {
		in.restore = &restoreState{}
	}
	switch rec.Kind {
	case wal.KindSentPrePrepare:
		in.restore.maxPPSeq = max(in.restore.maxPPSeq, rec.Seq)
	case wal.KindSentPrepare:
		if s := in.slot(rec.Seq); s != nil {
			s.promisedPrepare.keep(rec)
		}
	case wal.KindSentCommit:
		if s := in.slot(rec.Seq); s != nil {
			s.promisedCommit.keep(rec)
		}
	case wal.KindStable:
		if rec.Seq > in.stableSeq {
			in.stableSeq = rec.Seq
			in.logDigest = rec.Digest
		}
	case wal.KindViewChange:
		in.restore.maxVCView = max(in.restore.maxVCView, rec.View)
	case wal.KindNewView:
		in.restore.maxNVView = max(in.restore.maxNVView, rec.View)
	}
}

// FinishRestore fixes up derived state after the last record. nodeView is
// the node-level view recovered from instance-change records; instances
// move in lockstep with it.
func (in *Instance) FinishRestore(nodeView types.View) {
	rs := in.restore
	if rs == nil {
		rs = &restoreState{}
	}
	in.restore = nil

	view := max(nodeView, rs.maxVCView, rs.maxNVView)
	in.view = view
	// A VIEW-CHANGE we sent for the final view without a NEW-VIEW on record
	// means we crashed mid-view-change: stay in it, and let the NEW-VIEW (or
	// the next instance change) move us on.
	in.inViewChange = rs.maxVCView == view && rs.maxNVView < view && view > 0

	// Resume delivery from the stable checkpoint; the gap up to the
	// cluster's head is re-learned via checkpoint evidence + fetch.
	in.lastDelivered = in.stableSeq

	// Never reuse a sequence number we may already have bound to a batch.
	in.nextSeq = max(in.stableSeq, rs.maxPPSeq) + 1
}
