package core

import (
	"time"

	"rbft/internal/pbft"
	"rbft/internal/types"
)

// Multi-primary ordering (Config.OrderingMode = types.OrderingMultiPrimary)
// splits the three concerns that master-only mode fuses together:
//
//   - dispatch: maybeDispatch hands each request to the one lane that owns
//     its client's partition (types.PartitionOf) instead of to all f+1;
//   - ordering: every lane's delivered stream becomes execution-relevant,
//     not just the master's;
//   - execution: a deterministic round-robin merge of the lane streams
//     (laneMerge below) feeds the single execute path.
//
// Each lane's delivered stream is agreed by PBFT, so it is identical on all
// correct nodes; the merge order is a pure function of those streams and
// therefore identical too — one total order without any cross-lane
// coordination messages. An idle lane would stall the round-robin, so the
// node hosting the stalled lane's primary proposes empty filler batches
// (pbft.ProposeFiller); the agreed empty batch advances every node's cursor
// past a sequence that ordered nothing (the skip-empty-lane rule).

// laneMerge is the deterministic round-robin merge scheduler. It buffers
// each lane's delivered batches and releases them in strict lane rotation:
// the batch at next[turn] on lane turn, then turn advances. Not a heap or a
// timestamp merge on purpose — rotation depends only on stream contents, so
// every correct node converges on the same interleaving.
type laneMerge struct {
	lanes int
	// next is the per-lane delivery cursor: the lane sequence number the
	// merge consumes next. Cursors are durable via wal.KindMerged records.
	next []types.SeqNum
	// turn is the lane the round-robin waits on.
	turn int
	// buf holds delivered-but-unmerged batches per lane, keyed by sequence.
	buf []map[types.SeqNum]pbft.Batch
	// buffered counts batches across buf: non-zero means the merge is
	// stalled waiting on lane turn.
	buffered int
}

func newLaneMerge(lanes int) *laneMerge {
	m := &laneMerge{
		lanes: lanes,
		next:  make([]types.SeqNum, lanes),
		buf:   make([]map[types.SeqNum]pbft.Batch, lanes),
	}
	for i := 0; i < lanes; i++ {
		m.next[i] = 1
		m.buf[i] = make(map[types.SeqNum]pbft.Batch)
	}
	return m
}

// push buffers a lane's delivered batch b and returns the batches the
// round-robin releases as a result, in execution order. Batches below the
// lane's cursor are redeliveries of already-merged sequences (fetch catch-up
// after a restart) and are discarded.
func (m *laneMerge) push(b pbft.Batch) []pbft.Batch {
	if b.Seq < m.next[b.Instance] {
		return nil
	}
	if _, dup := m.buf[b.Instance][b.Seq]; dup {
		return nil
	}
	m.buf[b.Instance][b.Seq] = b
	m.buffered++
	var out []pbft.Batch
	for {
		b, ok := m.buf[m.turn][m.next[m.turn]]
		if !ok {
			return out
		}
		out = append(out, b)
		delete(m.buf[m.turn], m.next[m.turn])
		m.buffered--
		m.next[m.turn]++
		m.turn = (m.turn + 1) % m.lanes
	}
}

// stalled returns the lane the merge is waiting on. It only reports a stall
// when batches are buffered: an all-idle merge blocks nothing.
func (m *laneMerge) stalled() (types.InstanceID, bool) {
	if m.buffered == 0 {
		return 0, false
	}
	return types.InstanceID(m.turn), true
}

// restoreCursor replays one wal.KindMerged record: the merge had consumed
// lane's batch at seq before the crash, so the cursor resumes above it.
func (m *laneMerge) restoreCursor(lane types.InstanceID, seq types.SeqNum) {
	m.next[lane] = max(m.next[lane], seq+1)
}

// finishRestore completes a replay: cursors are clamped up to each lane's
// stable-checkpoint horizon, and the round-robin turn is re-derived.
//
// The clamp covers the lane-ran-ahead crash: a lane can stabilize a
// checkpoint above sequences the merge had not consumed yet (it was waiting
// on another lane). After the restart those batches are below the stable
// horizon — never redelivered locally and beyond fetch — so waiting on them
// would stall the merge forever. Skipping them is the same locally-
// unrecoverable degradation as master-only's body-less execution skip: the
// affected requests are re-ordered at a fresh sequence once their clients
// retransmit, and full state transfer (ROADMAP) is the complete fix.
//
// Turn derivation: strict rotation means consumed counts per lane differ by
// at most one, lower-indexed lanes first — so the next lane to consume is
// the first lane whose cursor is minimal.
func (m *laneMerge) finishRestore(stable []types.SeqNum) {
	for i := range m.next {
		m.next[i] = max(m.next[i], stable[i]+1)
	}
	m.turn = 0
	for i, c := range m.next {
		if c < m.next[m.turn] {
			m.turn = i
		}
	}
}

// multiPrimary reports whether the node runs multi-primary ordering.
func (n *Node) multiPrimary() bool { return n.cfg.OrderingMode == types.OrderingMultiPrimary }

// lanes returns the replicas a request of client c goes to, and which hold
// its ref: its partition's lane in multi-primary mode, all of them otherwise.
func (n *Node) lanes(c types.ClientID) (first, last int) {
	if n.multiPrimary() {
		lane := int(types.PartitionOf(c, len(n.replicas)))
		return lane, lane
	}
	return 0, len(n.replicas) - 1
}

// updateFiller arms (or disarms) the filler deadline: when the merge is
// stalled on a lane whose primary this node hosts, the node proposes an
// empty batch for that lane after one batch-timeout of continued stall.
// The deadline paces fillers so an imbalanced partition does not flood the
// lane with empty consensus rounds.
func (n *Node) updateFiller(now time.Time) {
	if !n.multiPrimary() {
		return
	}
	lane, ok := n.merge.stalled()
	if !ok || !n.replicas[lane].IsPrimary() {
		n.fillerAt = time.Time{}
		return
	}
	if n.fillerAt.IsZero() {
		n.fillerAt = now.Add(n.fillerDelay)
	}
}

// tickFiller fires a due filler deadline.
func (n *Node) tickFiller(out *Output, now time.Time) {
	if n.fillerAt.IsZero() || now.Before(n.fillerAt) {
		return
	}
	n.fillerAt = time.Time{}
	if lane, ok := n.merge.stalled(); ok {
		n.absorb(out, lane, n.replicas[lane].ProposeFiller(now), now)
	}
	n.updateFiller(now)
}
