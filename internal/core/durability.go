package core

import (
	"fmt"
	"time"

	"rbft/internal/message"
	"rbft/internal/types"
	"rbft/internal/wal"
)

// Durability at the node level mirrors pbft's (see pbft/durability.go): when
// Config.Durable is set, node-owned transitions that must survive a crash —
// executions and completed instance changes — attach wal.Records to the
// Output, and the driver persists them before transmitting. Replica records
// flow through untouched.

// journal appends rec to out when durability is on.
func (n *Node) journal(out *Output, rec wal.Record) {
	if !n.cfg.Durable {
		return
	}
	out.Records = append(out.Records, rec)
}

// RestoreStats summarises one WAL replay through Restore.
type RestoreStats struct {
	// Records is the total number of records replayed.
	Records int
	// Executed is how many executions were redone against the application.
	Executed int
	// View and CPI are the recovered node-level protocol position.
	View types.View
	CPI  uint64
}

// Restore rebuilds crash-survivable state by replaying a WAL record stream
// (typically (*wal.Log).Replay) into a freshly constructed Node. It must
// run before any live input. Executions are redone against the application
// in their original order, so the app state, the executed set and the
// reply cache come back exactly as they were at the crash; the protocol
// instances recover the promises they must not contradict plus their last
// stable checkpoint, and re-learn everything else through the normal fetch
// machinery.
func (n *Node) Restore(replay func(func(wal.Record) error) error) (RestoreStats, error) {
	var stats RestoreStats
	err := replay(func(rec wal.Record) error {
		stats.Records++
		switch rec.Kind {
		case wal.KindInstanceChange:
			n.cpi = rec.CPI
			n.view = rec.View
		case wal.KindExecuted:
			redone, err := n.restoreExecution(rec)
			if err != nil {
				return err
			}
			if redone {
				stats.Executed++
			}
		case wal.KindMerged:
			if n.merge == nil {
				return fmt.Errorf("core: restore: merged record in master-only mode")
			}
			if int(rec.Instance) >= len(n.replicas) || rec.Instance < 0 {
				return fmt.Errorf("core: restore: merged record for lane %d, node has %d", rec.Instance, len(n.replicas))
			}
			n.merge.restoreCursor(rec.Instance, rec.Seq)
		default:
			if int(rec.Instance) >= len(n.replicas) || rec.Instance < 0 {
				return fmt.Errorf("core: restore: record for instance %d, node has %d", rec.Instance, len(n.replicas))
			}
			n.replicas[rec.Instance].Restore(rec)
		}
		return nil
	})
	if err != nil {
		return stats, err
	}
	for _, r := range n.replicas {
		r.FinishRestore(n.view)
	}
	if n.merge != nil {
		// Clamp merge cursors to each lane's stable-checkpoint horizon
		// (LastDelivered == the replayed stable seq right after
		// FinishRestore): sequences below it are beyond fetch, so the
		// merge must not wait on them. See laneMerge.finishRestore.
		stable := make([]types.SeqNum, len(n.replicas))
		for i, r := range n.replicas {
			stable[i] = r.LastDelivered()
		}
		n.merge.finishRestore(stable)
	}
	stats.View = n.view
	stats.CPI = n.cpi
	return stats, nil
}

// restoreExecution redoes one logged execution. The log carries the full op
// so the application state machine is rebuilt deterministically; the digest
// ties the record back to the exact request that was ordered.
func (n *Node) restoreExecution(rec wal.Record) (bool, error) {
	check := message.Request{Client: rec.Client, ID: rec.Req, Op: rec.Op}
	if check.OpDigest() != rec.Digest {
		return false, fmt.Errorf("%w: executed record digest mismatch for client %d req %d",
			wal.ErrCorrupt, rec.Client, rec.Req)
	}
	// Replay runs before any live input, so the zero time stamps any
	// (traceless) eviction the table performs while rebuilding.
	cs := n.client(rec.Client, time.Time{})
	if cs.isExecuted(rec.Req) {
		return false, nil
	}
	cs.markExecuted(rec.Req)
	result := n.cfg.App.Execute(rec.Client, rec.Req, rec.Op)
	cs.cacheReply(rec.Req, result)
	return true, nil
}
