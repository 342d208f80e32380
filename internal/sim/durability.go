package sim

import (
	"fmt"
	"time"

	"rbft/internal/core"
	"rbft/internal/message"
	"rbft/internal/obs"
	"rbft/internal/types"
	"rbft/internal/wal"
)

// DurabilityMode selects how the simulator models the WAL that
// internal/runtime drives for real: not at all, one fsync per output, or
// interval-batched group commit.
type DurabilityMode int

const (
	// DurabilityNone disables durability: nodes log nothing and crashes
	// cannot be recovered from (the paper's in-memory configuration).
	DurabilityNone DurabilityMode = iota
	// DurabilitySerialFsync persists each records-bearing output with its
	// own write+fsync before the output's messages are released. Simple and
	// safe, but the disk serializes the whole node pipeline.
	DurabilitySerialFsync
	// DurabilityGroupCommit batches appended records and fsyncs the batch
	// once per wal.FlushInterval; every output in the batch is released
	// together when the shared fsync completes, amortising the device
	// latency across all of them (the internal/wal design).
	DurabilityGroupCommit
)

// Crash schedules one deterministic node crash: at At the node loses every
// non-durable structure, and after Down it restarts, recovering from its
// durable WAL image. With DurabilityNone the node restarts empty-handed.
type Crash struct {
	Node types.NodeID
	At   time.Time
	Down time.Duration
}

// persistThenEmit releases an output's network effects, first persisting its
// durability records according to the configured mode. This is the simulated
// counterpart of the runtime's append + WaitDurable before transmission:
// messages never precede their records onto the wire.
func (s *Sim) persistThenEmit(sn *simNode, out core.Output) {
	if s.cfg.Durability == DurabilityNone || len(out.Records) == 0 {
		s.emitOutputs(sn, out)
		return
	}
	data := wal.EncodeRecords(nil, out.Records)
	switch s.cfg.Durability {
	case DurabilitySerialFsync:
		// A dedicated write+fsync per output, serialized on the one device.
		appendedAt := s.now
		doneAt := s.diskReserve(sn, len(data))
		ep := sn.epoch
		s.schedule(doneAt, func() {
			if sn.epoch != ep {
				return // crashed mid-fsync: neither durable nor sent
			}
			sn.durable = append(sn.durable, data...)
			s.emitWALSpans(sn, out, appendedAt)
			s.emitOutputs(sn, out)
		})
	case DurabilityGroupCommit:
		sn.pendingFlush = append(sn.pendingFlush, data...)
		sn.flushWaiters = append(sn.flushWaiters, flushWaiter{at: s.now, out: out})
		if !sn.flushArmed {
			sn.flushArmed = true
			ep := sn.epoch
			s.schedule(s.now.Add(wal.FlushInterval), func() {
				if sn.epoch != ep {
					return
				}
				s.flushGroupCommit(sn)
			})
		}
	}
}

// flushGroupCommit steals the pending batch, charges one shared write+fsync
// for it, and releases every waiting output when the fsync lands.
func (s *Sim) flushGroupCommit(sn *simNode) {
	sn.flushArmed = false
	data := sn.pendingFlush
	waiters := sn.flushWaiters
	sn.pendingFlush = nil
	sn.flushWaiters = nil
	if len(data) == 0 {
		return
	}
	doneAt := s.diskReserve(sn, len(data))
	ep := sn.epoch
	s.schedule(doneAt, func() {
		if sn.epoch != ep {
			return // the un-fsynced batch died with the node
		}
		sn.durable = append(sn.durable, data...)
		for _, w := range waiters {
			s.emitWALSpans(sn, w.out, w.at)
			s.emitOutputs(sn, w.out)
		}
	})
}

// emitWALSpans emits a wal-durable span per reply an output releases: the
// wait from the output's WAL append to the fsync that made it durable (the
// log-before-send delay on the reply path).
func (s *Sim) emitWALSpans(sn *simNode, out core.Output, appendedAt time.Time) {
	if !s.spans {
		return
	}
	for _, cm := range out.ClientMsgs {
		rep, ok := cm.Msg.(*message.Reply)
		if !ok {
			continue
		}
		sn.trace.Trace(obs.Event{
			At: s.now, Type: obs.EvSpan, Stage: obs.StageWALDurable,
			Client: rep.Client, Req: rep.ID, Dur: s.now.Sub(appendedAt),
		})
	}
}

// diskReserve books size bytes of WAL write on the node's single device and
// returns the completion time.
func (s *Sim) diskReserve(sn *simNode, size int) time.Time {
	start := s.now
	if sn.diskBusyUntil.After(start) {
		start = sn.diskBusyUntil
	}
	doneAt := start.Add(s.cfg.Cost.DiskWrite(size))
	sn.diskBusyUntil = doneAt
	return doneAt
}

// crashNode kills a node: everything except the durable WAL image vanishes.
// Scheduled completions of in-flight work are invalidated by the epoch bump.
func (s *Sim) crashNode(id types.NodeID) {
	sn := s.nodes[id]
	if sn.crashed {
		return
	}
	sn.crashed = true
	sn.epoch++
	clear(sn.queues)
	clear(sn.verify)
	clear(sn.reorder)
	clear(sn.closed)
	sn.ingressSeq, sn.nextApply, sn.timerAt = 0, 0, time.Time{}
	// The un-fsynced group-commit batch is exactly what a real power cut
	// loses; the waiting outputs were never transmitted, so losing them
	// together keeps the node consistent.
	sn.pendingFlush, sn.flushWaiters, sn.flushArmed, sn.diskBusyUntil = nil, nil, false, time.Time{}
	// Payloads parked on a busy link are the node's in-memory egress queues;
	// they die with the host. Frames already on the wire (delivery events
	// scheduled) stay in flight. Scheduled link flushes are invalidated by
	// the epoch bump.
	for i := range sn.peerTx {
		sn.peerTx[i].pending = nil
	}
	if sn.trace.Enabled() {
		sn.trace.Trace(obs.Event{At: s.now, Type: obs.EvNodeCrash})
	}
}

// restartNode rebuilds a crashed node from scratch and replays its durable
// WAL image into it, then rejoins it to the cluster.
func (s *Sim) restartNode(id types.NodeID) {
	sn := s.nodes[id]
	if !sn.crashed {
		return
	}
	node := s.newCoreNode(id)
	recs, clean, err := wal.DecodeRecords(sn.durable)
	if err != nil || clean != len(sn.durable) {
		// The simulator wrote these bytes itself; any mismatch is a bug,
		// and failing loudly beats silently diverging state machines.
		panic(fmt.Sprintf("sim: node %d durable log corrupt on restart: clean %d/%d bytes, err=%v",
			id, clean, len(sn.durable), err))
	}
	if _, err := node.Restore(func(fn func(wal.Record) error) error {
		for _, r := range recs {
			if err := fn(r); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		panic(fmt.Sprintf("sim: node %d recovery failed: %v", id, err))
	}
	sn.node = node
	sn.crashed = false
	if sn.trace.Enabled() {
		sn.trace.Trace(obs.Event{At: s.now, Type: obs.EvNodeRestart, Count: len(recs)})
	}
	s.armNodeTimer(sn)
}
