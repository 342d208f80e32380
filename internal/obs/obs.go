// Package obs is the observability layer: a typed protocol event trace and
// a metrics registry, both injectable into the pure state machines (core,
// pbft, monitor) and the drivers (sim, runtime, transports).
//
// The package is deliberately dependency-light (it imports only the types
// vocabulary) so every layer can emit into it without import cycles, and it
// is part of the simdeterminism analyzer's scope: nothing here reads the
// wall clock, spawns goroutines, or iterates maps in emission order — the
// sim's JSONL traces must stay byte-identical across same-seed runs.
//
// The default Tracer is Nop, and every emission site guards with
// Enabled(), so an uninstrumented node pays one interface call per
// potential event at most.
package obs

import (
	"encoding/binary"
	"fmt"
	"time"

	"rbft/internal/types"
)

// EventType enumerates the protocol events the trace can carry.
type EventType uint8

// Protocol event kinds. The comment after each name is the JSONL wire name.
const (
	// EvRequestReceived: a client REQUEST passed MAC verification at a node.
	EvRequestReceived EventType = iota + 1 // request-received
	// EvRequestDispatched: the node collected f+1 PROPAGATEs and handed the
	// request to its local replicas.
	EvRequestDispatched // request-dispatched
	// EvPrePrepare: an instance primary proposed a batch.
	EvPrePrepare // pre-prepare
	// EvPrepare: an instance replica reached the prepared state for a batch.
	EvPrepare // prepared
	// EvCommit: an instance replica reached the committed state for a batch.
	EvCommit // committed
	// EvOrdered: an instance delivered a batch to the node (Count refs).
	EvOrdered // ordered
	// EvExecuted: the master-ordered request executed on the application.
	EvExecuted // executed
	// EvMonitorSample: a periodic sample of per-instance throughput (Values).
	EvMonitorSample // monitor-sample
	// EvVerdict: the monitor evaluated a Δ/Λ/Ω test. Reason carries the
	// outcome ("none" for a passing Δ period); Value carries the measured
	// ratio (Δ) or latency/gap in seconds (Λ/Ω); Values carries the
	// per-instance throughput snapshot for Δ-period verdicts.
	EvVerdict // verdict
	// EvInstanceChangeStart: this node broadcast INSTANCE-CHANGE for CPI.
	EvInstanceChangeStart // instance-change-start
	// EvInstanceChangeComplete: the 2f+1 quorum was reached; CPI and View
	// carry the post-change values.
	EvInstanceChangeComplete // instance-change-complete
	// EvNICClose: flood defence closed the NIC toward Peer until a deadline.
	EvNICClose // nic-close
	// EvMsgDrop: the driver (sim and runtime alike) dropped a message from
	// Peer.
	EvMsgDrop // msg-drop
	// EvNodeCrash: the node crashed, losing all non-durable state.
	EvNodeCrash // node-crash
	// EvNodeRestart: the node restarted and recovered from its WAL; Count
	// carries the number of replayed records.
	EvNodeRestart // node-restart
	// EvSpan: a request-lifecycle span. Stage names the pipeline stage, Dur
	// its duration; At is the emission time (the span's end under both
	// drivers). Request-scoped spans carry Client/Req (and Trace when the
	// digest is known); instance-scoped spans carry Instance/Seq/View. The
	// order span carries both, joining a request to the batch that ordered
	// it on each instance lane.
	EvSpan // span
	// EvClientEvicted: the bounded client table evicted a client's state
	// (LRU). Client is the evicted client; Count is the table's size after
	// the eviction.
	EvClientEvicted // client-evicted
)

// String returns the stable wire name used in JSONL traces.
func (t EventType) String() string {
	switch t {
	case EvRequestReceived:
		return "request-received"
	case EvRequestDispatched:
		return "request-dispatched"
	case EvPrePrepare:
		return "pre-prepare"
	case EvPrepare:
		return "prepared"
	case EvCommit:
		return "committed"
	case EvOrdered:
		return "ordered"
	case EvExecuted:
		return "executed"
	case EvMonitorSample:
		return "monitor-sample"
	case EvVerdict:
		return "verdict"
	case EvInstanceChangeStart:
		return "instance-change-start"
	case EvInstanceChangeComplete:
		return "instance-change-complete"
	case EvNICClose:
		return "nic-close"
	case EvMsgDrop:
		return "msg-drop"
	case EvNodeCrash:
		return "node-crash"
	case EvNodeRestart:
		return "node-restart"
	case EvSpan:
		return "span"
	case EvClientEvicted:
		return "client-evicted"
	default:
		return fmt.Sprintf("event(%d)", uint8(t))
	}
}

// ParseEventType maps a wire name back to its EventType.
func ParseEventType(s string) (EventType, bool) {
	for t := EvRequestReceived; t <= EvClientEvicted; t++ {
		if t.String() == s {
			return t, true
		}
	}
	return 0, false
}

// Stage enumerates the request-lifecycle pipeline stages a span can cover.
// The comment after each name is the JSONL wire name.
type Stage uint8

// Pipeline stages, in rough lifecycle order. Ingress through preverify and
// wal-durable through reply are driver-owned (the simulator emits them from
// virtual time, the runtime from the wall clock); propose through order are
// emitted by the protocol cores from the virtual/wall `now` they are driven
// with, once per instance lane.
const (
	// StageIngress: frame arrival to the start of preverification (NIC and
	// verifier-queue wait).
	StageIngress Stage = iota + 1 // ingress
	// StagePreverify: MAC/digest verification of a client request.
	StagePreverify // preverify
	// StagePropose: a primary's batching wait — first enqueue of the batch's
	// requests to PRE-PREPARE emission (includes any throttling delay).
	StagePropose // propose
	// StagePrepareQuorum: PRE-PREPARE acceptance to the prepared state.
	StagePrepareQuorum // prepare-quorum
	// StageCommitQuorum: prepared to committed (delivery-ready).
	StageCommitQuorum // commit-quorum
	// StageOrder: request dispatch to delivery on one instance lane; carries
	// Client/Req and Instance/Seq, joining a request to its ordering batch.
	StageOrder // order
	// StageWALDurable: execution output to its WAL records being fsynced
	// (log-before-send wait on the reply path).
	StageWALDurable // wal-durable
	// StageExecute: application execution of one request.
	StageExecute // execute
	// StageEgress: reply enqueue to its frame leaving the node.
	StageEgress // egress
	// StageReply: reply transit from node NIC to client (simulator only; a
	// node cannot observe its reply's arrival in a real deployment).
	StageReply // reply
)

// String returns the stable wire name used in JSONL traces.
func (s Stage) String() string {
	switch s {
	case StageIngress:
		return "ingress"
	case StagePreverify:
		return "preverify"
	case StagePropose:
		return "propose"
	case StagePrepareQuorum:
		return "prepare-quorum"
	case StageCommitQuorum:
		return "commit-quorum"
	case StageOrder:
		return "order"
	case StageWALDurable:
		return "wal-durable"
	case StageExecute:
		return "execute"
	case StageEgress:
		return "egress"
	case StageReply:
		return "reply"
	default:
		return fmt.Sprintf("stage(%d)", uint8(s))
	}
}

// ParseStage maps a wire name back to its Stage.
func ParseStage(s string) (Stage, bool) {
	for st := StageIngress; st <= StageReply; st++ {
		if st.String() == s {
			return st, true
		}
	}
	return 0, false
}

// PerInstance reports whether the stage is scoped to one protocol instance
// lane (and its spans therefore carry a meaningful Instance field).
func (s Stage) PerInstance() bool {
	switch s {
	case StagePropose, StagePrepareQuorum, StageCommitQuorum, StageOrder:
		return true
	}
	return false
}

// Stages returns every defined stage, in lifecycle order.
func Stages() []Stage {
	out := make([]Stage, 0, int(StageReply))
	for st := StageIngress; st <= StageReply; st++ {
		out = append(out, st)
	}
	return out
}

// TraceID derives the request trace identifier from its digest: the first
// eight bytes, big-endian. Spans emitted below the layer that knows the
// digest (e.g. the reply path, which only sees client and request id) leave
// it zero and join on (Client, Req) instead.
func TraceID(d types.Digest) uint64 {
	return binary.BigEndian.Uint64(d[:8])
}

// Event is one traced protocol event. Not every field is meaningful for
// every type; docs/OBSERVABILITY.md tabulates the per-type field usage.
// Emitters fill the fields relevant to the event; Node is normally stamped
// by the WithNode wrapper the driver installs.
type Event struct {
	// At is the event time: virtual time under the simulator, wall time
	// under the real-time runtime.
	At   time.Time
	Type EventType

	Node     types.NodeID
	Instance types.InstanceID
	Client   types.ClientID
	// Peer is the remote node for EvNICClose and EvMsgDrop.
	Peer types.NodeID
	Req  types.RequestID
	Seq  types.SeqNum
	View types.View
	CPI  uint64
	// Count carries a cardinality: batch size for EvPrePrepare/EvOrdered.
	Count int
	// Reason is a monitor.Reason or instance-change reason wire string.
	Reason string
	// Value is the measured quantity of a verdict (ratio, or seconds).
	Value float64
	// Values is a per-instance series (throughput snapshot). Emitters must
	// pass a private copy; sinks may retain it.
	Values []float64
	// Stage and Dur carry the pipeline stage and span duration of an EvSpan.
	Stage Stage
	Dur   time.Duration
	// Trace is the request trace ID (TraceID of the request digest), set on
	// spans emitted by layers that know the digest; zero otherwise.
	Trace uint64
}

// Tracer consumes protocol events. Implementations must be safe for
// concurrent use when driven by the real-time runtime; the simulator is
// single-threaded. Trace must not mutate the event's Values slice.
type Tracer interface {
	// Enabled reports whether events will be consumed; emitters use it to
	// skip event construction entirely on the no-op path.
	Enabled() bool
	Trace(Event)
}

// Nop is the default tracer: disabled, zero cost.
type Nop struct{}

// Enabled implements Tracer.
func (Nop) Enabled() bool { return false }

// Trace implements Tracer.
func (Nop) Trace(Event) {}

// OrNop returns t, or Nop if t is nil, so holders never nil-check.
func OrNop(t Tracer) Tracer {
	if t == nil {
		return Nop{}
	}
	return t
}

// nodeTracer stamps a fixed node identity onto every event.
type nodeTracer struct {
	t    Tracer
	node types.NodeID
}

// WithNode wraps t so every traced event carries the node identity. A nil
// or disabled t collapses to Nop, keeping the fast path free.
func WithNode(t Tracer, node types.NodeID) Tracer {
	if t == nil || !t.Enabled() {
		return Nop{}
	}
	return nodeTracer{t: t, node: node}
}

func (nt nodeTracer) Enabled() bool { return true }

func (nt nodeTracer) Trace(ev Event) {
	ev.Node = nt.node
	nt.t.Trace(ev)
}

// WantSpans implements SpanSink by delegating to the wrapped tracer.
func (nt nodeTracer) WantSpans() bool { return WantSpans(nt.t) }

// multi fans one event out to several sinks, in fixed order.
type multi []Tracer

// Multi combines tracers into one; nil and disabled entries are elided, and
// degenerate combinations collapse (no sinks → Nop, one sink → itself).
func Multi(ts ...Tracer) Tracer {
	live := make([]Tracer, 0, len(ts))
	for _, t := range ts {
		if t != nil && t.Enabled() {
			live = append(live, t)
		}
	}
	switch len(live) {
	case 0:
		return Nop{}
	case 1:
		return live[0]
	}
	return multi(live)
}

func (m multi) Enabled() bool { return true }

func (m multi) Trace(ev Event) {
	for _, t := range m {
		t.Trace(ev)
	}
}

// WantSpans implements SpanSink: a fan-out wants spans if any member does.
func (m multi) WantSpans() bool {
	for _, t := range m {
		if WantSpans(t) {
			return true
		}
	}
	return false
}

// SpanSink is an optional Tracer refinement: a sink that does not consume
// EvSpan events (e.g. an aggregator that only folds protocol events into
// scalar metrics) can return false so emitters skip span construction
// entirely. Tracers that do not implement it are assumed to want spans.
type SpanSink interface {
	// WantSpans reports whether EvSpan events should be delivered.
	WantSpans() bool
}

// WantSpans reports whether t consumes span events: false for nil or
// disabled tracers and for sinks opting out via SpanSink, true otherwise.
// Emitters cache the result alongside their tracer and guard every span
// emission with it, so an untraced or metrics-only run pays nothing for the
// span instrumentation.
func WantSpans(t Tracer) bool {
	if t == nil || !t.Enabled() {
		return false
	}
	if ss, ok := t.(SpanSink); ok {
		return ss.WantSpans()
	}
	return true
}
