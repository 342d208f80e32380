// Package sim is a deterministic discrete-event simulator that runs the real
// RBFT node, replica and client state machines in virtual time over a
// modelled cluster: per-node CPU queues (one per protocol-instance replica
// plus one for the node modules, mirroring the paper's thread/process/core
// layout), per-peer network links (mirroring the paper's one-NIC-per-peer
// cabling), and a crypto/execution cost model.
//
// The paper's evaluation ran on a Gigabit cluster of 8-core Xeons; this
// simulator substitutes for that testbed. Because the protocol logic under
// simulation is the same code that runs over live TCP (internal/runtime),
// the simulator reproduces protocol behaviour exactly and performance
// behaviour to the fidelity of the cost model below.
package sim

import (
	"time"

	"rbft/internal/message"
)

// CostModel holds the CPU and network cost constants. Durations are per
// operation; the defaults are calibrated so the fault-free RBFT curves land
// near the paper's reported peaks (~35 kreq/s at 8 B requests, ~5 kreq/s at
// 4 kB, f=1).
type CostModel struct {
	// MACGen and MACVerify are per-MAC HMAC costs.
	MACGen    time.Duration
	MACVerify time.Duration
	// SigSign and SigVerify are per-signature costs (an order of magnitude
	// above MACs, per the paper).
	SigSign   time.Duration
	SigVerify time.Duration
	// HashPerKB is the digest cost per kilobyte of payload.
	HashPerKB time.Duration
	// BaseProcess is the fixed per-message handling overhead.
	BaseProcess time.Duration
	// PerRefProcess is the ordering bookkeeping cost per request reference
	// inside a batch.
	PerRefProcess time.Duration
	// ExecPerRequest is the application execution cost per request.
	ExecPerRequest time.Duration
	// ExecPerKB is the additional execution cost per kilobyte of operation.
	ExecPerKB time.Duration

	// LinkLatency is the one-way propagation delay of every link.
	LinkLatency time.Duration
	// LinkBandwidth is per-link bandwidth in bytes/second (each node pair
	// has its own NICs and cable, per the paper's architecture).
	LinkBandwidth float64
	// TCPExtraLatency is added to every message delivery when the transport
	// is TCP, modelling acknowledgement and flow-control overhead; the
	// paper measured UDP latency 18-22% below TCP.
	TCPExtraLatency time.Duration
	// PacketOverheadBytes is the fixed wire overhead of one physical frame
	// (Ethernet + IP + TCP/UDP headers plus the length prefix, ~66 bytes on
	// an Ethernet TCP path). Every frame on a link pays it once, however
	// many protocol payloads the frame coalesces — this is the per-packet
	// cost that Config.EgressCoalesce amortises. Zero (the default) models
	// header-free framing; docs/EGRESS.md says why it is not yet 66.
	PacketOverheadBytes int

	// FsyncLatency is the device latency of one fsync — the dominant cost
	// of making a WAL batch durable. Zero (the default) models an
	// infinitely fast disk; the durability scenarios set it explicitly.
	FsyncLatency time.Duration
	// DiskBandwidth is the sequential write bandwidth of the WAL device in
	// bytes/second (zero means the write itself is free and only
	// FsyncLatency is charged).
	DiskBandwidth float64

	// OrderedPayloadBytes models the ablation where protocol instances
	// order whole requests instead of request identifiers (§VI-B: RBFT's
	// 4kB peak drops from 5 to 1.8 kreq/s). Each PRE-PREPARE is charged
	// this many extra bytes per batched request, on the wire and in MAC
	// computation. Zero (the default) is the paper's identifier-ordering
	// design.
	OrderedPayloadBytes int
}

// DefaultCostModel returns constants calibrated against the paper's
// fault-free numbers.
func DefaultCostModel() CostModel {
	return CostModel{
		MACGen:          500 * time.Nanosecond,
		MACVerify:       500 * time.Nanosecond,
		SigSign:         20 * time.Microsecond,
		SigVerify:       20 * time.Microsecond,
		HashPerKB:       5 * time.Microsecond,
		BaseProcess:     1 * time.Microsecond,
		PerRefProcess:   300 * time.Nanosecond,
		ExecPerRequest:  500 * time.Nanosecond,
		ExecPerKB:       200 * time.Nanosecond,
		LinkLatency:     60 * time.Microsecond,
		LinkBandwidth:   125e6, // 1 Gbit/s
		TCPExtraLatency: 90 * time.Microsecond,
	}
}

// Hash returns the digest/MAC cost over size bytes of payload.
func (c CostModel) Hash(size int) time.Duration {
	return time.Duration(float64(c.HashPerKB) * float64(size) / 1024)
}

// orderedPayloadCostFactor scales the CPU charged per ordered-payload byte:
// a full request travelling inside the ordering messages is MACed, copied
// and digested at several hops (the same multi-hop handling that caps
// Aardvark, which orders full requests, at 1.7 kreq/s for 4kB requests).
const orderedPayloadCostFactor = 6

// wireSize returns the modelled wire size of a message, including the
// ordered-payload ablation bytes for PRE-PREPAREs.
func (c CostModel) wireSize(msg message.Message) int {
	size := msg.EncodedSize()
	if pp, ok := msg.(*message.PrePrepare); ok {
		size += len(pp.Batch) * c.OrderedPayloadBytes
	}
	return size
}

// Serialization returns the wire transmission time for size bytes.
func (c CostModel) Serialization(size int) time.Duration {
	if c.LinkBandwidth <= 0 {
		return 0
	}
	return time.Duration(float64(size) / c.LinkBandwidth * float64(time.Second))
}

// PacketCost returns the wire transmission time of one physical frame
// carrying payloadBytes of protocol payload: the payload's serialization
// plus the per-packet overhead. Coalescing k payloads into one frame pays
// PacketOverheadBytes once instead of k times, which is exactly the saving
// the egress batch writer buys (docs/EGRESS.md).
func (c CostModel) PacketCost(payloadBytes int) time.Duration {
	return c.Serialization(payloadBytes + c.PacketOverheadBytes)
}

// inCost models the CPU cost of receiving and verifying msg at a node. It
// is by construction the sum of the two pipeline stages, so the serial
// (VerifyCores=0) and pipelined charging models account the same total CPU
// per message. sigChecked reports whether preverifying msg verified its
// client signature: the node's VerifyCache had no verdict for it.
func (c CostModel) inCost(msg message.Message, sigChecked bool) time.Duration {
	return c.preverifyCost(msg, sigChecked) + c.applyCost(msg)
}

// preverifyCost models the stateless verification stage: MAC/authenticator
// checks, payload digests and signature verification. This is the portion
// the pipelined model charges on the parallel verify cores.
func (c CostModel) preverifyCost(msg message.Message, sigChecked bool) time.Duration {
	var cost time.Duration
	// Replies are consumed by clients, which the cost model charges on the
	// outbound side only.
	//rbft:dispatch ignore=Reply
	switch m := msg.(type) {
	case *message.Request:
		cost += c.MACVerify + c.Hash(len(m.Op))
		if sigChecked {
			cost += c.SigVerify
		}
	case *message.Propagate:
		cost += c.MACVerify + c.Hash(len(m.Req.Op))
		if sigChecked {
			cost += c.SigVerify
		}
	case *message.PrePrepare:
		cost += c.MACVerify + c.Hash(orderedPayloadCostFactor*len(m.Batch)*c.OrderedPayloadBytes)
	case *message.Prepare, *message.Commit, *message.Checkpoint, *message.InstanceChange, *message.Fetch, *message.FetchResp:
		cost += c.MACVerify
	case *message.ViewChange:
		cost += c.SigVerify
	case *message.NewView:
		cost += c.MACVerify + time.Duration(len(m.ViewChanges))*c.SigVerify
	case *message.Invalid:
		cost += c.MACVerify // verification fails, but the attempt costs CPU
	}
	return cost
}

// applyCost models the deterministic apply stage: fixed handling overhead
// plus per-reference ordering bookkeeping. Charged on the node-module or
// instance core the message routes to.
func (c CostModel) applyCost(msg message.Message) time.Duration {
	cost := c.BaseProcess
	// Only batch-carrying messages have per-reference apply work — plus
	// read-only requests, which the speculative fast path executes against
	// local state right at apply time.
	//rbft:dispatch ignore=Propagate,Prepare,Commit,Checkpoint,InstanceChange,Fetch,ViewChange,NewView,Invalid,Reply
	switch m := msg.(type) {
	case *message.Request:
		if m.ReadOnly {
			cost += c.execCost(len(m.Op))
		}
	case *message.PrePrepare:
		cost += time.Duration(len(m.Batch)) * c.PerRefProcess
	case *message.FetchResp:
		cost += time.Duration(len(m.Batch)) * c.PerRefProcess
	}
	return cost
}

// outCost models the CPU cost of authenticating an outbound message for n
// cluster nodes.
func (c CostModel) outCost(msg message.Message, n int) time.Duration {
	// Correct nodes never emit Invalid; attack injection charges it zero.
	//rbft:dispatch ignore=Invalid
	switch m := msg.(type) {
	case *message.Request:
		return c.SigSign + time.Duration(n)*c.MACGen
	case *message.Propagate:
		// One MAC per recipient over the full request body.
		return time.Duration(n) * (c.MACGen + c.Hash(len(m.Req.Op)))
	case *message.PrePrepare:
		return time.Duration(n)*c.MACGen + time.Duration(len(m.Batch))*c.PerRefProcess +
			time.Duration(n)*c.Hash(orderedPayloadCostFactor*len(m.Batch)*c.OrderedPayloadBytes)
	case *message.Prepare, *message.Commit, *message.Checkpoint, *message.InstanceChange, *message.Fetch, *message.NewView:
		return time.Duration(n) * c.MACGen
	case *message.FetchResp:
		return time.Duration(n)*c.MACGen + time.Duration(len(m.Batch))*c.PerRefProcess
	case *message.ViewChange:
		return c.SigSign
	case *message.Reply:
		return c.MACGen
	default:
		return 0
	}
}

// DiskWrite returns the time to persist size bytes durably: a sequential
// write at DiskBandwidth followed by one fsync.
func (c CostModel) DiskWrite(size int) time.Duration {
	d := c.FsyncLatency
	if c.DiskBandwidth > 0 {
		d += time.Duration(float64(size) / c.DiskBandwidth * float64(time.Second))
	}
	return d
}

// execCost models executing one request of the given operation size.
func (c CostModel) execCost(opSize int) time.Duration {
	return c.ExecPerRequest + time.Duration(float64(c.ExecPerKB)*float64(opSize)/1024)
}
