package sim

import (
	"time"

	"rbft/internal/message"
	"rbft/internal/types"
)

// Flood is a message-flooding attack: garbage messages of Size bytes at Rate
// per second per target, starting Start after the run begins (Stop zero
// means until the end of the run).
type Flood struct {
	// From is the attacking node (ignored when FromClients is set).
	From types.NodeID
	// FromClients models faulty clients flooding the nodes' client NICs
	// with unverifiable requests.
	FromClients bool
	// Targets are the victim nodes.
	Targets []types.NodeID
	// Size is the garbage message size ("messages of the maximal size").
	Size int
	// Rate is messages per second per target.
	Rate float64
	// Start and Stop are offsets from the beginning of the run.
	Start, Stop time.Duration
}

// floodFrame encodes a flood's garbage message, once per flood: every copy
// sent is the same immutable frame.
func floodFrame(f Flood) []byte {
	return encode(&message.Invalid{Node: f.From, Padding: make([]byte, f.Size)})
}

func (s *Sim) startFloods() {
	for _, f := range s.cfg.Floods {
		flood := f
		if flood.Rate <= 0 || len(flood.Targets) == 0 {
			continue
		}
		start := s.now.Add(flood.Start)
		var stop time.Time
		if flood.Stop > 0 {
			stop = s.now.Add(flood.Stop)
		}
		garbage := floodFrame(flood)
		for _, target := range flood.Targets {
			t := target
			s.schedule(start, func() { s.floodOnce(flood, garbage, t, stop) })
		}
	}
}

// floodOnce sends one copy of the flood's garbage frame to the target and
// reschedules.
func (s *Sim) floodOnce(f Flood, garbage []byte, target types.NodeID, stop time.Time) {
	if !stop.IsZero() && !s.now.Before(stop) {
		return
	}
	dst := s.nodes[target]

	if f.FromClients {
		// Client-NIC flood: consumes the victim's client NIC inbound
		// bandwidth and MAC-verification CPU; it cannot be attributed to a
		// node, so no NIC closure applies — nor to a client: whichever id the
		// frame claims, it is malformed, which proves nothing about anyone.
		// Its transit is the bare link latency even on a TCP run — unlike
		// every other frame it was never charged TCPExtraLatency, and it
		// stays so because every attack trace is pinned byte for byte.
		arrive := s.book(&dst.clientRx, f.Size, s.cfg.Cost.LinkLatency)
		s.schedule(arrive, func() { s.deliverFromClient(dst, garbage, 0) })
	} else {
		// Node-to-node flood: consumes the attacker's dedicated link to the
		// victim (per-peer NICs isolate other traffic) and the victim's CPU
		// until the flood detector closes the NIC.
		s.sendNodeToNode(s.nodes[f.From], target, garbage, len(garbage))
	}

	next := s.now.Add(time.Duration(float64(time.Second) / f.Rate))
	s.schedule(next, func() { s.floodOnce(f, garbage, target, stop) })
}
