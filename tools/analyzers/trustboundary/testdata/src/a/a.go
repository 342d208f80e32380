// Package a exercises the trustboundary analyzer: decoded-but-unverified
// message data flowing into guarded state, WAL records, and Output, plus
// forged Verified certificates; and the verified idioms that must stay
// silent.
package a

import (
	"rbft/tools/analyzers/trustboundary/testdata/src/core"
	"rbft/tools/analyzers/trustboundary/testdata/src/message"
	"rbft/tools/analyzers/trustboundary/testdata/src/wal"
)

// node mirrors a runtime wrapper: lastSeq is trusted protocol state.
type node struct {
	mu      chan struct{}
	lastSeq uint64 // guarded by mu; highest applied sequence
	scratch uint64 // not guarded: free to take anything
}

// ---- guarded-field sink ----

// applyUnverified decodes and writes straight into guarded state.
func (n *node) applyUnverified(raw []byte) {
	msg, err := message.Decode(raw)
	if err != nil {
		return
	}
	n.lastSeq = msg.Seq // want `unverified message data assigned to guarded field lastSeq`
}

// applyVerified passes the preverifier first: the verified result is clean.
func (n *node) applyVerified(p *message.Preverifier, raw []byte, from int) {
	v, err := p.PreverifyNodeFrame(raw, from)
	if err != nil {
		return
	}
	n.lastSeq = v.Msg.Seq // verified: silent
}

// applyParameter takes an already-decoded message from its caller: the
// function boundary is the contract, parameters are clean.
func (n *node) applyParameter(msg *message.Message) {
	n.lastSeq = msg.Seq // silent
}

// scratchIsFree writes unverified data into an unguarded field.
func (n *node) scratchIsFree(raw []byte) {
	msg, _ := message.Decode(raw)
	n.scratch = msg.Seq // unguarded: silent
}

// ---- WAL sinks ----

// logUnverified builds a durable record from a decoded payload.
func logUnverified(l *wal.Log, raw []byte) {
	msg, _ := message.Decode(raw)
	rec := wal.Record{Kind: 1, Payload: msg.Payload} // want `unverified message data in wal\.Record`
	_, _ = l.Append(rec) // want `unverified message data appended to the WAL`
}

// appendUnverifiedCopy launders the taint through a copy before Append.
func appendUnverifiedCopy(l *wal.Log, raw []byte) {
	msg, _ := message.Decode(raw)
	payload := msg.Payload
	rec := makeRecord(payload)
	_, _ = l.Append(rec)
	_, _ = l.Append(wal.Record{Payload: payload}) // want `unverified message data in wal\.Record` `unverified message data appended to the WAL`
}

// makeRecord is a helper; its caller's flow is what gets analyzed.
func makeRecord(payload []byte) wal.Record { return wal.Record{Payload: payload} }

// logVerified goes through the preverifier before the WAL.
func logVerified(l *wal.Log, p *message.Preverifier, raw []byte, from int) {
	v, err := p.PreverifyNodeFrame(raw, from)
	if err != nil {
		return
	}
	_, _ = l.Append(wal.Record{Kind: 1, Payload: v.Msg.Payload}) // silent
}

// ---- Output sinks ----

// emitUnverified copies decoded bytes into an Output literal.
func emitUnverified(raw []byte) core.Output {
	msg, _ := message.Decode(raw)
	return core.Output{Messages: [][]byte{msg.Payload}} // want `unverified message data in Output`
}

// emitFieldWrite writes a tainted value into an Output field.
func emitFieldWrite(raw []byte) core.Output {
	var out core.Output
	msg, _ := message.Decode(raw)
	out.Commit = msg.Seq // want `unverified message data written into Output field Commit`
	return out
}

// emitClean builds Output from caller-supplied (already verified) input.
func emitClean(v *message.Verified) core.Output {
	return core.Output{Commit: v.Msg.Seq, Messages: [][]byte{v.Msg.Payload}} // silent
}

// ---- forged certificates ----

// forgeVerified hand-constructs the preverifier's certificate.
func forgeVerified(msg *message.Message, from int) *message.Verified {
	return &message.Verified{Msg: msg, From: from} // want `message\.Verified constructed outside the message package`
}

// suppressedForge is an acknowledged exception (a test double).
func suppressedForge(msg *message.Message) *message.Verified {
	//rbft:ignore trustboundary -- fixture: fault-injection double
	return &message.Verified{Msg: msg}
}
