// Package wal is the durability subsystem: an append-only, segmented,
// CRC-framed write-ahead log with group commit, plus the typed records the
// protocol layer persists before its actions become externally visible.
//
// The protocol state machines (core, pbft) stay pure: they *describe* what
// must survive a crash by attaching Records to their Outputs, and the
// drivers (runtime, sim) persist those records — and wait for durability —
// before transmitting the messages of the same output. Replaying the log
// through core.Node.Restore rebuilds exactly the state a correct replica
// must remember to avoid equivocating or double-executing after a restart.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"

	"rbft/internal/types"
)

// Kind discriminates WAL record types.
type Kind uint8

// Record kinds. The protocol appends a record *before* the corresponding
// message leaves the node, so a restarted replica knows every promise it
// may already have made to its peers.
const (
	// KindSentPrePrepare: this node's replica, as primary, assigned Seq in
	// View on Instance to the batch whose digest is Digest and sent
	// PRE-PREPARE.
	KindSentPrePrepare Kind = iota + 1
	// KindSentPrepare: the replica sent PREPARE for (View, Seq, Digest).
	KindSentPrepare
	// KindSentCommit: the replica sent COMMIT for (View, Seq, Digest).
	KindSentCommit
	// KindStable: the checkpoint at Seq (digest Digest) gathered a quorum
	// and became stable; everything at or below Seq may be forgotten.
	KindStable
	// KindViewChange: the replica sent VIEW-CHANGE for View.
	KindViewChange
	// KindNewView: the replica installed View (primary sent NEW-VIEW, or a
	// backup accepted one).
	KindNewView
	// KindInstanceChange: the node completed the instance change to CPI,
	// entering View.
	KindInstanceChange
	// KindExecuted: the node executed request (Client, Req) with payload Op
	// on the application and cached the reply. Op is kept so recovery can
	// redo the execution and rebuild application state deterministically.
	// Instance is the ordering lane the executed order came from (0 under
	// master-only ordering).
	KindExecuted
	// KindMerged: under multi-primary ordering, the node's merge scheduler
	// consumed lane Instance's delivered batch at Seq into the execution
	// order. Replay rebuilds the per-lane merge cursors from these.
	KindMerged
)

// String returns a short stable name for logs and tests.
func (k Kind) String() string {
	switch k {
	case KindSentPrePrepare:
		return "sent-pre-prepare"
	case KindSentPrepare:
		return "sent-prepare"
	case KindSentCommit:
		return "sent-commit"
	case KindStable:
		return "stable"
	case KindViewChange:
		return "view-change"
	case KindNewView:
		return "new-view"
	case KindInstanceChange:
		return "instance-change"
	case KindExecuted:
		return "executed"
	case KindMerged:
		return "merged"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Record is one durable protocol fact. Only the fields relevant to Kind are
// encoded; the rest stay zero.
type Record struct {
	Kind     Kind
	Instance types.InstanceID
	View     types.View
	Seq      types.SeqNum
	Digest   types.Digest
	// CPI is the instance-change counter for KindInstanceChange.
	CPI uint64
	// Client, Req, Op identify and carry the request for KindExecuted.
	Client types.ClientID
	Req    types.RequestID
	Op     []byte
}

// Record-codec errors. Decode failures are all wrapped in ErrCorrupt so the
// replay path can distinguish "bad bytes" from I/O failures.
var (
	ErrCorrupt = errors.New("wal: corrupt record")
)

// maxRecordLen bounds a single record frame so a corrupted length prefix
// cannot trigger a giant allocation. It comfortably exceeds the message
// codec's 16 MB field bound.
const maxRecordLen = 64 << 20

// appendRecord encodes rec's payload (no frame) onto b.
func appendRecord(b []byte, rec *Record) []byte {
	b = append(b, byte(rec.Kind))
	switch rec.Kind {
	case KindSentPrePrepare, KindSentPrepare, KindSentCommit, KindStable:
		b = appendU32(b, uint32(rec.Instance))
		b = binary.BigEndian.AppendUint64(b, uint64(rec.View))
		b = binary.BigEndian.AppendUint64(b, uint64(rec.Seq))
		b = append(b, rec.Digest[:]...)
	case KindViewChange, KindNewView:
		b = appendU32(b, uint32(rec.Instance))
		b = binary.BigEndian.AppendUint64(b, uint64(rec.View))
	case KindInstanceChange:
		b = binary.BigEndian.AppendUint64(b, rec.CPI)
		b = binary.BigEndian.AppendUint64(b, uint64(rec.View))
	case KindExecuted:
		b = binary.BigEndian.AppendUint64(b, uint64(rec.Client))
		b = binary.BigEndian.AppendUint64(b, uint64(rec.Req))
		b = append(b, rec.Digest[:]...)
		b = appendU32(b, uint32(len(rec.Op)))
		b = append(b, rec.Op...)
		b = appendU32(b, uint32(rec.Instance))
	case KindMerged:
		b = appendU32(b, uint32(rec.Instance))
		b = binary.BigEndian.AppendUint64(b, uint64(rec.Seq))
	}
	return b
}

func appendU32(b []byte, v uint32) []byte {
	return binary.BigEndian.AppendUint32(b, v)
}

// decodeRecord parses one record payload. It rejects unknown kinds and
// trailing bytes so every accepted record re-encodes to the same payload.
func decodeRecord(data []byte) (Record, error) {
	d := recReader{buf: data}
	var rec Record
	rec.Kind = Kind(d.u8())
	switch rec.Kind {
	case KindSentPrePrepare, KindSentPrepare, KindSentCommit, KindStable:
		rec.Instance = types.InstanceID(d.u32())
		rec.View = types.View(d.u64())
		rec.Seq = types.SeqNum(d.u64())
		rec.Digest = d.digest()
	case KindViewChange, KindNewView:
		rec.Instance = types.InstanceID(d.u32())
		rec.View = types.View(d.u64())
	case KindInstanceChange:
		rec.CPI = d.u64()
		rec.View = types.View(d.u64())
	case KindExecuted:
		rec.Client = types.ClientID(d.u64())
		rec.Req = types.RequestID(d.u64())
		rec.Digest = d.digest()
		rec.Op = d.bytes()
		rec.Instance = types.InstanceID(d.u32())
	case KindMerged:
		rec.Instance = types.InstanceID(d.u32())
		rec.Seq = types.SeqNum(d.u64())
	default:
		return Record{}, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, uint8(rec.Kind))
	}
	if d.err != nil {
		return Record{}, fmt.Errorf("%w: truncated %s payload", ErrCorrupt, rec.Kind)
	}
	if d.off != len(data) {
		return Record{}, fmt.Errorf("%w: %d trailing bytes after %s", ErrCorrupt, len(data)-d.off, rec.Kind)
	}
	return rec, nil
}

// recReader is a latched-error cursor over a record payload, mirroring the
// message codec's reader so malformed input degrades to one error check.
type recReader struct {
	buf []byte
	off int
	err error
}

func (d *recReader) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.buf)-d.off < n {
		d.err = ErrCorrupt
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *recReader) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *recReader) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (d *recReader) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (d *recReader) digest() types.Digest {
	var dg types.Digest
	b := d.take(types.DigestSize)
	if b != nil {
		copy(dg[:], b)
	}
	return dg
}

func (d *recReader) bytes() []byte {
	n := d.u32()
	if d.err != nil {
		return nil
	}
	if n > uint32(len(d.buf)-d.off) {
		d.err = ErrCorrupt
		return nil
	}
	b := d.take(int(n))
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// EncodeRecords frames records for the log: each record is
// [u32 payload length][u32 CRC-32C of payload][payload]. The same framing
// is what the simulator's modelled disk stores, so the codec is exercised
// by both drivers.
func EncodeRecords(b []byte, recs []Record) []byte {
	for i := range recs {
		b = appendFrame(b, &recs[i])
	}
	return b
}

func appendFrame(b []byte, rec *Record) []byte {
	start := len(b)
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0) // length + CRC placeholders
	b = appendRecord(b, rec)
	payload := b[start+8:]
	binary.BigEndian.PutUint32(b[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(b[start+4:], crcOf(payload))
	return b
}

// DecodeRecords parses a framed record stream. It returns every record up
// to the first torn or corrupt frame, the byte offset of the clean prefix,
// and a nil error only if the whole buffer parsed. A truncated tail or a
// CRC mismatch yields the records before it plus an ErrCorrupt-wrapped
// error; callers decide whether that is a torn tail to truncate or hard
// corruption to refuse.
func DecodeRecords(data []byte) (recs []Record, clean int, err error) {
	off := 0
	for off < len(data) {
		rec, n, err := decodeFrame(data[off:])
		if err != nil {
			return recs, off, err
		}
		recs = append(recs, rec)
		off += n
	}
	return recs, off, nil
}

// decodeFrame parses one framed record from the front of data, returning
// the record and the frame's total size.
func decodeFrame(data []byte) (Record, int, error) {
	if len(data) < 8 {
		return Record{}, 0, fmt.Errorf("%w: torn frame header (%d bytes)", ErrCorrupt, len(data))
	}
	n := binary.BigEndian.Uint32(data)
	if n == 0 || n > maxRecordLen {
		return Record{}, 0, fmt.Errorf("%w: frame length %d", ErrCorrupt, n)
	}
	if uint32(len(data)-8) < n {
		return Record{}, 0, fmt.Errorf("%w: torn frame (%d of %d payload bytes)", ErrCorrupt, len(data)-8, n)
	}
	payload := data[8 : 8+n]
	if crcOf(payload) != binary.BigEndian.Uint32(data[4:]) {
		return Record{}, 0, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	rec, err := decodeRecord(payload)
	if err != nil {
		return Record{}, 0, err
	}
	return rec, 8 + int(n), nil
}
