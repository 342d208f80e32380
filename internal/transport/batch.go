package transport

import (
	"encoding/binary"
	"fmt"
)

// Batch frames let a sender coalesce several protocol payloads into one wire
// frame, paying the per-frame overhead (length prefix, syscall, datagram)
// once per flush instead of once per message. The format is transport
// independent:
//
//	magic (1 byte) | count (u32) | { len_i (u32) | payload_i } * count
//
// Protocol payloads always begin with a message-type byte (small values:
// 1-33), and tcpnet handshake frames begin with an endpoint-name character,
// so BatchMagic can never collide with a non-batch frame's first byte. A
// receiving transport splits batch frames back into individual Packets
// before delivery, so everything above the transport still sees one protocol
// payload per Packet.
const BatchMagic = 0xBF

// batchHeaderSize is the fixed prefix of a batch frame (magic + count).
const batchHeaderSize = 1 + 4

// MaxBatchPayloads bounds the payload count of one batch frame; a malformed
// count field cannot trigger a huge allocation or iteration.
const MaxBatchPayloads = 1 << 16

// Batch framing errors.
var (
	ErrNotBatch     = fmt.Errorf("transport: not a batch frame")
	ErrCorruptBatch = fmt.Errorf("transport: corrupt batch frame")
)

// IsBatch reports whether frame is a coalesced batch frame.
func IsBatch(frame []byte) bool {
	return len(frame) >= batchHeaderSize && frame[0] == BatchMagic
}

// BatchSize returns the encoded size of a batch frame holding payloads of
// the given total byte length and count.
func BatchSize(count, totalBytes int) int {
	return batchHeaderSize + 4*count + totalBytes
}

// AppendBatch appends the batch-frame encoding of payloads to dst and
// returns the result.
func AppendBatch(dst []byte, payloads [][]byte) []byte {
	dst = binary.BigEndian.AppendUint32(append(dst, BatchMagic), uint32(len(payloads)))
	for _, p := range payloads {
		dst = append(binary.BigEndian.AppendUint32(dst, uint32(len(p))), p...)
	}
	return dst
}

// SplitBatch decodes a batch frame, invoking fn once per payload in order.
// Payloads are capacity-clipped subslices of frame (no copy): appending to
// one never reaches the next payload's length prefix or bytes. Callers that
// retain them beyond frame's lifetime must copy. A truncated or
// trailing-garbage frame returns ErrCorruptBatch before fn sees any of its
// payloads, so a corrupt frame is dropped whole; a non-batch frame returns
// ErrNotBatch.
func SplitBatch(frame []byte, fn func(payload []byte)) error {
	if err := walkBatch(frame, func([]byte) {}); err != nil {
		return err
	}
	return walkBatch(frame, fn)
}

// walkBatch invokes fn on each payload of frame until it finds the frame
// corrupt.
func walkBatch(frame []byte, fn func(payload []byte)) error {
	if !IsBatch(frame) {
		return ErrNotBatch
	}
	count := binary.BigEndian.Uint32(frame[1:batchHeaderSize])
	if count > MaxBatchPayloads {
		return fmt.Errorf("%w: %d payloads", ErrCorruptBatch, count)
	}
	off := batchHeaderSize
	for i := uint32(0); i < count; i++ {
		if off+4 > len(frame) {
			return fmt.Errorf("%w: truncated length %d/%d", ErrCorruptBatch, i, count)
		}
		n := int(binary.BigEndian.Uint32(frame[off : off+4]))
		off += 4
		if n > MaxFrame || off+n > len(frame) {
			return fmt.Errorf("%w: truncated payload %d/%d", ErrCorruptBatch, i, count)
		}
		fn(frame[off : off+n : off+n])
		off += n
	}
	if off != len(frame) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorruptBatch, len(frame)-off)
	}
	return nil
}

// AppendFrame appends the frame that carries run: its only payload bare, or
// several payloads as one batch frame.
func AppendFrame(dst []byte, run [][]byte) []byte {
	if len(run) == 1 {
		return append(dst, run[0]...)
	}
	return AppendBatch(dst, run)
}

// Coalesce is the SendBatch every transport shares. It sends payloads in
// order, packing consecutive ones greedily into frames of at most limit
// bytes; write sends one frame of size bytes that carries run (AppendFrame).
// A payload that fits beside no neighbour goes out bare, so one large payload
// in a flush costs the others nothing. Coalesced runs are counted in m. A
// payload larger than limit on its own fails with ErrFrameTooBig, and a failed
// write with its error; the frames before it have been sent.
func Coalesce(payloads [][]byte, limit int, m Metrics, write func(run [][]byte, size int) error) error {
	for len(payloads) > 0 {
		n, total := 1, len(payloads[0])
		for n < len(payloads) && BatchSize(n+1, total+len(payloads[n])) <= limit {
			total += len(payloads[n])
			n++
		}
		size := total
		if n > 1 {
			size = BatchSize(n, total)
		}
		if size > limit {
			return ErrFrameTooBig
		}
		if err := write(payloads[:n], size); err != nil {
			return err
		}
		m.BytesOut.Add(uint64(total))
		if n > 1 {
			m.BatchesSent.Inc()
			m.FramesCoalesced.Add(uint64(n))
		}
		payloads = payloads[n:]
	}
	return nil
}
