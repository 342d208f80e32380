package tcpnet

import (
	"encoding/binary"
	"io"

	"rbft/internal/transport"
)

// chunkSize is the read buffer one inbound connection fills per read: as
// much of the stream as the socket holds, up to 64 KiB, in one syscall.
const chunkSize = 64 << 10

// frameReader splits one connection's byte stream into length-prefixed
// frames. It reads into a chunk and hands out capacity-clipped payload
// slices of it, so a burst of small frames costs one read and one
// allocation per chunk, not per frame. Once a payload is out the chunk is
// only ever appended to, never rewritten: a frame that does not fit in what
// is left starts a fresh chunk, carrying its partial bytes over, and the old
// chunk belongs to the payloads that still reference it.
type frameReader struct {
	r   io.Reader
	buf []byte // the current chunk; buf[:off] has been handed out
	off int    // buf[off:end] is read and not yet handed out
	end int
}

// next returns the next frame's payload. A length prefix above
// transport.MaxFrame fails with transport.ErrFrameTooBig before anything
// is allocated for it.
func (fr *frameReader) next() ([]byte, error) {
	if err := fr.fill(4); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(fr.buf[fr.off:])
	if n > transport.MaxFrame {
		return nil, transport.ErrFrameTooBig
	}
	size := 4 + int(n)
	if err := fr.fill(size); err != nil {
		return nil, err
	}
	p := fr.buf[fr.off+4 : fr.off+size : fr.off+size]
	fr.off += size
	return p, nil
}

// fill reads until the chunk holds need unconsumed bytes, first moving them
// to a fresh chunk if the current one has no room for need.
func (fr *frameReader) fill(need int) error {
	if len(fr.buf)-fr.off < need {
		buf := make([]byte, max(chunkSize, need))
		fr.end = copy(buf, fr.buf[fr.off:fr.end])
		fr.buf, fr.off = buf, 0
	}
	for fr.end-fr.off < need {
		m, err := fr.r.Read(fr.buf[fr.end:])
		fr.end += m
		if fr.end-fr.off >= need {
			return nil
		}
		if err == io.EOF && fr.end > fr.off {
			return io.ErrUnexpectedEOF
		}
		if err != nil {
			return err
		}
	}
	return nil
}
