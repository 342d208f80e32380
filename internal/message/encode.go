package message

import "sync"

// Buf is a pooled encode buffer holding one marshaled frame. The egress hot
// path encodes every outbound message into one of these: steady-state the
// pool hands back a buffer whose capacity already fits the message (the
// EncodedSize hint grows it to the working set's high-water mark), so Encode
// performs zero allocations per message.
//
// A Buf's bytes may be shared read-only across any number of concurrent
// senders. Call Release exactly once, after the last reader is done, since the
// pool hands the bytes to the next Encode — or ReleaseKept, if readers keep them.
type Buf struct {
	b []byte
}

var encodePool = sync.Pool{New: func() interface{} { return new(Buf) }}

// Encode marshals msg into a pooled buffer sized by its EncodedSize hint and
// returns the buffer. The caller owns the buffer until Release.
func Encode(msg Message) *Buf {
	buf := encodePool.Get().(*Buf)
	if n := msg.EncodedSize(); cap(buf.b) < n {
		buf.b = make([]byte, 0, n)
	}
	buf.b = msg.Marshal(buf.b[:0])
	return buf
}

// Bytes returns the encoded frame. Valid until Release.
func (b *Buf) Bytes() []byte { return b.b }

// Len returns the encoded frame length.
func (b *Buf) Len() int { return len(b.b) }

// Release returns the buffer to the pool. The caller must not touch the
// buffer (or any slice obtained from Bytes) afterwards.
func (b *Buf) Release() { encodePool.Put(b) }

// ReleaseKept returns the empty Buf to the pool and leaves its bytes, never
// to be written again, to whoever holds them.
func (b *Buf) ReleaseKept() {
	b.b = nil
	encodePool.Put(b)
}
