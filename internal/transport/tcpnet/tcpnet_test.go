package tcpnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"rbft/internal/obs"
	"rbft/internal/transport"
)

// listenPair starts endpoints a and b on loopback, each a peer of the other,
// with b's counters resolved from a registry.
func listenPair(t *testing.T) (a, b *Endpoint, bm transport.Metrics) {
	t.Helper()
	a, err := Listen("a", "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err = Listen("b", "127.0.0.1:0", nil)
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	bm = transport.NewMetrics(obs.NewRegistry(), "tcp")
	b.SetMetrics(bm)
	a.AddPeer("b", b.Addr())
	b.AddPeer("a", a.Addr())
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	return a, b, bm
}

// recv waits for the next n packets on e.
func recv(t *testing.T, e *Endpoint, n int) []transport.Packet {
	t.Helper()
	pkts := make([]transport.Packet, 0, n)
	timeout := time.After(5 * time.Second)
	for len(pkts) < n {
		select {
		case p := <-e.Packets():
			pkts = append(pkts, p)
		case <-timeout:
			t.Fatalf("%d packets arrived, want %d", len(pkts), n)
		}
	}
	return pkts
}

// TestLoopbackSendAndSendBatch: single frames and a coalesced batch arrive
// intact and in the order sent. Each payload is the receiver's own: the sender
// reusing its buffers once the call returns changes nothing delivered, and a
// payload split out of a batch is capacity-clipped, so an append to it does not
// reach the next one.
func TestLoopbackSendAndSendBatch(t *testing.T) {
	a, b, _ := listenPair(t)
	first, batch, last := []byte("first"), [][]byte{[]byte("alpha"), {}, []byte("be"), []byte("gamma-delta")}, []byte("last")
	var want [][]byte
	for _, p := range append(append([][]byte{first}, batch...), last) {
		want = append(want, bytes.Clone(p))
	}
	if err := a.Send("b", first); err != nil {
		t.Fatal(err)
	}
	if err := a.SendBatch("b", batch); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b", last); err != nil {
		t.Fatal(err)
	}
	for _, p := range append(append([][]byte{first}, batch...), last) {
		for i := range p {
			p[i] = 'X' // the sender reuses its pooled encode buffers at once
		}
	}

	got := recv(t, b, len(want))
	for i, p := range got {
		if p.From != "a" || !bytes.Equal(p.Data, want[i]) {
			t.Fatalf("packet %d: got %q from %q, want %q from a", i, p.Data, p.From, want[i])
		}
		if cap(p.Data) != len(p.Data) {
			t.Errorf("packet %d: capacity %d past its %d bytes", i, cap(p.Data), len(p.Data))
		}
	}
	_ = append(got[1].Data, bytes.Repeat([]byte{'!'}, 16)...) // batch payload 0: "alpha", then "" and "be" in its buffer
	if !bytes.Equal(got[3].Data, want[3]) {
		t.Fatalf("an append to a batch payload changed a later one to %q", got[3].Data)
	}
}

// TestCorruptBatchFrameDroppedWhole: a batch frame whose payload lengths do not
// add up delivers none of its payloads — not even those before the fault — and
// counts one drop; the connection carries on.
func TestCorruptBatchFrameDroppedWhole(t *testing.T) {
	_, b, bm := listenPair(t)
	conn, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeRawFrame(conn, []byte("c")); err != nil { // handshake: claim to be "c"
		t.Fatal(err)
	}
	valid := transport.AppendBatch(nil, [][]byte{[]byte("ab"), []byte("cde")})
	for _, frame := range [][]byte{
		valid[:len(valid)-1],             // last payload truncated
		append(bytes.Clone(valid), 0xcc), // trailing garbage
		[]byte("after"),                  // a plain frame: the connection still works
		transport.AppendBatch(nil, [][]byte{[]byte("ok")}),
	} {
		if err := writeRawFrame(conn, frame); err != nil {
			t.Fatal(err)
		}
	}
	got := recv(t, b, 2)
	if got[0].From != "c" || string(got[0].Data) != "after" || string(got[1].Data) != "ok" {
		t.Fatalf("got %q then %q from %q, want \"after\" then \"ok\" from c: a corrupt frame leaked a payload", got[0].Data, got[1].Data, got[0].From)
	}
	if d := bm.Dropped.Value(); d != 2 {
		t.Fatalf("dropped counter %d, want 2 (one per corrupt frame)", d)
	}
}

// writeRawFrame writes one length-prefixed frame the way a peer's lockedConn
// would, for tests that speak the wire format by hand.
func writeRawFrame(w io.Writer, data []byte) error {
	_, err := w.Write(appendFrame(nil, data))
	return err
}

// choppyReader yields data in reads of the sizes given, cycling through
// them: a stream as a socket might hand it over.
type choppyReader struct {
	data  []byte
	sizes []int
	i     int
}

func (r *choppyReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := min(len(p), len(r.data), r.sizes[r.i%len(r.sizes)])
	r.i++
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// parseFrames is the one-shot reference parse of a whole stream: its
// complete frames, the error a reader must end with, and the largest frame
// (length prefix included) that any accepted length prefix announced.
func parseFrames(stream []byte) (frames [][]byte, end error, largest int) {
	for len(stream) > 0 {
		if len(stream) < 4 {
			return frames, io.ErrUnexpectedEOF, largest
		}
		n := binary.BigEndian.Uint32(stream)
		if n > transport.MaxFrame {
			return frames, transport.ErrFrameTooBig, largest
		}
		largest = max(largest, 4+int(n))
		if len(stream) < 4+int(n) {
			return frames, io.ErrUnexpectedEOF, largest
		}
		frames = append(frames, stream[4:4+n])
		stream = stream[4+n:]
	}
	return frames, io.EOF, largest
}

// readAll drains fr, checking that every payload is capacity-clipped.
func readAll(t *testing.T, fr *frameReader) (frames [][]byte, end error) {
	t.Helper()
	for {
		p, err := fr.next()
		if err != nil {
			return frames, err
		}
		if cap(p) != len(p) {
			t.Fatalf("frame %d: capacity %d past its %d bytes", len(frames), cap(p), len(p))
		}
		frames = append(frames, p)
	}
}

// FuzzFrameReader: any byte stream, read in any pieces, yields the frames a
// one-shot parse of it yields, and ends with the same error. The payloads
// are compared only once the whole stream is read, so a chunk written again
// after one of its payloads was handed out would show. A leading frame of
// pad bytes moves the 64 KiB chunk boundary through the fuzzed frames. A
// length above MaxFrame ends the stream before anything is allocated for it.
func FuzzFrameReader(f *testing.F) {
	var seed []byte
	for _, p := range []string{"a", "", "bc", "the quick brown fox"} {
		seed = appendFrame(seed, []byte(p))
	}
	f.Add(seed, uint16(0), []byte{1})
	f.Add(seed, uint16(chunkSize-12), []byte{0, 3, 0, 200})
	f.Add(append(bytes.Clone(seed), 0xff, 0xff, 0xff, 0xff, 'x'), uint16(100), []byte{7})
	f.Add(seed[:len(seed)-3], uint16(chunkSize-40), []byte{255, 255})
	f.Fuzz(func(t *testing.T, data []byte, pad uint16, sizes []byte) {
		stream := append(appendFrame(nil, make([]byte, pad)), data...)
		want, wantEnd, largest := parseFrames(stream)
		r := &choppyReader{data: stream}
		for i := 0; i+1 < len(sizes); i += 2 {
			r.sizes = append(r.sizes, 1+int(binary.BigEndian.Uint16(sizes[i:])))
		}
		if len(r.sizes) == 0 {
			r.sizes = []int{len(stream)} // one read takes all that fits
		}
		fr := frameReader{r: r}
		got, end := readAll(t, &fr)
		if !errors.Is(end, wantEnd) {
			t.Fatalf("stream ended with %v, want %v", end, wantEnd)
		}
		if len(got) != len(want) {
			t.Fatalf("%d frames, want %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("frame %d: %d bytes %.32q, want %d bytes %.32q", i, len(got[i]), got[i], len(want[i]), want[i])
			}
		}
		if len(fr.buf) > max(chunkSize, largest) {
			t.Fatalf("a %d-byte chunk for frames announced at most %d bytes long", len(fr.buf), largest)
		}
	})
}

// TestFrameLargerThanChunk: a frame several chunks long arrives whole between
// small ones, read directly and over a loopback connection.
func TestFrameLargerThanChunk(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), 3*chunkSize/16+5)
	payloads := [][]byte{[]byte("before"), big, []byte("after")}
	var stream []byte
	for _, p := range payloads {
		stream = appendFrame(stream, p)
	}
	fr := frameReader{r: &choppyReader{data: stream, sizes: []int{1500, 9000, 17}}}
	got, end := readAll(t, &fr)
	if end != io.EOF || len(got) != len(payloads) {
		t.Fatalf("%d frames ending with %v, want %d and EOF", len(got), end, len(payloads))
	}
	for i, p := range payloads {
		if !bytes.Equal(got[i], p) {
			t.Fatalf("frame %d: %d bytes differ from the %d sent", i, len(got[i]), len(p))
		}
	}

	a, b, _ := listenPair(t)
	for _, p := range payloads {
		if err := a.Send("b", p); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range recv(t, b, len(payloads)) {
		if !bytes.Equal(p.Data, payloads[i]) {
			t.Fatalf("packet %d: %d bytes differ from the %d sent", i, len(p.Data), len(payloads[i]))
		}
	}
}

// TestReadAllocatesPerChunkNotPerFrame pins the reader's cost: 256 small
// frames that arrive in one burst cost one allocation per 64 KiB chunk they
// fill (scripts/ci.sh's allocation gate), where a read per frame paid one
// each.
func TestReadAllocatesPerChunkNotPerFrame(t *testing.T) {
	const frames = 256
	var stream []byte
	for i := 0; i < frames; i++ {
		stream = appendFrame(stream, bytes.Repeat([]byte{byte(i)}, 500))
	}
	chunks := float64(len(stream)/chunkSize + 1)
	var r bytes.Reader
	n := testing.AllocsPerRun(20, func() {
		r.Reset(stream)
		fr := frameReader{r: &r}
		for i := 0; i < frames; i++ {
			if _, err := fr.next(); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("%v allocs for %d frames in %d bytes", n, frames, len(stream))
	if n > chunks {
		t.Errorf("%d frames in one burst: %v allocs, want <= %v (one per chunk)", frames, n, chunks)
	}
}

// BenchmarkTCPReceive measures the receive path over loopback per frame:
// a sender writes 64-byte frames in windows of 256 and the receiver drains
// them from Packets; ns/op and allocs/op are per frame, both sides included.
func BenchmarkTCPReceive(b *testing.B) {
	a, err := Listen("a", "127.0.0.1:0", nil)
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	rx, err := Listen("b", "127.0.0.1:0", nil)
	if err != nil {
		b.Fatal(err)
	}
	defer rx.Close()
	a.AddPeer("b", rx.Addr())
	payload := bytes.Repeat([]byte{0x42}, 64)
	if err := a.Send("b", payload); err != nil {
		b.Fatal(err)
	}
	<-rx.Packets()
	const window = 256
	b.ReportAllocs()
	b.ResetTimer()
	for sent := 0; sent < b.N; {
		k := min(window, b.N-sent)
		for i := 0; i < k; i++ {
			if err := a.Send("b", payload); err != nil {
				b.Fatal(err)
			}
		}
		for i := 0; i < k; i++ {
			<-rx.Packets()
		}
		sent += k
	}
}

// appendFrame appends a full wire frame (length prefix + payload).
func appendFrame(b, data []byte) []byte {
	return append(binary.BigEndian.AppendUint32(b, uint32(len(data))), data...)
}
