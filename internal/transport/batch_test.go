package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// collect splits frame, checking that every payload is capacity-clipped: an
// append to one must not reach the next payload's length prefix or bytes.
func collect(t *testing.T, frame []byte) [][]byte {
	t.Helper()
	var out [][]byte
	if err := SplitBatch(frame, func(p []byte) {
		if cap(p) != len(p) {
			t.Errorf("payload %d: capacity %d past its %d bytes", len(out), cap(p), len(p))
		}
		out = append(out, append([]byte(nil), p...))
	}); err != nil {
		t.Fatalf("SplitBatch: %v", err)
	}
	return out
}

func TestBatchRoundTrip(t *testing.T) {
	cases := [][][]byte{
		{},
		{[]byte("solo")},
		{[]byte("a"), []byte("bc"), []byte("def")},
		{[]byte{}, []byte("x"), []byte{}}, // empty payloads survive
		{bytes.Repeat([]byte{0x7f}, 1<<12), {0x01}},
	}
	for i, payloads := range cases {
		total := 0
		for _, p := range payloads {
			total += len(p)
		}
		frame := AppendBatch(nil, payloads)
		if got, want := len(frame), BatchSize(len(payloads), total); got != want {
			t.Errorf("case %d: frame is %d bytes, BatchSize says %d", i, got, want)
		}
		if !IsBatch(frame) {
			t.Errorf("case %d: encoded batch not recognised by IsBatch", i)
		}
		got := collect(t, frame)
		if len(got) != len(payloads) {
			t.Fatalf("case %d: split %d payloads, want %d", i, len(got), len(payloads))
		}
		for j := range payloads {
			if !bytes.Equal(got[j], payloads[j]) {
				t.Errorf("case %d payload %d: got %q, want %q", i, j, got[j], payloads[j])
			}
		}
	}
}

// TestIsBatchRejectsProtocolFrames pins the magic-byte separation: protocol
// payloads start with a small message-type byte and handshake frames with a
// printable name character, so neither can be mistaken for a batch frame.
func TestIsBatchRejectsProtocolFrames(t *testing.T) {
	for b := byte(0); b < 0x80; b++ {
		frame := []byte{b, 0, 0, 0, 1, 0xff}
		if IsBatch(frame) {
			t.Fatalf("frame with first byte %#x classified as batch", b)
		}
	}
	if IsBatch([]byte{BatchMagic}) {
		t.Error("frame shorter than a batch header classified as batch")
	}
	if !IsBatch([]byte{BatchMagic, 0, 0, 0, 0}) {
		t.Error("minimal empty batch not recognised")
	}
}

// TestSplitBatchCorrupt: every way a batch frame can be corrupt is detected,
// and before any of its payloads is handed out — a corrupt frame is dropped
// whole.
func TestSplitBatchCorrupt(t *testing.T) {
	valid := AppendBatch(nil, [][]byte{[]byte("ab"), []byte("cde")})
	none := func([]byte) { t.Error("a payload of a corrupt batch frame was handed out") }

	if err := SplitBatch([]byte("not a batch"), none); !errors.Is(err, ErrNotBatch) {
		t.Errorf("non-batch frame: %v, want ErrNotBatch", err)
	}

	// Every strict prefix of a valid batch frame must be rejected.
	for n := batchHeaderSize; n < len(valid); n++ {
		err := SplitBatch(valid[:n], none)
		if !errors.Is(err, ErrCorruptBatch) {
			t.Errorf("prefix of %d bytes: %v, want ErrCorruptBatch", n, err)
		}
	}

	// Trailing garbage after the last payload.
	if err := SplitBatch(append(append([]byte(nil), valid...), 0xcc), none); !errors.Is(err, ErrCorruptBatch) {
		t.Errorf("trailing byte: %v, want ErrCorruptBatch", err)
	}

	// An absurd payload count must fail fast, not allocate or spin.
	huge := []byte{BatchMagic, 0xff, 0xff, 0xff, 0xff}
	if err := SplitBatch(huge, none); !errors.Is(err, ErrCorruptBatch) {
		t.Errorf("huge count: %v, want ErrCorruptBatch", err)
	}

	// A payload length beyond MaxFrame is corrupt even if the count is sane.
	bad := []byte{BatchMagic, 0, 0, 0, 1}
	var ln [4]byte
	binary.BigEndian.PutUint32(ln[:], uint32(MaxFrame+1))
	bad = append(bad, ln[:]...)
	if err := SplitBatch(bad, none); !errors.Is(err, ErrCorruptBatch) {
		t.Errorf("oversized payload length: %v, want ErrCorruptBatch", err)
	}
}

// FuzzFrameBatch fuzzes the batch frame codec: SplitBatch must never panic,
// must only fail with its classified errors, and any frame it accepts must
// survive a split/join round trip byte-identically. Truncating an accepted
// frame must always be detected.
func FuzzFrameBatch(f *testing.F) {
	f.Add(AppendBatch(nil, nil))
	f.Add(AppendBatch(nil, [][]byte{[]byte("a"), []byte("bc")}))
	f.Add(AppendBatch(nil, [][]byte{{}, []byte("xyz"), {}}))
	f.Add([]byte{BatchMagic, 0, 0, 0, 2, 0, 0, 0, 1, 0x41})
	f.Add([]byte{BatchMagic, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte("hello"))
	f.Fuzz(func(t *testing.T, frame []byte) {
		var payloads [][]byte
		total := 0
		err := SplitBatch(frame, func(p []byte) {
			if cap(p) != len(p) {
				t.Fatalf("payload %d not capacity-clipped", len(payloads))
			}
			payloads = append(payloads, append([]byte(nil), p...))
			total += len(p)
		})
		if err != nil {
			if !errors.Is(err, ErrNotBatch) && !errors.Is(err, ErrCorruptBatch) {
				t.Fatalf("unclassified SplitBatch error: %v", err)
			}
			return
		}
		re := AppendBatch(nil, payloads)
		if !bytes.Equal(re, frame) {
			t.Fatalf("split/join is not a fixed point: %x -> %x", frame, re)
		}
		if got := BatchSize(len(payloads), total); got != len(frame) {
			t.Fatalf("BatchSize %d for a %d-byte frame", got, len(frame))
		}
		// Any strict truncation of an accepted frame must be rejected.
		if err := SplitBatch(frame[:len(frame)-1], func([]byte) {}); err == nil {
			t.Fatal("truncated frame accepted")
		}
	})
}
