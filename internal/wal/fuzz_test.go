package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"rbft/internal/types"
)

// FuzzWALReplay feeds arbitrary bytes to the log-recovery path as the body
// of the last (and only) segment. Invariants:
//   - Open never panics: it either recovers (truncating a torn tail) or
//     fails with a classified error;
//   - when Open succeeds, the surviving records are a clean prefix of the
//     framed stream: re-encoding them reproduces exactly the bytes the
//     recovery kept;
//   - a second Open of the repaired log recovers the same records (repair
//     is idempotent).
func FuzzWALReplay(f *testing.F) {
	valid := EncodeRecords(nil, []Record{
		{Kind: KindSentPrePrepare, Instance: 1, View: 2, Seq: 3, Digest: types.Digest{1}},
		{Kind: KindSentPrepare, Instance: 0, View: 2, Seq: 3, Digest: types.Digest{2}},
		{Kind: KindSentCommit, Instance: 2, View: 1, Seq: 9, Digest: types.Digest{3}},
		{Kind: KindStable, Instance: 1, Seq: 128, Digest: types.Digest{4}},
		{Kind: KindViewChange, Instance: 0, View: 4},
		{Kind: KindNewView, Instance: 0, View: 4},
		{Kind: KindInstanceChange, CPI: 3, View: 4},
		{Kind: KindExecuted, Client: 11, Req: 12, Digest: types.Digest{5}, Op: []byte("op")},
		{Kind: KindExecuted, Client: 13, Req: 14, Digest: types.Digest{6}, Op: []byte("op2"), Instance: 1},
		{Kind: KindMerged, Instance: 1, Seq: 7},
	})
	// Seed corpus: the valid stream, truncations, bit flips, and junk.
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(valid[:11])
	flip := append([]byte(nil), valid...)
	flip[15] ^= 0x20
	f.Add(flip)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add(append([]byte(nil), make([]byte, 64)...))

	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segName(1))
		if err := os.WriteFile(path, append(segHeader(1), body...), 0o644); err != nil {
			t.Fatal(err)
		}

		l, err := Open(Options{Dir: dir})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open failed with unclassified error: %v", err)
			}
			return
		}
		var recs []Record
		if err := l.Replay(func(r Record) error { recs = append(recs, r); return nil }); err != nil {
			t.Fatalf("replay of repaired log: %v", err)
		}
		if uint64(len(recs)) != l.Replayed() {
			t.Fatalf("Replay returned %d records, Replayed() = %d", len(recs), l.Replayed())
		}
		// The kept bytes must be exactly the clean prefix of the input.
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := EncodeRecords(nil, recs); string(kept[segHeaderLen:]) != string(got) {
			t.Fatalf("repaired segment body is not the re-encoding of the recovered records")
		}
		l.Close()

		l2, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("second Open of repaired log: %v", err)
		}
		if l2.Replayed() != uint64(len(recs)) {
			t.Fatalf("second Open recovered %d records, want %d", l2.Replayed(), len(recs))
		}
		l2.Close()
	})
}
