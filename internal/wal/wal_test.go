package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"rbft/internal/obs"
	"rbft/internal/types"
)

// sampleRecords returns one record of every kind, with every kind-relevant
// field populated.
func sampleRecords() []Record {
	d1 := types.Digest{1, 2, 3}
	d2 := types.Digest{9, 8, 7}
	return []Record{
		{Kind: KindSentPrePrepare, Instance: 1, View: 2, Seq: 3, Digest: d2},
		{Kind: KindSentPrepare, Instance: 0, View: 2, Seq: 3, Digest: d1},
		{Kind: KindSentCommit, Instance: 2, View: 1, Seq: 9, Digest: d2},
		{Kind: KindStable, Instance: 1, Seq: 128, Digest: d1},
		{Kind: KindViewChange, Instance: 0, View: 4},
		{Kind: KindNewView, Instance: 0, View: 4},
		{Kind: KindInstanceChange, CPI: 3, View: 4},
		{Kind: KindExecuted, Client: 11, Req: 12, Digest: d2, Op: []byte("op-bytes")},
		{Kind: KindExecuted, Client: 13, Req: 14, Digest: d1, Op: []byte("lane-op"), Instance: 1},
		{Kind: KindMerged, Instance: 1, Seq: 42},
	}
}

// TestExecutedLaneEncodingCanonical pins the KindExecuted lane field: it is
// always present, so a lane-0 record is as long as any other, round-trips to
// the same bytes, and one whose lane field is cut off (length and CRC
// refreshed) is rejected as truncated.
func TestExecutedLaneEncodingCanonical(t *testing.T) {
	zeroLane := Record{Kind: KindExecuted, Client: 1, Req: 2, Digest: types.Digest{3}, Op: []byte("x")}
	withLane := zeroLane
	withLane.Instance = 1
	a := EncodeRecords(nil, []Record{zeroLane})
	if b := EncodeRecords(nil, []Record{withLane}); len(b) != len(a) {
		t.Fatalf("lane 0 encodes to %d bytes, lane 1 to %d", len(a), len(b))
	}
	got, _, err := DecodeRecords(a)
	if err != nil || len(got) != 1 || !reflect.DeepEqual(got[0], zeroLane) {
		t.Fatalf("lane-0 record decoded to %+v, %v", got, err)
	}
	if again := EncodeRecords(nil, got); !bytes.Equal(again, a) {
		t.Fatal("lane-0 record re-encodes to different bytes")
	}
	payload := appendRecord(nil, &zeroLane)
	payload = payload[:len(payload)-4]
	frame := make([]byte, 8, 8+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crcOf(payload))
	frame = append(frame, payload...)
	if _, _, err := DecodeRecords(frame); err == nil {
		t.Fatal("KindExecuted record without its lane field decoded")
	}
}

func TestRecordRoundTrip(t *testing.T) {
	recs := sampleRecords()
	data := EncodeRecords(nil, recs)
	got, clean, err := DecodeRecords(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if clean != len(data) {
		t.Fatalf("clean prefix %d, want %d", clean, len(data))
	}
	if !reflect.DeepEqual(normalize(got), normalize(recs)) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, recs)
	}
}

// normalize maps empty slices to nil so DeepEqual compares content.
func normalize(recs []Record) []Record {
	out := append([]Record(nil), recs...)
	for i := range out {
		if len(out[i].Op) == 0 {
			out[i].Op = nil
		}
	}
	return out
}

func TestDecodeRejectsTornAndCorrupt(t *testing.T) {
	recs := sampleRecords()
	data := EncodeRecords(nil, recs)

	// Any truncation must yield a clean prefix of whole records.
	for cut := 0; cut < len(data); cut++ {
		got, clean, err := DecodeRecords(data[:cut])
		if clean > cut {
			t.Fatalf("cut %d: clean prefix %d beyond input", cut, clean)
		}
		if err == nil && cut != len(data) && len(got) == len(recs) {
			t.Fatalf("cut %d: decoded all records from truncated input", cut)
		}
		if err == nil {
			if rest, _, _ := DecodeRecords(data[:clean]); len(rest) != len(got) {
				t.Fatalf("cut %d: clean prefix re-decode mismatch", cut)
			}
		}
	}

	// A flipped payload bit must fail the CRC.
	mut := append([]byte(nil), data...)
	mut[9] ^= 0x40
	if _, clean, err := DecodeRecords(mut); err == nil || clean != 0 {
		t.Fatalf("bit flip in first payload not caught: clean=%d err=%v", clean, err)
	}
}

func testLog(t *testing.T, opts Options) *Log {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func TestAppendReplayAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	recs := sampleRecords()
	l := testLog(t, Options{Dir: dir})
	lsn, err := l.Append(recs...)
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	if lsn != uint64(len(recs)) {
		t.Fatalf("lsn = %d, want %d", lsn, len(recs))
	}
	if err := l.WaitDurable(lsn); err != nil {
		t.Fatalf("wait durable: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	l2 := testLog(t, Options{Dir: dir})
	if got := l2.Replayed(); got != uint64(len(recs)) {
		t.Fatalf("replayed %d records, want %d", got, len(recs))
	}
	var got []Record
	if err := l2.Replay(func(r Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !reflect.DeepEqual(normalize(got), normalize(recs)) {
		t.Fatalf("replay mismatch:\n got %+v\nwant %+v", got, recs)
	}
	// Appends continue from the recovered LSN.
	lsn2, err := l2.Append(recs[0])
	if err != nil || lsn2 != lsn+1 {
		t.Fatalf("append after reopen: lsn=%d err=%v, want %d", lsn2, err, lsn+1)
	}
	if err := l2.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	recs := sampleRecords()
	l := testLog(t, Options{Dir: dir})
	if _, err := l.Append(recs...); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(segs) != 1 {
		t.Fatalf("segments = %d, want 1", len(segs))
	}
	st, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Chop mid-record: a torn tail from a crashed write.
	if err := os.Truncate(segs[0], st.Size()-5); err != nil {
		t.Fatal(err)
	}

	l2 := testLog(t, Options{Dir: dir})
	if got, want := l2.Replayed(), uint64(len(recs)-1); got != want {
		t.Fatalf("recovered %d records after torn tail, want %d", got, want)
	}
	// The file was physically truncated to the clean prefix.
	st2, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if data, _ := os.ReadFile(segs[0]); int64(len(data)) != st2.Size() {
		t.Fatal("stat/read disagree")
	}
	want := EncodeRecords(nil, recs[:len(recs)-1])
	if st2.Size() != int64(segHeaderLen+len(want)) {
		t.Fatalf("truncated size %d, want %d", st2.Size(), segHeaderLen+len(want))
	}
}

func TestMidLogCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	l := testLog(t, Options{Dir: dir, SegmentBytes: 1}) // every batch rolls a segment
	for _, r := range sampleRecords() {
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(segs) < 3 {
		t.Fatalf("segments = %d, want >= 3", len(segs))
	}
	// Corrupt a payload byte in the FIRST segment: that is disk damage, not
	// a torn tail, and Open must refuse rather than silently drop suffixes.
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[segHeaderLen+9] ^= 0x01
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("Open accepted a log with mid-stream corruption")
	}
}

func TestSegmentRollAndPrune(t *testing.T) {
	dir := t.TempDir()
	l := testLog(t, Options{Dir: dir, SegmentBytes: 256})
	var total uint64
	for i := 0; i < 40; i++ {
		lsn, err := l.Append(Record{Kind: KindExecuted, Client: 1, Req: types.RequestID(i + 1), Op: bytes.Repeat([]byte{byte(i)}, 32)})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.WaitDurable(lsn); err != nil {
			t.Fatal(err)
		}
		total = lsn
	}
	segments := func() []string {
		paths, err := filepath.Glob(filepath.Join(dir, "*.seg"))
		if err != nil {
			t.Fatal(err)
		}
		return paths
	}
	paths := segments()
	if len(paths) < 3 {
		t.Fatalf("segments = %d, want >= 3 after roll", len(paths))
	}
	if err := l.Prune(total); err != nil {
		t.Fatal(err)
	}
	kept := segments()
	if len(kept) != 1 {
		t.Fatalf("segments after prune = %d, want 1 (active)", len(kept))
	}
	for _, p := range paths[:len(paths)-1] {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("pruned segment %s still exists", p)
		}
	}
	// The pruned log still opens and replays only the surviving suffix.
	l.Close()
	l2 := testLog(t, Options{Dir: dir})
	n := 0
	last := Record{}
	if err := l2.Replay(func(r Record) error { n++; last = r; return nil }); err != nil {
		t.Fatal(err)
	}
	if n == 0 || last.Req != types.RequestID(40) {
		t.Fatalf("replay after prune: %d records, last req %d", n, last.Req)
	}
	if lsn, err := l2.Append(last); err != nil || lsn != total+1 {
		t.Fatalf("append after prune and reopen: lsn=%d err=%v, want %d", lsn, err, total+1)
	}
}

// TestGroupCommitSharesFsyncs: concurrent committers must share fsyncs —
// the whole point of group commit. With 64 goroutines each appending and
// waiting for durability, the fsync count must come in well under the
// record count.
func TestGroupCommitSharesFsyncs(t *testing.T) {
	reg := obs.NewRegistry()
	l := testLog(t, Options{})
	l.SetMetrics(reg)
	const committers = 64
	var wg sync.WaitGroup
	for i := 0; i < committers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				lsn, err := l.Append(Record{Kind: KindExecuted, Client: types.ClientID(i), Req: types.RequestID(j + 1)})
				if err != nil {
					t.Error(err)
					return
				}
				if err := l.WaitDurable(lsn); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	var fsyncs, recs uint64
	for _, m := range reg.Snapshot() {
		switch m.Name {
		case "rbft_wal_fsyncs_total":
			fsyncs = uint64(m.Value)
		case "rbft_wal_records_total":
			recs = uint64(m.Value)
		}
	}
	if recs != committers*4 {
		t.Fatalf("records_total = %d, want %d", recs, committers*4)
	}
	if fsyncs == 0 || fsyncs >= recs {
		t.Fatalf("fsyncs = %d for %d records; group commit is not batching", fsyncs, recs)
	}
	t.Logf("%d records, %d fsyncs (%.1f records/fsync)", recs, fsyncs, float64(recs)/float64(fsyncs))
}

func TestWaitDurableAfterIOError(t *testing.T) {
	dir := t.TempDir()
	l := testLog(t, Options{Dir: dir})
	if _, err := l.Append(sampleRecords()[0]); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Sabotage the segment handle by closing it out from under the flusher;
	// the next flush must surface a sticky error, not hang waiters.
	l.seg.Close()
	lsn, err := l.Append(sampleRecords()[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(lsn); err == nil {
		t.Fatal("WaitDurable succeeded after the segment handle was closed")
	}
	if _, err := l.Append(sampleRecords()[2]); err == nil {
		t.Fatal("Append succeeded after a sticky I/O error")
	}
}

// TestAppendAllocatesNothing pins the steady state of the group commit:
// Append frames its records straight into the log's buffer, and the flusher
// hands the buffer it wrote back as the next one, so an append and its wait
// for durability allocate nothing, for one PREPARE or for the twenty
// executed requests of a batch.
func TestAppendAllocatesNothing(t *testing.T) {
	executed := make([]Record, 20)
	for i := range executed {
		executed[i] = Record{Kind: KindExecuted, Client: 1, Req: types.RequestID(i + 1), Digest: types.Digest{byte(i)}, Op: []byte("PUT key-0001 value")}
	}
	for _, tc := range []struct {
		name string
		recs []Record
	}{
		{"one PREPARE", []Record{{Kind: KindSentPrepare, Instance: 1, View: 2, Seq: 3, Digest: types.Digest{4}}}},
		{"20 executed", executed},
	} {
		l := testLog(t, Options{})
		appendDurable := func() {
			lsn, err := l.Append(tc.recs...)
			if err == nil {
				err = l.WaitDurable(lsn)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4; i++ { // grow both of the flusher's buffers
			appendDurable()
		}
		if n := testing.AllocsPerRun(100, appendDurable); n != 0 {
			t.Errorf("%s: %.1f allocations per Append + WaitDurable, want 0", tc.name, n)
		}
	}
}

// TestTornRollRemovedOnOpen: a crash during a segment roll can leave the new
// last segment empty or with part of its header. It holds no record, so Open
// removes it, and the next roll creates it again.
func TestTornRollRemovedOnOpen(t *testing.T) {
	recs := sampleRecords()
	for _, size := range []int{0, 5, 12} {
		dir := t.TempDir()
		l := testLog(t, Options{Dir: dir})
		lsn, err := l.Append(recs...)
		if err == nil {
			err = l.WaitDurable(lsn)
		}
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
		torn := filepath.Join(dir, segName(lsn+1))
		if err := os.WriteFile(torn, segHeader(lsn + 1)[:size], 0o644); err != nil {
			t.Fatal(err)
		}

		l2, err := Open(Options{Dir: dir, SegmentBytes: 1}) // the next flush rolls
		if err != nil {
			t.Fatalf("%d-byte torn roll: Open: %v", size, err)
		}
		if got := l2.Replayed(); got != lsn {
			t.Fatalf("%d-byte torn roll: recovered %d records, want %d", size, got, lsn)
		}
		if _, err := os.Stat(torn); !os.IsNotExist(err) {
			t.Fatalf("%d-byte torn roll: segment still there (%v)", size, err)
		}
		if err := func() error {
			if _, err := l2.Append(recs[0]); err != nil {
				return err
			}
			return l2.Sync()
		}(); err != nil {
			t.Fatalf("%d-byte torn roll: append after reopen: %v", size, err)
		}
		l2.Close()
		if data, err := os.ReadFile(torn); err != nil || !bytes.HasPrefix(data, segHeader(lsn+1)) {
			t.Fatalf("%d-byte torn roll: the next roll did not recreate the segment (%v)", size, err)
		}
		l3 := testLog(t, Options{Dir: dir})
		if got := l3.Replayed(); got != lsn+1 {
			t.Fatalf("%d-byte torn roll: reopened log holds %d records, want %d", size, got, lsn+1)
		}
	}
}

// TestBadSegmentHeaderRefused: only a short last segment that a roll could
// have left is a torn roll. A full-length last segment with a bad magic, a
// short last one that is no prefix of its header, and a short segment
// before the last are disk damage, which Open refuses with ErrCorrupt.
func TestBadSegmentHeaderRefused(t *testing.T) {
	for _, tc := range []struct {
		name   string
		seg    int // 0 the first of two segments, 1 the last
		damage func([]byte) []byte
	}{
		{"bad magic on the last segment", 1, func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"short last segment, not a header prefix", 1, func(b []byte) []byte { return []byte("XBFTW") }},
		{"short segment before the last", 0, func(b []byte) []byte { return b[:5] }},
	} {
		dir := t.TempDir()
		l := testLog(t, Options{Dir: dir, SegmentBytes: 1}) // every flush rolls
		for _, r := range sampleRecords()[:2] {
			if _, err := l.Append(r); err != nil {
				t.Fatal(err)
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		l.Close()
		segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
		if len(segs) != 2 {
			t.Fatalf("segments = %d, want 2", len(segs))
		}
		data, err := os.ReadFile(segs[tc.seg])
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(segs[tc.seg], tc.damage(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if l2, err := Open(Options{Dir: dir}); !errors.Is(err, ErrCorrupt) {
			if l2 != nil {
				l2.Close()
			}
			t.Fatalf("%s: Open returned %v, want ErrCorrupt", tc.name, err)
		}
	}
}
