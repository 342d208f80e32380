package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"rbft/internal/obs"
)

// castagnoli is the CRC-32C polynomial table shared by framing and replay.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func crcOf(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// segMagic starts every segment file, followed by the big-endian LSN of the
// segment's first record. Its digit versions the record format, so a log in
// an earlier format is refused, not misread.
const segMagic = "RBFTWAL2"

// segHeaderLen is the byte length of a segment header.
const segHeaderLen = len(segMagic) + 8

// FlushInterval is the group-commit interval: the flusher's timer, re-armed
// after each flush, syncs whatever is buffered even with no waiter.
const FlushInterval = 2 * time.Millisecond

// flushBytes is the buffered size at which Append wakes the flusher early.
const flushBytes = 256 << 10

// Options configures a Log.
type Options struct {
	// Dir is the directory holding the segment files. Created if missing.
	Dir string
	// SegmentBytes rolls to a new segment once the current one exceeds this
	// size. Default 16 MB. It stays a setting because the roll, prune and
	// corruption tests need segments of a few hundred bytes.
	SegmentBytes int64
	// NoSync skips fsync (tests and throwaway runs only; a crash can then
	// lose acknowledged records).
	NoSync bool
}

// segInfo describes one on-disk segment.
type segInfo struct {
	path     string
	firstLSN uint64 // LSN of the segment's first record
	records  uint64 // valid records in the segment
}

// Log is an append-only segmented record log with group commit.
//
// Append frames records straight into a buffer under the mutex; a single
// flusher goroutine owns all file I/O and syncs the buffer to disk when
// nudged by a durability waiter, when flushBytes accumulate, or when its
// FlushInterval timer fires. Every fsync covers all records appended before
// it started, so concurrent committers share fsyncs (group commit) while a
// lone committer still syncs immediately. The flusher hands the buffer it
// just wrote back as the next one, so a steady-state append allocates
// nothing.
type Log struct {
	opts Options

	mu      sync.Mutex
	cond    *sync.Cond // signals durableLSN / ioErr changes
	buf     []byte     // guarded by mu; framed records awaiting sync
	bufRecs uint64     // guarded by mu; records in buf
	next    uint64     // guarded by mu; LSN to assign to the next record
	durable uint64     // guarded by mu; records known durable
	ioErr   error      // guarded by mu; sticky flusher failure
	closed  bool       // guarded by mu
	segs    []segInfo  // guarded by mu; on-disk segments, oldest first

	nudge chan struct{} // wakes the flusher for an immediate sync
	quit  chan struct{}
	done  chan struct{}

	// Flusher-owned file state: only the flusher goroutine touches these
	// after Open returns.
	seg      *os.File
	segSize  int64
	replayed uint64 // records recovered by Open, for metrics

	// Metrics are nil-safe obs handles; SetMetrics installs real ones.
	fsyncSeconds *obs.Histogram
	fsyncs       *obs.Counter
	bytesWritten *obs.Counter
	recsAppended *obs.Counter
}

// fsyncBuckets are histogram bounds (seconds) for fsync latency, spanning
// NVMe-class syncs to contended spinning disks.
var fsyncBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
}

// Open opens (or creates) the log in opts.Dir, validates every segment,
// removes a torn roll or truncates a torn tail on the last segment, and
// starts the flusher. Bit corruption anywhere except the tail of the last
// segment is refused with an error: that is disk damage, not a torn write.
func Open(opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 16 << 20
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create dir: %w", err)
	}
	l := &Log{
		opts:  opts,
		nudge: make(chan struct{}, 1),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	l.cond = sync.NewCond(&l.mu)
	if err := l.scan(); err != nil {
		return nil, err
	}
	go l.flusher()
	return l, nil
}

// scan validates existing segments, truncates the torn tail, and positions
// the log for appending. Called once from Open, before the flusher starts;
// the lock is uncontended and held only so the guarded-field discipline
// stays checkable.
func (l *Log) scan() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	names, err := filepath.Glob(filepath.Join(l.opts.Dir, "*.seg"))
	if err != nil {
		return fmt.Errorf("wal: list segments: %w", err)
	}
	sort.Strings(names)
	lsn := uint64(0)
	for i, path := range names {
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("wal: read %s: %w", filepath.Base(path), err)
		}
		if i == len(names)-1 && len(data) < segHeaderLen && bytes.HasPrefix(segHeader(lsn+1), data) {
			// A torn roll: the crash came before the new segment's header
			// was synced, so it holds no record. Remove it; the next roll
			// creates it again (and syncs the directory).
			if err := os.Remove(path); err != nil {
				return fmt.Errorf("wal: remove torn segment %s: %w", filepath.Base(path), err)
			}
			break
		}
		first, body, err := parseSegHeader(data)
		if err != nil {
			return fmt.Errorf("wal: %s: %w", filepath.Base(path), err)
		}
		if i == 0 {
			lsn = first - 1
		} else if first != lsn+1 {
			return fmt.Errorf("%w: segment %s starts at LSN %d, want %d",
				ErrCorrupt, filepath.Base(path), first, lsn+1)
		}
		recs, clean, derr := DecodeRecords(body)
		if derr != nil {
			if i != len(names)-1 {
				return fmt.Errorf("wal: %s: %w", filepath.Base(path), derr)
			}
			// Torn tail on the last segment: drop the unreadable suffix.
			if err := os.Truncate(path, int64(segHeaderLen+clean)); err != nil {
				return fmt.Errorf("wal: truncate torn tail of %s: %w", filepath.Base(path), err)
			}
		}
		lsn += uint64(len(recs))
		l.segs = append(l.segs, segInfo{path: path, firstLSN: first, records: uint64(len(recs))})
	}
	l.next = lsn
	l.durable = lsn
	l.replayed = lsn
	if n := len(l.segs); n > 0 {
		f, err := os.OpenFile(l.segs[n-1].path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("wal: reopen segment: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return fmt.Errorf("wal: stat segment: %w", err)
		}
		l.seg = f
		l.segSize = st.Size()
	}
	return nil
}

// segHeader is the header of a segment whose first record has LSN first.
func segHeader(first uint64) []byte {
	return binary.BigEndian.AppendUint64([]byte(segMagic), first)
}

func parseSegHeader(data []byte) (firstLSN uint64, body []byte, err error) {
	if len(data) < segHeaderLen || string(data[:len(segMagic)]) != segMagic {
		return 0, nil, fmt.Errorf("%w: bad segment header", ErrCorrupt)
	}
	first := binary.BigEndian.Uint64(data[len(segMagic):])
	if first == 0 {
		return 0, nil, fmt.Errorf("%w: segment first LSN 0", ErrCorrupt)
	}
	return first, data[segHeaderLen:], nil
}

// SetMetrics installs WAL metrics into reg. Call before traffic; the
// handles are nil-safe so an unset registry costs nothing.
func (l *Log) SetMetrics(reg *obs.Registry) {
	l.fsyncSeconds = reg.Histogram("rbft_wal_fsync_seconds", fsyncBuckets)
	l.fsyncs = reg.Counter("rbft_wal_fsyncs_total")
	l.bytesWritten = reg.Counter("rbft_wal_bytes_total")
	l.recsAppended = reg.Counter("rbft_wal_records_total")
}

// Replayed returns how many records Open recovered from disk.
func (l *Log) Replayed() uint64 { return l.replayed }

// Replay streams every durable record, oldest first, into fn. It re-reads
// the segment files, so call it at startup before appending; records
// appended after Open are not guaranteed to be seen.
func (l *Log) Replay(fn func(Record) error) error {
	l.mu.Lock()
	segs := append([]segInfo(nil), l.segs...)
	l.mu.Unlock()
	for _, s := range segs {
		data, err := os.ReadFile(s.path)
		if err != nil {
			return fmt.Errorf("wal: replay %s: %w", filepath.Base(s.path), err)
		}
		_, body, err := parseSegHeader(data)
		if err != nil {
			return fmt.Errorf("wal: replay %s: %w", filepath.Base(s.path), err)
		}
		recs, _, derr := DecodeRecords(body)
		for i := uint64(0); i < s.records && int(i) < len(recs); i++ {
			if err := fn(recs[i]); err != nil {
				return err
			}
		}
		if derr != nil && uint64(len(recs)) < s.records {
			return fmt.Errorf("wal: replay %s: %w", filepath.Base(s.path), derr)
		}
	}
	return nil
}

// Append buffers records and returns the LSN of the last one (the count of
// records ever appended). Durability is *not* implied; pair with
// WaitDurable before acting on the records' visibility.
func (l *Log) Append(recs ...Record) (uint64, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, fmt.Errorf("wal: append on closed log")
	}
	if err := l.ioErr; err != nil {
		l.mu.Unlock()
		return 0, err
	}
	l.buf = EncodeRecords(l.buf, recs)
	l.bufRecs += uint64(len(recs))
	l.next += uint64(len(recs))
	lsn := l.next
	full := len(l.buf) >= flushBytes
	l.mu.Unlock()
	l.recsAppended.Add(uint64(len(recs)))
	if full {
		l.kick()
	}
	return lsn, nil
}

// WaitDurable blocks until the record at lsn is on disk (or the log failed
// or closed). It nudges the flusher, so a lone committer pays one fsync of
// latency, while concurrent committers share fsyncs.
func (l *Log) WaitDurable(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.durable < lsn {
		if l.ioErr != nil {
			return l.ioErr
		}
		if l.closed {
			return fmt.Errorf("wal: closed before LSN %d became durable", lsn)
		}
		l.kick()
		l.cond.Wait()
	}
	return l.ioErr
}

// Sync flushes everything appended so far and waits for durability.
func (l *Log) Sync() error {
	l.mu.Lock()
	lsn := l.next
	l.mu.Unlock()
	return l.WaitDurable(lsn)
}

// Close flushes buffered records, stops the flusher, and closes the
// segment. Further appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		<-l.done
		return l.ioErr
	}
	l.closed = true
	l.mu.Unlock()
	close(l.quit)
	<-l.done
	l.mu.Lock()
	defer l.mu.Unlock()
	l.cond.Broadcast()
	if l.seg != nil {
		if err := l.seg.Close(); err != nil && l.ioErr == nil {
			l.ioErr = err
		}
		l.seg = nil
	}
	return l.ioErr
}

// Prune deletes whole segments whose records all precede keepFrom (LSN).
// The active (last) segment is never deleted. Safe prune points are the
// caller's business: recovery replays only what remains, so prune at most
// up to state summarized elsewhere (e.g. an application snapshot).
func (l *Log) Prune(keepFrom uint64) error {
	l.mu.Lock()
	var victims []segInfo
	for len(l.segs) > 1 {
		s := l.segs[0]
		if s.firstLSN+s.records-1 >= keepFrom {
			break
		}
		victims = append(victims, s)
		l.segs = l.segs[1:]
	}
	l.mu.Unlock()
	for _, s := range victims {
		if err := os.Remove(s.path); err != nil {
			return fmt.Errorf("wal: prune %s: %w", filepath.Base(s.path), err)
		}
	}
	return nil
}

// kick nudges the flusher without blocking. Callers hold no or any lock.
func (l *Log) kick() {
	select {
	case l.nudge <- struct{}{}:
	default:
	}
}

// flusher is the single goroutine owning file I/O. Each round it swaps
// the buffered frames for the buffer it wrote last round under the lock,
// performs the write+fsync with no locks held, then publishes the new
// durable LSN.
func (l *Log) flusher() {
	defer close(l.done)
	timer := time.NewTimer(FlushInterval)
	defer timer.Stop()
	var spare []byte // the buffer the last round wrote; nothing else holds it
	for {
		quitting := false
		select {
		case <-l.nudge:
		case <-timer.C:
		case <-l.quit:
			quitting = true
		}
		l.mu.Lock()
		data, nrecs, target := l.buf, l.bufRecs, l.next
		l.buf, l.bufRecs = spare[:0], 0
		l.mu.Unlock()

		var err error
		if len(data) > 0 {
			err = l.flushBatch(data, nrecs)
		}
		spare = data
		l.mu.Lock()
		if err != nil {
			if l.ioErr == nil {
				l.ioErr = err
			}
		} else {
			l.durable = target
		}
		l.cond.Broadcast()
		l.mu.Unlock()
		if quitting {
			return
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(FlushInterval)
	}
}

// flushBatch writes one stolen buffer to the current segment (rolling
// first if it is full) and syncs it. Flusher goroutine only.
func (l *Log) flushBatch(data []byte, nrecs uint64) error {
	if l.seg == nil || l.segSize >= l.opts.SegmentBytes {
		if err := l.roll(); err != nil {
			return err
		}
	}
	start := time.Now()
	if err := writeAndSync(l.seg, data, l.opts.NoSync); err != nil {
		return err
	}
	l.fsyncSeconds.Observe(time.Since(start).Seconds())
	l.fsyncs.Inc()
	l.bytesWritten.Add(uint64(len(data)))
	l.segSize += int64(len(data))
	l.mu.Lock()
	l.segs[len(l.segs)-1].records += nrecs
	l.mu.Unlock()
	return nil
}

// roll closes the current segment and starts a new one whose first record
// is the next durable LSN + 1. Flusher goroutine only.
func (l *Log) roll() error {
	if l.seg != nil {
		if err := l.seg.Close(); err != nil {
			return fmt.Errorf("wal: close segment: %w", err)
		}
		l.seg = nil
	}
	l.mu.Lock()
	first := l.durable + 1
	l.mu.Unlock()
	path := filepath.Join(l.opts.Dir, segName(first))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	if err := writeAndSync(f, segHeader(first), l.opts.NoSync); err != nil {
		f.Close()
		return err
	}
	syncDir(l.opts.Dir)
	l.seg = f
	l.segSize = int64(segHeaderLen)
	l.mu.Lock()
	l.segs = append(l.segs, segInfo{path: path, firstLSN: first})
	l.mu.Unlock()
	return nil
}

func segName(firstLSN uint64) string {
	return fmt.Sprintf("%016x.seg", firstLSN)
}

// writeAndSync is the raw I/O step of a flush: write the batch, then
// fsync. It runs with no locks held so a slow disk never blocks appenders,
// and the pipeblock analyzer enforces that.
//
//rbft:wal
func writeAndSync(f *os.File, data []byte, noSync bool) error {
	if _, err := f.Write(data); err != nil {
		return fmt.Errorf("wal: write: %w", err)
	}
	if noSync {
		return nil
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	return nil
}

// syncDir best-effort fsyncs a directory so segment creation survives a
// crash. Errors are ignored: some filesystems refuse directory fsync.
//
//rbft:wal
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}
