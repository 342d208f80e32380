package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// Span names: one per call the stepped pass makes into a layer's public
// functions. The part before the dot is the layer.
const (
	spClientNewRequest = iota
	spClientOnReply
	spMessageMarshal
	spMessageEncode
	spMessageDecodeReply
	spMessagePreverifyClient
	spMessagePreverifyNode
	spTransportDeliver
	spCoreOnVerified
	spCoreTick
	spWALAppend
	spWALWaitDurable
	spAppExecute
	spNames
)

var spanNames = [spNames]string{
	"client.new_request", "client.on_reply",
	"message.marshal", "message.encode", "message.decode_reply",
	"message.preverify_client", "message.preverify_node",
	"transport.deliver",
	"core.on_verified", "core.tick",
	"wal.append", "wal.wait_durable",
	"app.execute",
}

// span is one timed call: what it was, when it ran, the span whose output
// caused it, and the request or batch it belongs to.
type span struct {
	name       uint8
	parent     int32 // index of the causing span, -1 for a root
	start, end int64 // ns since the buffer's epoch
	trace      uint64
}

// spanBuf is the in-memory span store, sized before the pass starts. Begin
// and end are an atomic add and two stores: no allocation, no lock, so
// recording cannot perturb the calls it times. app.execute spans arrive
// from the exec scheduler's worker goroutines, hence the atomic cursor.
// Spans past the capacity are counted and dropped.
type spanBuf struct {
	epoch   time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
}

func newSpanBuf(capacity int) *spanBuf {
	return &spanBuf{epoch: time.Now(), spans: make([]span, capacity)}
}

// begin opens a span and returns its index, or -1 when the buffer is full.
func (b *spanBuf) begin(name uint8, parent int32, trace uint64) int32 {
	i := b.next.Add(1) - 1
	if i >= int64(len(b.spans)) {
		b.dropped.Add(1)
		return -1
	}
	s := &b.spans[i]
	s.name, s.parent, s.trace = name, parent, trace
	s.start = int64(time.Since(b.epoch))
	return int32(i)
}

func (b *spanBuf) end(i int32) {
	if i >= 0 {
		b.spans[i].end = int64(time.Since(b.epoch))
	}
}

// recorded is the filled prefix of the buffer.
func (b *spanBuf) recorded() []span {
	n := b.next.Load()
	if n > int64(len(b.spans)) {
		n = int64(len(b.spans))
	}
	return b.spans[:n]
}

// spanTotals aggregates the buffer per span name.
type spanTotals struct {
	count [spNames]int64
	total [spNames]time.Duration
	// childCover[name] is, summed over spans of that name, the part of each
	// span's interval covered by its direct children: self time is total
	// minus childCover.
	childCover [spNames]time.Duration
}

func (t *spanTotals) mean(name int) float64 {
	if t.count[name] == 0 {
		return 0
	}
	return float64(t.total[name].Nanoseconds()) / 1e3 / float64(t.count[name])
}

// totals computes counts, durations and child coverage. Children of one
// span may overlap (parallel app.execute), so coverage is the union of the
// child intervals clipped to the parent.
func (b *spanBuf) totals() *spanTotals {
	spans := b.recorded()
	t := &spanTotals{}
	children := make(map[int32][]int32)
	for i, s := range spans {
		t.count[s.name]++
		t.total[s.name] += time.Duration(s.end - s.start)
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	for p, kids := range children {
		sort.Slice(kids, func(i, j int) bool { return spans[kids[i]].start < spans[kids[j]].start })
		ps := spans[p]
		var covered, upTo int64 = 0, ps.start
		for _, k := range kids {
			s, e := max(spans[k].start, upTo), min(spans[k].end, ps.end)
			if e > s {
				covered += e - s
				upTo = e
			}
		}
		t.childCover[ps.name] += time.Duration(covered)
	}
	return t
}

// writeJSONL dumps the spans, one JSON object per line.
func (b *spanBuf) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for i, s := range b.recorded() {
		fmt.Fprintf(w, `{"id":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"trace":%d}`+"\n",
			i, spanNames[s.name], s.start, s.end, s.parent, s.trace)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
