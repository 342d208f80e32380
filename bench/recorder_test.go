package main

import (
	"testing"
	"time"
)

func TestRecordingDoesNotAllocate(t *testing.T) {
	s := newSamples(1 << 12)
	start := time.Now()
	ol := newOpenLoop(schedule{start: start, interval: time.Millisecond}, 1<<12)
	sb := newSpanBuf(1 << 12)
	at := start.Add(3 * time.Millisecond)
	i := 0
	for name, fn := range map[string]func(){
		"samples.record":     func() { s.record(42) },
		"openLoop.issued":    func() { ol.issued(i, at); i++ },
		"openLoop.completed": func() { ol.completed(i, at); i++ },
		"spanBuf.begin/end":  func() { sb.end(sb.begin(spCoreOnVerified, -1, 7)) },
	} {
		if allocs := testing.AllocsPerRun(1000, fn); allocs != 0 {
			t.Errorf("%s allocates %.1f times per record", name, allocs)
		}
	}
}

func TestSamplesNeverGrow(t *testing.T) {
	s := newSamples(2)
	for i := 0; i < 5; i++ {
		s.record(int64(i))
	}
	if len(s.v) != 2 || cap(s.v) != 2 || s.overflow != 3 {
		t.Fatalf("len %d cap %d overflow %d, want 2 2 3", len(s.v), cap(s.v), s.overflow)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	ten := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct {
		v    []int64
		p    float64
		want int64
	}{
		{ten, 50, 50},  // rank ceil(5.0) = 5
		{ten, 51, 60},  // rank ceil(5.1) = 6
		{ten, 90, 90},  // rank 9
		{ten, 99, 100}, // rank ceil(9.9) = 10
		{ten, 100, 100},
		{ten, 0, 10},
		{[]int64{7}, 50, 7},
		{[]int64{1, 2, 3}, 50, 2},
		{nil, 50, 0},
	} {
		if got := percentile(tc.v, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %v) = %d, want %d", tc.v, tc.p, got, tc.want)
		}
	}
}

// A request issued late is charged the wait: latency runs from the due
// time, and the generator's lateness is kept apart from it.
func TestDueTimeAccounting(t *testing.T) {
	start := time.Unix(1000, 0)
	ol := newOpenLoop(schedule{start: start, interval: 2 * time.Millisecond}, 4)
	due := ol.sched.due(3)
	if want := start.Add(6 * time.Millisecond); !due.Equal(want) {
		t.Fatalf("due(3) = %v, want %v", due, want)
	}
	ol.issued(3, due.Add(3*time.Millisecond))    // generator ran 3 ms late
	ol.completed(3, due.Add(5*time.Millisecond)) // reply 2 ms after the late issue
	if got := time.Duration(ol.latency.v[0]); got != 5*time.Millisecond {
		t.Errorf("latency %v, want 5ms (from the due time, not the issue time)", got)
	}
	if got := time.Duration(ol.lateness.v[0]); got != 3*time.Millisecond {
		t.Errorf("lateness %v, want 3ms", got)
	}
}

func TestMedianFloat(t *testing.T) {
	if got := medianFloat([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median %v", got)
	}
	if got := medianFloat([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median %v", got)
	}
}

// Self time subtracts the union of the children's intervals, clipped to the
// parent, so overlapping children (parallel app.execute) are not counted
// twice and a causal child that ran after the parent ended counts nothing.
func TestSpanSelfTime(t *testing.T) {
	sb := newSpanBuf(8)
	put := func(name uint8, parent int32, start, end int64) int32 {
		i := sb.begin(name, parent, 0)
		sb.spans[i].start, sb.spans[i].end = start, end
		return i
	}
	core := put(spCoreOnVerified, -1, 100, 200)
	put(spAppExecute, core, 110, 150)
	put(spAppExecute, core, 130, 170) // overlaps the first: union is 110..170
	put(spMessageEncode, core, 250, 260)
	tot := sb.totals()
	if got := tot.total[spCoreOnVerified] - tot.childCover[spCoreOnVerified]; got != 40 {
		t.Errorf("core self time %d ns, want 40", got)
	}
	if tot.count[spAppExecute] != 2 || tot.total[spAppExecute] != 80 {
		t.Errorf("app.execute count %d total %d, want 2 and 80", tot.count[spAppExecute], tot.total[spAppExecute])
	}
}

func TestSpanBufDropsWhenFull(t *testing.T) {
	sb := newSpanBuf(1)
	sb.end(sb.begin(spCoreTick, -1, 0))
	if i := sb.begin(spCoreTick, -1, 0); i != -1 {
		t.Fatalf("begin on a full buffer returned %d", i)
	}
	sb.end(-1)
	if len(sb.recorded()) != 1 || sb.dropped.Load() != 1 {
		t.Fatalf("recorded %d dropped %d, want 1 1", len(sb.recorded()), sb.dropped.Load())
	}
}

// The steal gate reads the first line of /proc/stat: the eighth value is the
// stolen ticks, the first eight together all ticks. Anything else turns the
// gate off.
func TestParseCPUTicks(t *testing.T) {
	stat := []byte("cpu  2211864 8354 102162 1485198 19620 0 30149 24917 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n")
	steal, total, ok := parseCPUTicks(stat)
	if !ok || steal != 24917 || total != 2211864+8354+102162+1485198+19620+0+30149+24917 {
		t.Fatalf("got steal %d total %d ok %v", steal, total, ok)
	}
	for _, bad := range []string{"", "cpu 1 2 3 4 5 6 7\n", "intr 1 2 3 4 5 6 7 8\n", "cpu 1 2 3 x 5 6 7 8\n"} {
		if _, _, ok := parseCPUTicks([]byte(bad)); ok {
			t.Errorf("%q accepted", bad)
		}
	}
}
