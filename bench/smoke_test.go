package main

import (
	"math"
	"testing"
)

// TestSmoke runs one short small-mem cycle against the real runtime and
// checks that every end-to-end metric BENCHMARK.json names is emitted with a
// finite, non-zero value: it fails when the benchmark no longer builds or
// runs against the runtime API, or the two lists drift apart.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a live cluster")
	}
	if raceEnabled {
		t.Skip("the race detector slows the cluster below the rate phase's fixed offered load")
	}
	spec, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) == 0 {
		t.Fatal("BENCHMARK.json names no end-to-end metrics")
	}
	w, _ := workloadByName("small-mem")
	res, err := runEndToEnd(w, 1, cycleSeconds, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	for _, e := range spec.EndToEnd {
		m, ok := res.Metrics[e.Name]
		if !ok {
			t.Errorf("metric %s not emitted", e.Name)
			continue
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value <= 0 {
			t.Errorf("metric %s = %v", e.Name, m.Value)
		}
		if m.Unit != e.Unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", e.Name, m.Unit, e.Unit)
		}
	}
	if len(res.Metrics) != len(spec.EndToEnd) {
		t.Errorf("run emitted %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(spec.EndToEnd))
	}
}

// TestSteppedCountsRepeat pins the property the per-layer counts rest on:
// the stepped pass is a pure function of the seed.
func TestSteppedCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the stepped cluster twice")
	}
	for _, name := range []string{"small-mem", "kv-tcp-wal"} {
		w, _ := workloadByName(name)
		type counts struct{ frames, bytes, propagate, calls, records uint64 }
		var got [2]counts
		for i := range got {
			s, err := newStepped(w, genOps(w, 5), t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			err = s.run(300)
			s.close()
			if err != nil {
				t.Fatal(err)
			}
			got[i] = counts{s.frames, s.frameBytes, s.propagateBytes, s.applyCalls, s.records}
		}
		if got[0] != got[1] || got[0].frames == 0 {
			t.Errorf("%s: stepped counts differ between two runs of one seed: %+v vs %+v", name, got[0], got[1])
		}
	}
}
