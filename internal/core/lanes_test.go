package core

import (
	"slices"
	"sort"
	"testing"

	"rbft/internal/pbft"
	"rbft/internal/types"
)

// laneRef builds the deterministic batch contents for lane l's sequence s in
// merge tests: the contents only matter for identity checks.
func laneRef(l types.InstanceID, s types.SeqNum) []types.RequestRef {
	return []types.RequestRef{{
		Client: types.ClientID(l),
		ID:     types.RequestID(s),
		Digest: types.Digest{byte(l), byte(s)},
	}}
}

// lanePush pushes lane l's batch at seq s, laneRef's contents, into m.
func lanePush(m *laneMerge, l types.InstanceID, s types.SeqNum) []pbft.Batch {
	return m.push(pbft.Batch{Instance: l, Seq: s, Refs: laneRef(l, s)})
}

func TestLaneMergeRoundRobin(t *testing.T) {
	m := newLaneMerge(2)
	if out := lanePush(m, 1, 1); len(out) != 0 {
		t.Fatalf("lane 1 released %d batches while lane 0 is empty", len(out))
	}
	if lane, ok := m.stalled(); !ok || lane != 0 {
		t.Fatalf("stalled() = (%d, %v), want (0, true)", lane, ok)
	}
	out := lanePush(m, 0, 1)
	if len(out) != 2 {
		t.Fatalf("released %d batches, want 2", len(out))
	}
	if out[0].Instance != 0 || out[0].Seq != 1 || out[1].Instance != 1 || out[1].Seq != 1 {
		t.Fatalf("release order %v, want lane0/1 then lane1/1", out)
	}
	if _, ok := m.stalled(); ok {
		t.Fatal("drained merge reports a stall")
	}
	// A redelivery of an already-merged sequence is discarded.
	if out := lanePush(m, 0, 1); len(out) != 0 {
		t.Fatalf("redelivery released %d batches", len(out))
	}
	if got := slices.Clone(m.next); got[0] != 2 || got[1] != 2 {
		t.Fatalf("cursors = %v, want [2 2]", got)
	}
}

func TestLaneMergeRestore(t *testing.T) {
	m := newLaneMerge(2)
	// Replayed merged records: lane 0 consumed through 3, lane 1 through 2.
	m.restoreCursor(0, 1)
	m.restoreCursor(0, 2)
	m.restoreCursor(0, 3)
	m.restoreCursor(1, 1)
	m.restoreCursor(1, 2)
	// Lane 1's stable checkpoint ran ahead to 4 while the merge waited on
	// lane 0: the clamp must skip the unfetchable gap.
	m.finishRestore([]types.SeqNum{3, 4})
	if got := slices.Clone(m.next); got[0] != 4 || got[1] != 5 {
		t.Fatalf("cursors after restore = %v, want [4 5]", got)
	}
	// Strict rotation consumed lane 0 three times and lane 1 twice... but
	// the clamp moved lane 1 ahead; the turn is the first lane with the
	// minimal cursor, so the rotation resumes on lane 0.
	if m.turn != 0 {
		t.Fatalf("turn after restore = %d, want 0", m.turn)
	}
	out := lanePush(m, 0, 4)
	if len(out) != 1 || out[0].Instance != 0 || out[0].Seq != 4 {
		t.Fatalf("post-restore release = %v, want lane 0 seq 4", out)
	}
}

// FuzzMergeSchedule feeds arbitrary interleavings of per-lane delivery
// streams to the merge scheduler. Invariants:
//   - determinism: any two interleavings of the same delivered batches
//     release the identical merged order (this is what makes multi-primary
//     execution consistent across nodes, whose lanes deliver in different
//     real-time orders);
//   - strict rotation: the i-th released batch is from lane i mod lanes;
//   - per-lane contiguity: each lane's released sequences are 1,2,3,...;
//   - duplicates and redeliveries release nothing.
func FuzzMergeSchedule(f *testing.F) {
	f.Add(uint8(2), []byte{0, 1, 1, 1, 0, 2, 1, 2})
	f.Add(uint8(2), []byte{1, 1, 1, 2, 1, 3, 0, 1, 0, 2, 0, 3})
	f.Add(uint8(3), []byte{2, 1, 0, 1, 1, 1, 2, 2, 1, 2, 0, 2})
	f.Add(uint8(1), []byte{0, 1, 0, 1, 0, 2})
	f.Add(uint8(4), []byte{3, 2, 3, 1, 2, 1, 0, 1, 1, 1})

	f.Fuzz(func(t *testing.T, lanesByte uint8, data []byte) {
		lanes := 1 + int(lanesByte)%4
		type op struct {
			lane types.InstanceID
			seq  types.SeqNum
		}
		var ops []op
		for i := 0; i+1 < len(data); i += 2 {
			ops = append(ops, op{
				lane: types.InstanceID(int(data[i]) % lanes),
				seq:  types.SeqNum(1 + int(data[i+1])%8),
			})
		}

		apply := func(order []op) (released []pbft.Batch, m *laneMerge) {
			m = newLaneMerge(lanes)
			for _, o := range order {
				released = append(released, lanePush(m, o.lane, o.seq)...)
			}
			return released, m
		}

		fuzzOrder, mA := apply(ops)
		canonical := append([]op(nil), ops...)
		sort.SliceStable(canonical, func(i, j int) bool {
			if canonical[i].lane != canonical[j].lane {
				return canonical[i].lane < canonical[j].lane
			}
			return canonical[i].seq < canonical[j].seq
		})
		canonOrder, mB := apply(canonical)

		if len(fuzzOrder) != len(canonOrder) {
			t.Fatalf("interleavings released %d vs %d batches", len(fuzzOrder), len(canonOrder))
		}
		for i := range fuzzOrder {
			a, b := fuzzOrder[i], canonOrder[i]
			if a.Instance != b.Instance || a.Seq != b.Seq || !sameRefs(a.Refs, b.Refs) {
				t.Fatalf("release %d differs between interleavings: (%d,%d) vs (%d,%d)",
					i, a.Instance, a.Seq, b.Instance, b.Seq)
			}
		}
		ca, cb := slices.Clone(mA.next), slices.Clone(mB.next)
		for i := range ca {
			if ca[i] != cb[i] {
				t.Fatalf("cursors differ between interleavings: %v vs %v", ca, cb)
			}
		}

		next := make([]types.SeqNum, lanes)
		for i := range next {
			next[i] = 1
		}
		for i, mb := range fuzzOrder {
			if int(mb.Instance) != i%lanes {
				t.Fatalf("release %d from lane %d breaks strict rotation (lanes=%d)", i, mb.Instance, lanes)
			}
			if mb.Seq != next[mb.Instance] {
				t.Fatalf("lane %d released seq %d, want contiguous %d", mb.Instance, mb.Seq, next[mb.Instance])
			}
			next[mb.Instance]++
		}
	})
}
