package types

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewConfig(t *testing.T) {
	tests := []struct {
		f          int
		wantN      int
		quorum     int
		weakQuorum int
		instances  int
	}{
		{f: 1, wantN: 4, quorum: 3, weakQuorum: 2, instances: 2},
		{f: 2, wantN: 7, quorum: 5, weakQuorum: 3, instances: 3},
		{f: 3, wantN: 10, quorum: 7, weakQuorum: 4, instances: 4},
	}
	for _, tt := range tests {
		c := NewConfig(tt.f)
		if err := c.Validate(); err != nil {
			t.Errorf("f=%d: Validate() = %v", tt.f, err)
		}
		if c.N != tt.wantN {
			t.Errorf("f=%d: N = %d, want %d", tt.f, c.N, tt.wantN)
		}
		if got := c.Quorum(); got != tt.quorum {
			t.Errorf("f=%d: Quorum() = %d, want %d", tt.f, got, tt.quorum)
		}
		if got := c.WeakQuorum(); got != tt.weakQuorum {
			t.Errorf("f=%d: WeakQuorum() = %d, want %d", tt.f, got, tt.weakQuorum)
		}
		if got := c.Instances(); got != tt.instances {
			t.Errorf("f=%d: Instances() = %d, want %d", tt.f, got, tt.instances)
		}
		if got := c.PrepareQuorum(); got != 2*tt.f {
			t.Errorf("f=%d: PrepareQuorum() = %d, want %d", tt.f, got, 2*tt.f)
		}
	}
}

// TestNamedThresholdHelpers pins the package-level helpers — the single
// authority for quorum arithmetic repository-wide (the quorumsafety analyzer
// forbids the raw expressions everywhere else) — and checks that the Config
// methods agree with them.
func TestNamedThresholdHelpers(t *testing.T) {
	for f := 0; f <= 10; f++ {
		if got, want := Quorum(f), 2*f+1; got != want {
			t.Errorf("Quorum(%d) = %d, want %d", f, got, want)
		}
		if got, want := WeakQuorum(f), f+1; got != want {
			t.Errorf("WeakQuorum(%d) = %d, want %d", f, got, want)
		}
		if got, want := PrepareThreshold(f), 2*f; got != want {
			t.Errorf("PrepareThreshold(%d) = %d, want %d", f, got, want)
		}
		if got, want := ClusterSize(f), 3*f+1; got != want {
			t.Errorf("ClusterSize(%d) = %d, want %d", f, got, want)
		}
		c := NewConfig(f)
		if c.Quorum() != Quorum(f) || c.WeakQuorum() != WeakQuorum(f) ||
			c.PrepareQuorum() != PrepareThreshold(f) || c.N != ClusterSize(f) {
			t.Errorf("f=%d: Config methods disagree with package helpers", f)
		}
		// The quorum-intersection argument the protocol rests on: two 2f+1
		// quorums in a 3f+1 cluster share at least f+1 nodes, hence at
		// least one correct one.
		if overlap := 2*Quorum(f) - ClusterSize(f); overlap < WeakQuorum(f) {
			t.Errorf("f=%d: quorum intersection %d below weak quorum %d", f, overlap, WeakQuorum(f))
		}
	}
}

func TestConfigValidateRejectsMalformed(t *testing.T) {
	tests := []Config{
		{N: 4, F: 2},
		{N: 5, F: 1},
		{N: 0, F: 0},
		{N: 3, F: -1},
	}
	for _, c := range tests {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", c)
		}
	}
}

// TestPrimaryPlacementInvariant checks the paper's placement requirement: at
// any view, the f+1 instances have their primaries on f+1 distinct nodes, so
// no node ever hosts more than one primary.
func TestPrimaryPlacementInvariant(t *testing.T) {
	for f := 1; f <= 5; f++ {
		c := NewConfig(f)
		for v := View(0); v < View(4*c.N); v++ {
			seen := make(map[NodeID]InstanceID, c.Instances())
			for i := InstanceID(0); int(i) < c.Instances(); i++ {
				p := c.PrimaryOf(v, i)
				if p < 0 || int(p) >= c.N {
					t.Fatalf("f=%d v=%d inst=%d: primary %d out of range", f, v, i, p)
				}
				if other, dup := seen[p]; dup {
					t.Fatalf("f=%d v=%d: node %d is primary of instances %d and %d", f, v, p, other, i)
				}
				seen[p] = i
			}
		}
	}
}

// TestPrimaryRotation checks that an instance change (view+1) moves the
// master primary to a different node.
func TestPrimaryRotation(t *testing.T) {
	c := NewConfig(1)
	for v := View(0); v < 100; v++ {
		before := c.PrimaryOf(v, MasterInstance)
		after := c.PrimaryOf(v+1, MasterInstance)
		if before == after {
			t.Fatalf("view %d -> %d: master primary did not move (node %d)", v, v+1, before)
		}
	}
}

func TestPrimaryPlacementProperty(t *testing.T) {
	prop := func(fRaw uint8, vRaw uint64) bool {
		f := int(fRaw%5) + 1
		c := NewConfig(f)
		v := View(vRaw)
		seen := make(map[NodeID]bool, c.Instances())
		for i := InstanceID(0); int(i) < c.Instances(); i++ {
			p := c.PrimaryOf(v, i)
			if seen[p] {
				return false
			}
			seen[p] = true
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestAllNodes(t *testing.T) {
	c := NewConfig(2)
	nodes := c.AllNodes()
	if len(nodes) != 7 {
		t.Fatalf("AllNodes() returned %d nodes, want 7", len(nodes))
	}
	for i, n := range nodes {
		if int(n) != i {
			t.Errorf("AllNodes()[%d] = %d", i, n)
		}
	}
}

func TestOtherNodes(t *testing.T) {
	c := NewConfig(1)
	for self, want := range [][]NodeID{{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}} {
		if got := c.OtherNodes(NodeID(self)); !reflect.DeepEqual(got, want) {
			t.Errorf("OtherNodes(%d) = %v, want %v", self, got, want)
		}
	}
}

func TestRequestRefKey(t *testing.T) {
	a := RequestRef{Client: 7, ID: 42, Digest: Digest{1}}
	b := RequestRef{Client: 7, ID: 42, Digest: Digest{2}}
	if a.Key() != b.Key() {
		t.Error("refs differing only in digest must share a key (equivocation detection)")
	}
	c := RequestRef{Client: 7, ID: 43, Digest: Digest{1}}
	if a.Key() == c.Key() {
		t.Error("refs with different request ids must not share a key")
	}
}

func TestDigestHelpers(t *testing.T) {
	var zero Digest
	if !zero.IsZero() {
		t.Error("zero digest should report IsZero")
	}
	d := Digest{0xab, 0xcd}
	if d.IsZero() {
		t.Error("non-zero digest should not report IsZero")
	}
	if got := d.String(); got != "abcd0000" {
		t.Errorf("String() = %q", got)
	}
}
