package crypto

import (
	"bytes"
	"crypto/ed25519"
	"encoding/hex"
	"errors"
	"math/big"
	"sync"
	"testing"
	"unsafe"

	"rbft/internal/crypto/edwards25519"
	"rbft/internal/types"
)

// hexBytes decodes a test constant.
func hexBytes(t testing.TB, s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// smallOrderPoints are encodings of the eight points of order 1, 2, 4 and 8,
// with non-canonical encodings of some of them: y ≥ p, and x = 0 with the
// sign bit set. SetBytes accepts every one.
var smallOrderPoints = []string{
	"0100000000000000000000000000000000000000000000000000000000000000", // identity
	"0100000000000000000000000000000000000000000000000000000000000080", // identity, sign bit set
	"eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f", // identity, y = p+1
	"ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f", // order 2
	"0000000000000000000000000000000000000000000000000000000000000000", // order 4
	"0000000000000000000000000000000000000000000000000000000000000080", // order 4
	"edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f", // order 4, y = p
	"26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05", // order 8
	"26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85", // order 8
	"c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a", // order 8
	"c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa", // order 8
}

// invalidPoints are 32-byte strings that encode no curve point.
var invalidPoints = []string{
	"0200000000000000000000000000000000000000000000000000000000000000", // y = 2
	"0700000000000000000000000000000000000000000000000000000000000080", // y = 7, sign bit set
	"efffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f", // y = p+2
}

// order is l, the order of the prime-order subgroup, as a big integer.
var order, _ = new(big.Int).SetString("7237005577332262213973186563042994240857116359379907606001950938285454250989", 10)

// littleEndian encodes x as 32 little-endian bytes.
func littleEndian(x *big.Int) []byte {
	out := make([]byte, 32)
	be := x.Bytes()
	for i, b := range be {
		out[len(be)-1-i] = b
	}
	return out
}

// TestSmallOrderPointsHaveSmallOrder: every smallOrderPoints entry decodes,
// and 8 times it, computed against its table, is the identity.
func TestSmallOrderPointsHaveSmallOrder(t *testing.T) {
	var eight, zero edwards25519.Scalar
	eightBytes := make([]byte, 32)
	eightBytes[0] = 8
	if _, err := eight.SetCanonicalBytes(eightBytes); err != nil {
		t.Fatal(err)
	}
	if _, err := zero.SetCanonicalBytes(make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	identity := hexBytes(t, smallOrderPoints[0])
	for _, enc := range smallOrderPoints {
		var p edwards25519.Point
		if _, err := p.SetBytes(hexBytes(t, enc)); err != nil {
			t.Fatalf("%s: %v", enc, err)
		}
		var q edwards25519.Point
		if got := q.VarTimeDoubleTableMult(&eight, new(edwards25519.Table).SetPoint(&p), &zero).Bytes(); !bytes.Equal(got, identity) {
			t.Errorf("8·%s = %x, want the identity", enc, got)
		}
	}
	for _, enc := range invalidPoints {
		if _, err := newKeyTable(hexBytes(t, enc)); err == nil {
			t.Errorf("%s decoded, want an error", enc)
		}
	}
}

// FuzzVerifyMatchesStdlib: the key-table check and ed25519.Verify return the
// same verdict. Each input is checked buildAt+1 times through a KeyStore:
// cold (the key's first buildAt−1 checks, ed25519.Verify), building (the
// buildAt-th, which builds the table and checks against it) and warm; and
// once more at the edwards25519 level against the table of an arbitrary
// 32-byte A. sig is the store's signature
// of msg with edit XORed into it, or edit itself when raw is set.
func FuzzVerifyMatchesStdlib(f *testing.F) {
	secret, msg := []byte("fuzz-secret"), []byte("signed request header")
	sig := NewKeyStore(secret, 1, 1).ClientRing(0).Sign(msg)
	s := new(big.Int).SetBytes(reverse(sig[32:]))
	withS := func(x *big.Int) []byte { return append(append([]byte(nil), sig[:32]...), littleEndian(x)...) }
	withR := func(r []byte) []byte { return append(append([]byte(nil), r...), sig[32:]...) }
	highBit := func(b byte) []byte { e := make([]byte, 64); e[63] = b; return e }
	// With A the identity, [S]B = R + [k]A holds for any message when R is S·B.
	identitySig := append(hexBytes(f, "5866666666666666666666666666666666666666666666666666666666666666"), littleEndian(big.NewInt(1))...)

	f.Add(secret, msg, []byte(nil), []byte(nil), false)                                // valid
	f.Add(secret, msg, []byte{1}, []byte(nil), false)                                  // R altered
	f.Add(secret, msg, highBit(1), []byte(nil), false)                                 // S altered
	f.Add(secret, msg, withS(new(big.Int).Add(s, order)), []byte(nil), true)           // S + l: same S mod l
	f.Add(secret, msg, withS(order), []byte(nil), true)                                // S = l
	f.Add(secret, msg, withS(new(big.Int).Lsh(big.NewInt(1), 255)), []byte(nil), true) // S with the top bit set
	f.Add(secret, msg, highBit(0x20), []byte(nil), false)                              // sig[63] bit 5
	f.Add(secret, msg, highBit(0x40), []byte(nil), false)                              // sig[63] bit 6
	f.Add(secret, msg, highBit(0x80), []byte(nil), false)                              // sig[63] bit 7
	f.Add(secret, msg, sig[:63], []byte(nil), true)                                    // short
	f.Add(secret, msg, append(append([]byte(nil), sig...), 0), []byte(nil), true)      // long
	f.Add(secret, []byte(nil), []byte(nil), []byte(nil), false)                        // empty message
	f.Add(secret, bytes.Repeat([]byte{7}, 300), []byte(nil), []byte(nil), false)       // longer than a SHA-512 block
	for _, enc := range smallOrderPoints {
		f.Add(secret, msg, withR(hexBytes(f, enc)), hexBytes(f, enc), true) // small-order R and A
		f.Add(secret, msg, identitySig, hexBytes(f, enc), true)
	}
	for _, enc := range invalidPoints {
		f.Add(secret, msg, withR(hexBytes(f, enc)), hexBytes(f, enc), true) // R and A off the curve
	}

	f.Fuzz(func(t *testing.T, secret, msg, edit, pub []byte, raw bool) {
		ks := NewKeyStore(secret, 1, 1)
		sig := ks.ClientRing(0).Sign(msg)
		if raw {
			sig = edit
		} else {
			for i := 0; i < len(edit) && i < len(sig); i++ {
				sig[i] ^= edit[i]
			}
		}
		node := ks.NodeRing(0)
		want := ed25519.Verify(ks.pub(clientPrincipal(0)), msg, sig)
		for i := 1; i <= buildAt+1; i++ {
			if got := node.VerifyClientSignature(0, msg, sig) == nil; got != want {
				t.Fatalf("check %d (%s) says %v, ed25519.Verify %v", i, checkPath(i), got, want)
			}
		}
		if len(sig) == ed25519.SignatureSize && ks.tables[slotOf(clientPrincipal(0))].Load().table == nil {
			t.Fatalf("check %d built no table", buildAt)
		}

		if len(pub) != ed25519.PublicKeySize {
			return
		}
		want = ed25519.Verify(pub, msg, sig)
		table, err := newKeyTable(pub)
		if got := err == nil && verifyWithTable(pub, table, msg, sig); got != want {
			t.Fatalf("A = %x: table check says %v (decode error %v), ed25519.Verify %v", pub, got, err, want)
		}
	})
}

// checkPath names the path a key's i-th check in a row takes.
func checkPath(i int) string {
	switch {
	case i < buildAt:
		return "cold"
	case i == buildAt:
		return "building"
	}
	return "warm"
}

func reverse(b []byte) []byte {
	out := make([]byte, len(b))
	for i := range b {
		out[len(b)-1-i] = b[i]
	}
	return out
}

// slotEntry returns what p's slot holds, if p holds it.
func slotEntry(ks *KeyStore, p principal) *keySlot {
	if e := ks.tables[slotOf(p)].Load(); e != nil && e.who == p {
		return e
	}
	return nil
}

// warmUp makes the buildAt checks of c's signature that give c's key its
// table.
func warmUp(t testing.TB, node *KeyRing, c types.ClientID, data, sig []byte) {
	t.Helper()
	for i := 0; i < buildAt; i++ {
		if err := node.VerifyClientSignature(c, data, sig); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRunOfChecksBuildsTheTable: a key's first check leaves it in its slot
// without a table (ed25519.Verify did the check), and so do its next
// buildAt−2; the buildAt-th builds the table; a bad signature gets the same
// verdict on either path.
func TestRunOfChecksBuildsTheTable(t *testing.T) {
	ks := newTestStore()
	node := ks.NodeRing(0)
	data := []byte("signed request")
	sig := ks.ClientRing(2).Sign(data)
	bad := append([]byte(nil), sig...)
	bad[5] ^= 1
	p := clientPrincipal(2)

	check := func(s []byte, want bool) {
		t.Helper()
		if got := node.VerifyClientSignature(2, data, s) == nil; got != want {
			t.Fatalf("verdict %v, want %v", got, want)
		}
	}

	if slotEntry(ks, p) != nil {
		t.Fatal("a key nobody checked holds a slot")
	}
	for i := 1; i < buildAt; i++ {
		if i%2 == 1 {
			check(sig, true)
		} else {
			check(bad, false)
		}
		if e := slotEntry(ks, p); e == nil || e.table != nil {
			t.Fatalf("after check %d the slot holds %+v, want the key without a table", i, e)
		}
	}
	check(bad, false)
	if e := slotEntry(ks, p); e == nil || e.table == nil {
		t.Fatalf("check %d built no table", buildAt)
	}
	check(sig, true)
	check(bad, false)
}

// TestSlotTakingTurnsNeverBuildsATable: two principals that share a slot and
// take turns each find the other's key there, so every check is a first
// check and no table is ever built.
func TestSlotTakingTurnsNeverBuildsATable(t *testing.T) {
	ks := NewKeyStore([]byte("test-cluster-secret"), 4, 2*tableSlots)
	a, b := types.ClientID(3), types.ClientID(3+tableSlots)
	if slotOf(clientPrincipal(a)) != slotOf(clientPrincipal(b)) {
		t.Fatal("clients a slot count apart must share a slot")
	}
	node := ks.NodeRing(0)
	data := []byte("signed request")
	sigA, sigB := ks.ClientRing(a).Sign(data), ks.ClientRing(b).Sign(data)
	// The principals alternate; the signatures alternate at half their pace,
	// so each client sees its own signature and the other's.
	turns := []struct {
		c    types.ClientID
		sig  []byte
		want bool
	}{{a, sigA, true}, {b, sigA, false}, {a, sigB, false}, {b, sigB, true}}
	for i := 0; i < 5*len(turns); i++ {
		turn := turns[i%len(turns)]
		if got := node.VerifyClientSignature(turn.c, data, turn.sig) == nil; got != turn.want {
			t.Fatalf("check %d (client %d): verdict %v, want %v", i, turn.c, got, turn.want)
		}
		if e := slotEntry(ks, clientPrincipal(turn.c)); e == nil || e.table != nil {
			t.Fatalf("check %d (client %d) left %+v in the slot, want the client's key without a table", i, turn.c, e)
		}
	}
}

// TestTakingTurnsBoundsTheBuilds: two principals that share a slot and take
// turns in runs of r checks build a table once per run of at least buildAt
// checks and never in a shorter one, so at most one build per buildAt checks
// whatever r is.
func TestTakingTurnsBoundsTheBuilds(t *testing.T) {
	ks := NewKeyStore([]byte("test-cluster-secret"), 4, 2*tableSlots)
	a, b := types.ClientID(3), types.ClientID(3+tableSlots)
	node := ks.NodeRing(0)
	data := []byte("signed request")
	sigs := map[types.ClientID][]byte{a: ks.ClientRing(a).Sign(data), b: ks.ClientRing(b).Sign(data)}
	slot := &ks.tables[slotOf(clientPrincipal(a))]
	for _, run := range []int{1, 2, 3, buildAt - 1, buildAt, buildAt + 1, 2 * buildAt} {
		const turns = 6
		builds, checks := 0, 0
		var last *edwards25519.Table
		for turn := 0; turn < turns; turn++ {
			c := []types.ClientID{a, b}[turn%2]
			for i := 0; i < run; i++ {
				if err := node.VerifyClientSignature(c, data, sigs[c]); err != nil {
					t.Fatalf("run %d, turn %d, check %d: %v", run, turn, i, err)
				}
				checks++
				if e := slot.Load(); e.table != nil && e.table != last {
					builds, last = builds+1, e.table
				}
			}
		}
		want := 0
		if run >= buildAt {
			want = turns
		}
		if builds != want || builds > checks/buildAt {
			t.Errorf("runs of %d: %d builds in %d checks, want %d (at most one per %d checks)", run, builds, checks, want, buildAt)
		}
	}
}

// TestConcurrentChecksWhileTheTableBuilds: eight goroutines check good and
// bad signatures of one key through one shared KeyStore, from the check
// that builds the key's table on; every verdict is right. Run under -race.
func TestConcurrentChecksWhileTheTableBuilds(t *testing.T) {
	ks := newTestStore()
	data := []byte("signed request")
	sig := ks.ClientRing(1).Sign(data)
	bad := append([]byte(nil), sig...)
	bad[40] ^= 0x10
	for i := 1; i < buildAt; i++ {
		if err := ks.NodeRing(0).VerifyClientSignature(1, data, sig); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(node *KeyRing) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if err := node.VerifyClientSignature(1, data, sig); err != nil {
					errs <- err
					return
				}
				if err := node.VerifyClientSignature(1, data, bad); !errors.Is(err, ErrBadSignature) {
					errs <- errors.New("a bad signature verified")
					return
				}
			}
		}(ks.NodeRing(types.NodeID(g % 4)))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if e := slotEntry(ks, clientPrincipal(1)); e == nil || e.table == nil {
		t.Fatal("no table was built")
	}
}

// TestTableMemoryIsBounded: however many keys a store checks, it holds at
// most tableSlots tables of 30 KiB each.
func TestTableMemoryIsBounded(t *testing.T) {
	const clients = 3 * tableSlots
	ks := NewKeyStore([]byte("test-cluster-secret"), 4, clients)
	node := ks.NodeRing(0)
	data := []byte("signed request")
	for c := types.ClientID(0); c < clients; c++ {
		warmUp(t, node, c, data, ks.ClientRing(c).Sign(data))
	}
	tables := 0
	for i := range ks.tables {
		if e := ks.tables[i].Load(); e != nil && e.table != nil {
			tables++
		}
	}
	size := unsafe.Sizeof(edwards25519.Table{})
	if size != 30*1024 {
		t.Errorf("a table is %d bytes, want 30 KiB", size)
	}
	if tables != tableSlots {
		t.Errorf("%d clients checked %d times each left %d tables, want one per slot (%d)", clients, buildAt, tables, tableSlots)
	}
	t.Logf("%d tables, %d KiB, for %d keys", tables, uintptr(tables)*size/1024, clients)
}

// TestWarmSignatureCheckAllocatesNothing: once a key has its table, checking
// a signature allocates nothing, over a signed request header and over a
// message longer than any SHA-512 block buffer.
func TestWarmSignatureCheckAllocatesNothing(t *testing.T) {
	ks := newTestStore()
	node := ks.NodeRing(0)
	for _, size := range []int{1 + types.DigestSize, 4096} {
		data := make([]byte, size)
		sig := ks.ClientRing(1).Sign(data)
		warmUp(t, node, 1, data, sig)
		allocs := testing.AllocsPerRun(20, func() {
			if err := node.VerifyClientSignature(1, data, sig); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("a warm check over %d bytes allocates %.1f times, want 0", size, allocs)
		}
	}
}

// BenchmarkVerifySignature times one client signature check: cold, when the
// key's slot keeps changing hands (ed25519.Verify), and warm, against the
// key's table.
func BenchmarkVerifySignature(b *testing.B) {
	ks := NewKeyStore([]byte("test-cluster-secret"), 4, 2*tableSlots)
	node := ks.NodeRing(0)
	data := make([]byte, 1+types.DigestSize)
	a, c := types.ClientID(1), types.ClientID(1+tableSlots)
	sigs := map[types.ClientID][]byte{a: ks.ClientRing(a).Sign(data), c: ks.ClientRing(c).Sign(data)}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			id := []types.ClientID{a, c}[i%2]
			if err := node.VerifyClientSignature(id, data, sigs[id]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		warmUp(b, node, a, data, sigs[a])
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := node.VerifyClientSignature(a, data, sigs[a]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
