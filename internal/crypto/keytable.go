package crypto

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha512"
	"sync/atomic"

	"rbft/internal/crypto/edwards25519"
)

// tableSlots is the number of key tables a KeyStore keeps. A principal owns
// slot slotOf(p): nodes count up from slot 0 and clients from the middle, so
// a cluster's nodes and its first clients never share one. A table is 30 KiB,
// so a store holds at most tableSlots × 30 KiB (1.9 MiB) of them, however
// many principals it serves.
const tableSlots = 64

func slotOf(p principal) int {
	return int((uint64(p) + uint64(p)>>32*tableSlots/2) % tableSlots)
}

// buildAt is how many checks in a row a key gets in its slot before its
// table is built: the buildAt-th builds it, if no other principal's check
// took the slot in between. A build costs about two ed25519.Verify calls and
// every build follows buildAt−1 checks through ed25519.Verify, so however
// principals take turns in a slot, their checks cost at most about 2/buildAt
// (an eighth) more than ed25519.Verify alone.
const buildAt = 16

// keySlot is what a table slot holds: one principal's public key, the
// number of its checks in a row here, and from its buildAt-th check on the
// table of its negation. Apart from that count it is never modified once
// published; the slot moves on by swapping the pointer, so a check reads it
// without a lock.
type keySlot struct {
	who    principal
	pub    ed25519.PublicKey
	table  *edwards25519.Table // −A's multiples; nil before the buildAt-th check
	checks atomic.Uint32       // checks of who in this slot while table is nil
}

// verify reports whether sig is p's Ed25519 signature over msg. Until a key
// has made buildAt checks in a row in its slot, a check is ed25519.Verify;
// the buildAt-th builds the key's table and every later one uses it. Another
// principal's check in the slot starts the count again.
func (ks *KeyStore) verify(p principal, msg, sig []byte) bool {
	slot := &ks.tables[slotOf(p)]
	e := slot.Load()
	if e == nil || e.who != p {
		fresh := &keySlot{who: p, pub: ks.pub(p)}
		fresh.checks.Store(1)
		slot.CompareAndSwap(e, fresh) // unless a concurrent check moved it on
		return ed25519.Verify(fresh.pub, msg, sig)
	}
	if e.table == nil {
		if e.checks.Add(1) != buildAt {
			return ed25519.Verify(e.pub, msg, sig) // too soon, or another check builds it
		}
		table, err := newKeyTable(e.pub)
		if err != nil {
			return false // A does not decode: ed25519.Verify rejects it too
		}
		built := &keySlot{who: p, pub: e.pub, table: table}
		slot.CompareAndSwap(e, built) // unless evicted meanwhile
		e = built
	}
	return verifyWithTable(e.pub, e.table, msg, sig)
}

// newKeyTable decodes the public key A as ed25519.Verify does and returns
// the table of −A.
func newKeyTable(pub []byte) (*edwards25519.Table, error) {
	var a edwards25519.Point
	if _, err := a.SetBytes(pub); err != nil {
		return nil, err
	}
	return new(edwards25519.Table).SetPoint(a.Negate(&a)), nil
}

// verifyWithTable is ed25519.Verify with −A's table in place of A: the same
// checks on the same bytes (64-byte signature, the top three bits of its last
// byte clear, S canonical, k = SHA-512(R ‖ A ‖ msg) mod l), then
// [k](−A) + [S]B computed against the two tables and encoded for comparison
// with R.
func verifyWithTable(pub []byte, minusA *edwards25519.Table, msg, sig []byte) bool {
	if len(sig) != ed25519.SignatureSize || sig[63]&224 != 0 {
		return false
	}
	var s, k edwards25519.Scalar
	if _, err := s.SetCanonicalBytes(sig[32:]); err != nil {
		return false
	}
	// sha512.New inlines and its Digest stays on the stack: no allocation.
	h := sha512.New()
	h.Write(sig[:32])
	h.Write(pub)
	h.Write(msg)
	var digest [sha512.Size]byte
	_, _ = k.SetUniformBytes(h.Sum(digest[:0])) // cannot fail: a SHA-512 sum is the 64 bytes it takes
	var r edwards25519.Point
	return bytes.Equal(sig[:32], r.VarTimeDoubleTableMult(&k, minusA, &s).Bytes())
}
