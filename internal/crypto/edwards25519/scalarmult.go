// Copyright (c) 2019 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

package edwards25519

import (
	"sync"

	"rbft/internal/crypto/edwards25519/field"
)

// Table holds the affine multiples j·256^i·Q of one point Q, for i < 32 and
// 1 ≤ j ≤ 8: with a Scalar's signed radix-16 digits, a multiple of Q is 64
// table additions and four doublings. It is 30 KiB; SetPoint builds it at
// about the cost of three Ed25519 verifications.
type Table struct {
	points [32][8]affineCached
}

// SetPoint sets t to the multiples of q, and returns t. All 256 are brought
// to affine form with one field inversion (Montgomery's batch trick).
func (t *Table) SetPoint(q *Point) *Table {
	checkInitialized(q)
	var pts [32][8]Point // pts[i][j] = (j+1)·256^i·q, extended coordinates
	var qc projCached
	var p1 projP1xP1
	var p2 projP2
	base := *q
	for i := range pts {
		qc.FromP3(&base)
		pts[i][0] = base
		for j := 1; j < 8; j++ {
			pts[i][j].fromP1xP1(p1.Add(&pts[i][j-1], &qc))
		}
		// 256·base is 8·base doubled five times.
		p2.FromP3(&pts[i][7])
		for k := 0; k < 4; k++ {
			p2.FromP1xP1(p1.Double(&p2))
		}
		base.fromP1xP1(p1.Double(&p2))
	}

	// prefix[k] is the product of the first k points' Z.
	var prefix [256]field.Element
	var inv field.Element
	inv.One()
	for k := range prefix {
		prefix[k] = inv
		inv.Multiply(&inv, &pts[k/8][k%8].z)
	}
	inv.Invert(&inv)
	for k := len(prefix) - 1; k >= 0; k-- {
		p := &pts[k/8][k%8]
		var zInv, x, y field.Element
		zInv.Multiply(&inv, &prefix[k]) // 1/Z of point k
		inv.Multiply(&inv, &p.z)        // 1/Z of the first k points together
		x.Multiply(&p.x, &zInv)
		y.Multiply(&p.y, &zInv)
		c := &t.points[k/8][k%8]
		c.YplusX.Add(&y, &x)
		c.YminusX.Subtract(&y, &x)
		c.T2d.Multiply(&x, &y)
		c.T2d.Multiply(&c.T2d, d2)
	}
	return t
}

// basepointTable is the Table of the canonical generator. It is built the
// first time it is used.
func basepointTable() *Table {
	basepointTablePrecomp.initOnce.Do(func() {
		basepointTablePrecomp.table.SetPoint(generator)
	})
	return &basepointTablePrecomp.table
}

var basepointTablePrecomp struct {
	table    Table
	initOnce sync.Once
}

// VarTimeDoubleTableMult sets v = a·Q + b·B, where qt is the Table of Q and B
// is the canonical generator, and returns v.
//
// Execution time depends on the inputs.
func (v *Point) VarTimeDoubleTableMult(a *Scalar, qt *Table, b *Scalar) *Point {
	bt := basepointTable()
	// Write a = Σ a_i·16^i with -8 ≤ a_i ≤ 8, and b likewise. 16^i is
	// 256^(i/2) for even i and 16·256^(i/2) for odd i, so the odd digits are
	// summed first, multiplied by 16, and the even digits added on top.
	aDigits, bDigits := a.signedRadix16(), b.signedRadix16()
	var p1 projP1xP1
	var p2 projP2
	v.Set(identity)
	for i := 1; i < 64; i += 2 {
		v.addMultiple(&p1, &qt.points[i/2], aDigits[i])
		v.addMultiple(&p1, &bt.points[i/2], bDigits[i])
	}
	p2.FromP3(v)
	for k := 0; k < 3; k++ {
		p2.FromP1xP1(p1.Double(&p2))
	}
	v.fromP1xP1(p1.Double(&p2))
	for i := 0; i < 64; i += 2 {
		v.addMultiple(&p1, &qt.points[i/2], aDigits[i])
		v.addMultiple(&p1, &bt.points[i/2], bDigits[i])
	}
	return v
}

// addMultiple sets v = v + x·Q, where row holds Q, 2Q, ..., 8Q and
// -8 ≤ x ≤ 8, using tmp as scratch. A zero digit costs nothing.
func (v *Point) addMultiple(tmp *projP1xP1, row *[8]affineCached, x int8) {
	switch {
	case x > 0:
		v.fromP1xP1(tmp.AddAffine(v, &row[x-1]))
	case x < 0:
		v.fromP1xP1(tmp.SubAffine(v, &row[-x-1]))
	}
}
