package client

// Speculative read acceptance (docs/CLIENTS.md). A read-only request skips
// ordering, so each replica answers from its own local state — possibly at
// different points of the execution stream. The client therefore accepts a
// read only once a full read quorum (types.Quorum, 2f+1) of replicas returns
// byte-identical results: any 2f+1 set contains at least f+1 correct
// replicas, and f+1 correct replicas agreeing on a value pins it to a
// consistent snapshot. When no result group can reach the quorum any more,
// the read is refuted and the client re-issues the operation through normal
// ordering.

// tally summarises the reply state of one pending request: the size of the
// largest matching-result group and the number of distinct nodes heard from.
// A Byzantine node voting in several groups inflates distinct, which can
// only make refutation fire earlier — the fallback path is always safe.
func (p *pending) tally() (best, distinct int) {
	for _, v := range p.votes {
		best = max(best, v.n)
		distinct += v.n
	}
	return best, distinct
}

// readVerdict classifies a speculative read's reply tally. best is the
// largest matching-reply group, distinct the distinct nodes heard from, n
// the cluster size and quorum the read quorum (types.Quorum — never a raw
// 2*f+1, the quorumsafety analyzer enforces the helper). accepted means
// some group reached the quorum; impossible means even if every node not
// yet heard from joined the best group it could not reach the quorum, so
// waiting longer is pointless and the client should fall back to ordering.
func readVerdict(best, distinct, n, quorum int) (accepted, impossible bool) {
	if best >= quorum {
		return true, false
	}
	return false, best+(n-distinct) < quorum
}
