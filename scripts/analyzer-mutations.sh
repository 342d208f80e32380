#!/bin/sh
# Analyzer mutation audit (ROADMAP item 9): an analyzer must never be able to
# pass by checking nothing. Each mutation below seeds, in a temporary copy of
# the REAL tree (not the analyzers' fixtures), the violation one analyzer
# exists for; rbft-vet must then exit non-zero and name that analyzer. A
# mutation whose pattern no longer matches the source fails too, so the audit
# cannot rot into a no-op when the code it edits moves.
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/rbft-vet" ./cmd/rbft-vet
mkdir "$tmp/tree"
cp -R go.mod internal tools cmd "$tmp/tree/"

# mutate ANALYZER FILE SED-SCRIPT...: apply the sed scripts to FILE in the
# copy, vet FILE's package, restore FILE.
mutate() {
	analyzer=$1 file=$2
	shift 2
	for script in "$@"; do
		sed -i -e "$script" "$tmp/tree/$file"
	done
	if cmp -s "$file" "$tmp/tree/$file"; then
		echo "FAIL $analyzer: the mutation of $file did not apply (pattern stale?)"
		exit 1
	fi
	if out=$(cd "$tmp/tree" && "$tmp/rbft-vet" "./$(dirname "$file")/" 2>&1); then
		echo "FAIL $analyzer: rbft-vet passed a tree with its violation seeded in $file"
		exit 1
	fi
	if ! printf '%s\n' "$out" | grep -q ": $analyzer: "; then
		echo "FAIL $analyzer: rbft-vet failed on the mutated $file without naming it:"
		printf '%s\n' "$out"
		exit 1
	fi
	echo "ok   $analyzer fires on $file"
	cp "$file" "$tmp/tree/$file"
}

# The simulator reads the wall clock.
mutate simdeterminism internal/sim/sim.go \
	's|^\theap.Push(&s.events, &event{at: at, seq: s.seq, fn: fn})$|\t_ = time.Now()\n&|'
# The dispatch threshold spelled as raw arithmetic instead of WeakQuorum().
mutate quorumsafety internal/core/dispatch.go \
	's|r.nsenders < n.cfg.Cluster.WeakQuorum()|r.nsenders < n.cfg.Cluster.F+1|'
# An off-by-one commit quorum (2f+2 matching COMMITs).
mutate quorumsafety internal/pbft/pbft.go \
	's|if matching < in.cfg.Cluster.Quorum() {|if matching <= in.cfg.Cluster.Quorum() {|'
# A blocking call on an egress worker.
mutate pipeblock internal/runtime/egress.go \
	's|^func (e \*egress) worker(q \*peerQueue) {$|&\n\ttime.Sleep(time.Millisecond)|'
# A wave shard that serializes on a mutex: a stage annotation forbids taking
# one, whatever guards it.
mutate pipeblock internal/exec/exec.go \
	's|^\twg      sync.WaitGroup$|&\n\tmu      sync.Mutex|' \
	's|^func (s \*Scheduler) applyShard(ops \[\]Op, idx \[\]int, shard, stride int, results \[\]\[\]byte) {$|&\n\ts.mu.Lock()\n\tdefer s.mu.Unlock()|'
# Guarded client state read before the lock is taken. (The node runtime has
# no lock left to forget: its node is the apply loop's parameter, out of every
# other stage's reach.)
mutate lockdiscipline internal/runtime/runtime.go \
	's|^func (cr \*ClientRuntime) handlePacket(p transport.Packet) {$|&\n\t_ = cr.cl.Pending()|'
# Map iteration order escaping into a returned slice.
mutate maprange internal/sim/sim.go \
	'$a func closedPeers(sn *simNode) (peers []types.NodeID) { for p := range sn.closed { peers = append(peers, p) }; return peers }'
# A wire message type the replica's dispatch switch no longer handles.
mutate msghandler internal/pbft/pbft.go \
	'/^\tcase \*message.FetchResp:$/,+1d'
# A Verified value forged outside the message package.
mutate trustboundary internal/runtime/runtime.go \
	's|^func (nr \*NodeRuntime) apply(node \*core.Node, it \*ingressItem) {$|&\n\tit.v = \&message.Verified{Msg: it.v.Msg}|'
# A decoded, unverified message stored in guarded state.
mutate trustboundary internal/runtime/runtime.go \
	's|^\tcl \*client.Client // guarded by mu$|&\n\tlast message.Message // guarded by mu|' \
	's|^\trep, ok := msg.(\*message.Reply)$|\tcr.last = msg\n&|'
# A decoded, unverified message kept on the simulated node instead of only
# being costed: in the simulator, too, a node sees a frame's content solely
# through Preverify*Frame.
mutate trustboundary internal/sim/sim.go \
	's|^\tnode \*core.Node$|&\n\tlast message.Message // guarded by epoch|' \
	's|^\t} else if msg, err := message.Decode(frame); err == nil {$|&\n\t\tsn.last = msg|'
