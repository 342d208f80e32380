#!/bin/sh
# CI gate: build, stock vet, the protocol-invariant analyzers, the test
# suite, and the race detector over the concurrent packages. Every step
# must pass; see docs/STATIC_ANALYSIS.md for what rbft-vet enforces.
set -eu
cd "$(dirname "$0")/.."

echo "== go build ./... =="
go build ./...

echo "== gofmt -l (every .go file but the analyzers' testdata fixtures; bench/ included) =="
unformatted=$(gofmt -l . | grep -v '/testdata/' || true)
if [ -n "$unformatted" ]; then
	echo "not gofmt-formatted:"
	echo "$unformatted"
	exit 1
fi

echo "== go vet ./... =="
go vet ./...

echo "== rbft-vet ./... =="
go run ./cmd/rbft-vet ./...

echo "== vet-fixtures (analyzer self-tests) =="
go test ./tools/analyzers/...

echo "== analyzer mutations (every analyzer fires on its violation seeded in the real tree) =="
sh scripts/analyzer-mutations.sh

echo "== go test ./... =="
go test ./...

echo "== bench/ module (nested; tier-1 only type-checks it via TestBenchModuleCompiles) =="
(
	export GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local
	go vet -C bench ./...
	go test -C bench ./...
)

echo "== go test -race (concurrent packages) =="
go test -race ./internal/runtime/... ./internal/transport/... ./internal/message/... ./internal/crypto/... ./internal/client/... ./internal/obs/... ./internal/wal/... ./internal/exec/...

echo "== lifecycle spans under -race, 20 runs (the recorder is read after Stop joins the egress workers) =="
go test -race -count=20 -run '^TestRuntimeEmitsLifecycleSpans$' ./internal/runtime

echo "== one Ed25519 check per bundle per node under -race, 20 runs (the verification cache's single flight on the real verifier pools) =="
go test -race -count=20 -run '^TestOneSignatureCheckPerBundlePerNode$' ./internal/runtime

echo "== fuzz smoke (internal/message, internal/crypto, internal/wal, internal/transport, internal/core, internal/exec, internal/client, internal/app) =="
go test ./internal/message -run '^$' -fuzz '^FuzzDecode$' -fuzztime 5s
go test ./internal/message -run '^$' -fuzz '^FuzzPreverify$' -fuzztime 5s
go test ./internal/crypto -run '^$' -fuzz '^FuzzVerifyMatchesStdlib$' -fuzztime 5s
go test ./internal/wal -run '^$' -fuzz '^FuzzWALReplay$' -fuzztime 5s
go test ./internal/transport -run '^$' -fuzz '^FuzzFrameBatch$' -fuzztime 5s
go test ./internal/transport/tcpnet -run '^$' -fuzz '^FuzzFrameReader$' -fuzztime 5s
go test ./internal/core -run '^$' -fuzz '^FuzzMergeSchedule$' -fuzztime 5s
# A FuzzFaultyPeer input is a stream of hundreds of protocol steps; minimizing
# each new interesting one for the default 60 s would spend the whole smoke on
# the first (about ten executions), so cap minimization at ten runs.
go test ./internal/core -run '^$' -fuzz '^FuzzFaultyPeer$' -fuzztime 5s -fuzzminimizetime 10x
go test ./internal/exec -run '^$' -fuzz '^FuzzWaveSchedule$' -fuzztime 5s
go test ./internal/client -run '^$' -fuzz '^FuzzReadQuorum$' -fuzztime 5s
go test ./internal/app -run '^$' -fuzz '^FuzzKVParse$' -fuzztime 5s

echo "== allocation gate (zero-alloc steady-state encode and two-allocation emit (four over memnet, whose receivers keep the encoded bytes), docs/EGRESS.md; allocation-free MACs and warm-key signature checks, alias decode, two allocations per preverified frame and per frame from wire to node, no allocation and no copy per memnet payload, docs/PIPELINE.md; one batch through four replicas, one request through four core.Nodes and a 16-request bundle at a fraction of that per request; a bundle preverifies at three allocations per cached copy, whatever its size; a TCP connection reads at one allocation per 64 KiB chunk, a KV op costs what its result and stored string need, a steady-state exec batch one allocation per worker goroutine, and a steady-state WAL append with its wait for durability none) =="
go test ./internal/message -run '^(TestEncodeZeroAlloc|TestDecodeAliasesFrame|TestPreverifyAllocationBudget)$' -count=1 -v
go test ./internal/crypto -run '^(TestMACAllocations|TestWarmSignatureCheckAllocatesNothing)$' -count=1 -v
go test ./internal/pbft -run '^TestOrderBatchAllocationBudget$' -count=1 -v
go test ./internal/core -run '^(TestNodeRequestPathAllocationBudget|TestNodeBundlePathAllocationBudget)$' -count=1 -v
go test ./internal/runtime -run '^(TestEmitAllocatesOnlyItsFrames|TestIngressAllocatesPerSlabNotPerFrame)$' -count=1 -v
go test ./internal/transport/memnet -run '^TestSendHandsOverThePayloads$' -count=1 -v
go test ./internal/transport/tcpnet -run '^TestReadAllocatesPerChunkNotPerFrame$' -count=1 -v
go test ./internal/app -run '^TestKVAllocations$' -count=1 -v
go test ./internal/exec -run '^TestExecuteBatchAllocationBudget$' -count=1 -v
go test ./internal/wal -run '^TestAppendAllocatesNothing$' -count=1 -v
go test ./internal/message -run '^$' -bench '^(BenchmarkMarshal|BenchmarkEncode|BenchmarkPreverifyClientFrame|BenchmarkPreverifyPropagateFrame)$' -benchtime 100x -benchmem
go test ./internal/crypto -run '^$' -bench '^(BenchmarkAuthenticator|BenchmarkVerifySignature)$' -benchtime 100x -benchmem
go test ./internal/core -run '^$' -bench '^BenchmarkNodeRequestPath$' -benchtime 100x -benchmem
go test ./internal/runtime -run '^$' -bench '^BenchmarkEgress$' -benchtime 100x -benchmem
go test ./internal/transport/tcpnet -run '^$' -bench '^BenchmarkTCPReceive$' -benchtime 1000x -benchmem
go test ./internal/app -run '^$' -bench '^BenchmarkKVExecute$' -benchtime 100x -benchmem
go test ./internal/exec -run '^$' -bench '^BenchmarkPlanWaves$' -benchtime 100x -benchmem
go test ./internal/sim -run '^$' -bench '^BenchmarkSimRun$' -benchtime 3x -benchmem

echo "== span-record gate (tracing-off cost must stay trivial) =="
go test ./internal/obs -run '^$' -bench '^BenchmarkSpanRecord$' -benchtime 100x -benchmem

echo "== bench smoke (BENCH_sim.json) =="
go run ./cmd/rbft-bench -exp bench -quick -json BENCH_sim.json
# The frontdoor pair must be part of the gated suite: TestBenchFrontdoorSpeedup
# (go test above) pins speculative >= 1.5x ordered, and the JSON must carry
# both scenarios so regressions show up in the tracked artifact.
grep -q '"frontdoor-ordered"' BENCH_sim.json
grep -q '"frontdoor-speculative"' BENCH_sim.json

echo "== rbft-trace smoke (summary / critical-path / attribute) =="
go run ./cmd/rbft-bench -exp bench -quick -trace TRACE_smoke.jsonl >/dev/null
go run ./cmd/rbft-trace summary TRACE_smoke.jsonl >/dev/null
go run ./cmd/rbft-trace critical-path -top 3 TRACE_smoke.jsonl >/dev/null
go run ./cmd/rbft-trace attribute TRACE_smoke.jsonl >/dev/null
rm -f TRACE_smoke.jsonl

echo "== line gate (ROADMAP items 2 and 9: non-test lines of internal/{core,sim,runtime}, then of internal/pbft, internal/message, internal/crypto's own files, internal/transport with its three transports and internal/wal; all, then non-blank non-comment; then tools/ + cmd/) =="
# The ceilings are what earlier changes left behind: the drivers and the node
# may shrink, never grow back; nor may the protocol instance, since its
# per-request state moved into the node's one request store; nor the
# transports, since they came down to moving bytes, and memnet to copying
# none; nor the tooling; nor the codec and preverify stage, since the
# verification cache came down to digests and verdicts; nor crypto's own
# files beside the vendored edwards25519, which stays ungated; nor the WAL,
# since it came down to the records recovery reads.
ceiling_lines=4732 ceiling_code=3205 pbft_ceiling_lines=1531 tooling_ceiling_lines=5062
message_ceiling_lines=1849 message_ceiling_code=1228 crypto_ceiling_lines=632 crypto_ceiling_code=418
transports="internal/transport internal/transport/memnet internal/transport/tcpnet internal/transport/udpnet"
transport_ceiling_lines=1035 transport_ceiling_code=697 wal_ceiling_lines=817 wal_ceiling_code=617
for dirs in "internal/core internal/sim internal/runtime" "internal/pbft" "internal/message" "internal/crypto" "$transports" "internal/wal"; do
	f=$(for d in $dirs; do ls $d/*.go; done | grep -v _test.go)
	lines=$(cat $f | wc -l) code=$(cat $f | grep -vE '^\s*(//|$)' | wc -l)
	echo "$dirs: $lines $code"
	if [ "$dirs" = "internal/core internal/sim internal/runtime" ] && { [ "$lines" -gt "$ceiling_lines" ] || [ "$code" -gt "$ceiling_code" ]; }; then
		echo "internal/{core,sim,runtime} grew past the ceiling of $ceiling_lines lines / $ceiling_code non-blank non-comment"
		exit 1
	fi
	if [ "$dirs" = "internal/pbft" ] && [ "$lines" -gt "$pbft_ceiling_lines" ]; then
		echo "internal/pbft grew past the ceiling of $pbft_ceiling_lines lines"
		exit 1
	fi
	if [ "$dirs" = "internal/message" ] && { [ "$lines" -gt "$message_ceiling_lines" ] || [ "$code" -gt "$message_ceiling_code" ]; }; then
		echo "internal/message grew past the ceiling of $message_ceiling_lines lines / $message_ceiling_code non-blank non-comment"
		exit 1
	fi
	if [ "$dirs" = "internal/crypto" ] && { [ "$lines" -gt "$crypto_ceiling_lines" ] || [ "$code" -gt "$crypto_ceiling_code" ]; }; then
		echo "internal/crypto grew past the ceiling of $crypto_ceiling_lines lines / $crypto_ceiling_code non-blank non-comment"
		exit 1
	fi
	if [ "$dirs" = "$transports" ] && { [ "$lines" -gt "$transport_ceiling_lines" ] || [ "$code" -gt "$transport_ceiling_code" ]; }; then
		echo "internal/transport grew past the ceiling of $transport_ceiling_lines lines / $transport_ceiling_code non-blank non-comment"
		exit 1
	fi
	if [ "$dirs" = "internal/wal" ] && { [ "$lines" -gt "$wal_ceiling_lines" ] || [ "$code" -gt "$wal_ceiling_code" ]; }; then
		echo "internal/wal grew past the ceiling of $wal_ceiling_lines lines / $wal_ceiling_code non-blank non-comment"
		exit 1
	fi
done
tools=$(cat $(find tools -name '*.go' ! -name '*_test.go') | wc -l) cmds=$(cat $(find cmd -name '*.go' ! -name '*_test.go') | wc -l)
echo "tools/ + cmd/: $tools + $cmds = $((tools + cmds))"
if [ $((tools + cmds)) -gt "$tooling_ceiling_lines" ]; then
	echo "tools/ + cmd/ grew past the ceiling of $tooling_ceiling_lines lines"
	exit 1
fi

echo "CI gate passed."
