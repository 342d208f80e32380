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
go test -race ./internal/runtime/... ./internal/transport/... ./internal/message/... ./internal/client/... ./internal/obs/... ./internal/wal/... ./internal/exec/...

echo "== fuzz smoke (internal/message, internal/wal, internal/transport, internal/core, internal/exec, internal/client, internal/app) =="
go test ./internal/message -run '^$' -fuzz '^FuzzDecode$' -fuzztime 5s
go test ./internal/message -run '^$' -fuzz '^FuzzPreverify$' -fuzztime 5s
go test ./internal/wal -run '^$' -fuzz '^FuzzWALReplay$' -fuzztime 5s
go test ./internal/transport -run '^$' -fuzz '^FuzzFrameBatch$' -fuzztime 5s
go test ./internal/transport/tcpnet -run '^$' -fuzz '^FuzzFrameReader$' -fuzztime 5s
go test ./internal/core -run '^$' -fuzz '^FuzzMergeSchedule$' -fuzztime 5s
go test ./internal/exec -run '^$' -fuzz '^FuzzWaveSchedule$' -fuzztime 5s
go test ./internal/client -run '^$' -fuzz '^FuzzReadQuorum$' -fuzztime 5s
go test ./internal/app -run '^$' -fuzz '^FuzzKVParse$' -fuzztime 5s

echo "== allocation gate (zero-alloc steady-state encode and two-allocation emit, docs/EGRESS.md; allocation-free MACs, alias decode, two allocations per preverified frame and per frame from wire to node, one buffer per coalesced memnet flush, docs/PIPELINE.md; one batch through four replicas, one request through four core.Nodes and a 16-request bundle at a fraction of that per request; a bundle preverifies at three allocations per cached copy, whatever its size; a TCP connection reads at one allocation per 64 KiB chunk, a KV op costs what its result and stored string need, and a steady-state exec batch one allocation per worker goroutine) =="
go test ./internal/message -run '^(TestEncodeZeroAlloc|TestDecodeAliasesFrame|TestPreverifyAllocationBudget)$' -count=1 -v
go test ./internal/crypto -run '^TestMACAllocations$' -count=1 -v
go test ./internal/pbft -run '^TestOrderBatchAllocationBudget$' -count=1 -v
go test ./internal/core -run '^(TestNodeRequestPathAllocationBudget|TestNodeBundlePathAllocationBudget)$' -count=1 -v
go test ./internal/runtime -run '^(TestEmitAllocatesOnlyItsFrames|TestIngressAllocatesPerSlabNotPerFrame)$' -count=1 -v
go test ./internal/transport/memnet -run '^TestSendBatchSharesOneBuffer$' -count=1 -v
go test ./internal/transport/tcpnet -run '^TestReadAllocatesPerChunkNotPerFrame$' -count=1 -v
go test ./internal/app -run '^TestKVAllocations$' -count=1 -v
go test ./internal/exec -run '^TestExecuteBatchAllocationBudget$' -count=1 -v
go test ./internal/message -run '^$' -bench '^(BenchmarkMarshal|BenchmarkEncode|BenchmarkPreverifyClientFrame|BenchmarkPreverifyPropagateFrame)$' -benchtime 100x -benchmem
go test ./internal/crypto -run '^$' -bench '^BenchmarkAuthenticator$' -benchtime 100x -benchmem
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

echo "== line gate (ROADMAP items 2 and 9: non-test lines of internal/{core,sim,runtime}, then of internal/pbft, internal/message and internal/crypto; all, then non-blank non-comment; then tools/ + cmd/) =="
# The ceilings are what earlier changes left behind: the drivers and the node
# may shrink, never grow back; nor may the protocol instance, since its
# per-request state became one record per request in flight; nor the tooling.
ceiling_lines=4776 ceiling_code=3276 pbft_ceiling_lines=1587 tooling_ceiling_lines=5528
for dirs in "internal/core internal/sim internal/runtime" "internal/pbft" "internal/message" "internal/crypto"; do
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
done
tools=$(cat $(find tools -name '*.go' ! -name '*_test.go') | wc -l) cmds=$(cat $(find cmd -name '*.go' ! -name '*_test.go') | wc -l)
echo "tools/ + cmd/: $tools + $cmds = $((tools + cmds))"
if [ $((tools + cmds)) -gt "$tooling_ceiling_lines" ]; then
	echo "tools/ + cmd/ grew past the ceiling of $tooling_ceiling_lines lines"
	exit 1
fi

echo "CI gate passed."
