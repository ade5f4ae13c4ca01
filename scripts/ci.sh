#!/usr/bin/env bash
# ci.sh — the one-command gate for this repository.
#
# Runs, in order: build, go vet, gofmt (fails on any unformatted file), the
# project invariant linter (cmd/extdict-lint, all analyzers, SARIF report,
# and a check that -fix would not change any file), a diff of the static
# collective schedule (-trace) against its golden, a suppression scan over
# internal/dist, the full test suite with
# an aggregate coverage floor, the race detector over every internal
# package, a short fuzz of the serving HTTP mux, the benchmark harness's vet
# and short tests, and the GOMAXPROCS determinism matrix. Everything must
# pass for a change to land.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go build"
go build ./...

echo "== no tracked SARIF artifacts"
# SARIF reports are per-run build artifacts (.gitignore: *.sarif); a
# committed one goes stale instantly and shadows the CI upload.
if git ls-files -- '*.sarif' | grep -q .; then
    echo "these SARIF reports are tracked but must not be:" >&2
    git ls-files -- '*.sarif' >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== extdict-lint -fix (must be a no-op)"
# Mirror the gofmt check for suggested fixes: apply -fix to a scratch copy of
# the tree and fail if any file would change. The copy keeps local working
# trees unmutated on failure.
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
cp -a . "$tmpdir/tree"
rm -rf "$tmpdir/tree/.git"
go run ./cmd/extdict-lint -C "$tmpdir/tree" -fix ./... >/dev/null || true
if ! diff -rq -x .git "$tmpdir/tree" . >/dev/null; then
    echo "extdict-lint: -fix would change these files; run 'go run ./cmd/extdict-lint -fix ./...' and commit:" >&2
    diff -rq -x .git "$tmpdir/tree" . | sed 's/^/  /' >&2
    exit 1
fi

echo "== extdict-lint"
go run ./cmd/extdict-lint -sarif extdict-lint.sarif ./...

echo "== SARIF report carries the concurrency rules"
# The uploaded report must advertise the whole suite — a stale binary or a
# narrowed run would silently drop the newest analyzers' rule metadata.
for rule in sharedstate lockorder detorder; do
    if ! grep -q "\"id\": \"$rule\"" extdict-lint.sarif; then
        echo "extdict-lint.sarif lacks rule metadata for $rule" >&2
        exit 1
    fi
done

echo "== extdict-lint dogfood (internal/lint itself must be clean)"
# The linter's own sources hold to the documentation, error-handling, and
# panic-attribution invariants it enforces on the rest of the module.
go run ./cmd/extdict-lint -checks exporteddoc,errcheck,panicmsg ./internal/lint/...

echo "== extdict-lint -checks sharedstate,lockorder,detorder (tree must be concurrency-clean)"
# The full run above already covers the three concurrency analyzers, but
# this keeps the zero-unsuppressed-findings guarantee explicit even if
# someone narrows the run above.
go run ./cmd/extdict-lint -checks sharedstate,lockorder,detorder ./...

echo "== no suppressions in the dist operators"
# Every flop, byte and resident charge in internal/dist comes from a kernel
# contract in mat or sparse and is pinned by the runtime accounting tests;
# no analyzer finding there may be waived. The scan names a directory
# only, so it cannot silently pass because a named file was deleted.
if grep -rn "lint:ignore" internal/dist/; then
    echo "the dist sources must stay suppression-free" >&2
    exit 1
fi

echo "== extdict-lint -trace (static schedule must match the golden)"
# The schedule analyzer's static collective traces are a reviewed artifact:
# any drift in an operator's reduce/broadcast schedule must be deliberate.
go run ./cmd/extdict-lint -checks schedule -trace "$tmpdir/trace.json" ./...
if ! diff -u internal/lint/testdata/schedule.golden.json "$tmpdir/trace.json"; then
    echo "extdict-lint: static collective schedule drifted; if intended, regenerate with" >&2
    echo "  go run ./cmd/extdict-lint -checks schedule -trace internal/lint/testdata/schedule.golden.json ./..." >&2
    exit 1
fi

echo "== go test (with coverage floor)"
# The floor is the aggregate statement coverage of ./internal/... measured
# when the gate was introduced; it may only be raised.
coverage_floor=82.9
go test -coverprofile="$tmpdir/cover.out" -coverpkg=./internal/... ./...
coverage=$(go tool cover -func="$tmpdir/cover.out" | awk '/^total:/ {sub(/%/, "", $3); print $3}')
echo "aggregate internal coverage: ${coverage}%"
if awk -v c="$coverage" -v f="$coverage_floor" 'BEGIN {exit !(c < f)}'; then
    echo "coverage ${coverage}% is below the ${coverage_floor}% floor" >&2
    exit 1
fi

echo "== go test -race (all internal packages)"
go test -race -short -count=1 ./internal/...

echo "== fuzz the serving HTTP mux"
# FuzzMux's seed corpus already ran with the test suite above; this gives
# the fuzzer a short budget to look past it for undocumented statuses,
# undecodable 200s and non-finite codes.
go test -run '^$' -fuzz FuzzMux -fuzztime 10s ./internal/serve

echo "== benchmark harness (.perfbench: go vet, go test -short)"
# .perfbench is its own module: it drives the library's public layer
# functions and fault-injects each of its output checks. Vetting and testing
# it here, in the environment .perfbench/run.sh builds it with, makes a
# library change that breaks the benchmark fail CI instead of the next
# benchmark run.
(
    cd .perfbench
    export GOWORK=off GOTOOLCHAIN=local GOENV=off GOPROXY=off GOFLAGS= CGO_ENABLED=0
    go vet ./...
    go test -short -count=1 ./...
)

echo "== determinism matrix (GOMAXPROCS = 1, 2, NumCPU)"
# The Par-kernel equivalence tests and the 24-seed chaos replay must hold
# under serial, dual, and fully parallel scheduling. The chaos digest test
# compares every run against the same committed golden
# (internal/cluster/chaos/testdata/replay.digest), so the three settings
# cannot silently diverge from one another or from the recorded baseline.
ncpu=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)
for gmp in 1 2 "$ncpu"; do
    echo "-- GOMAXPROCS=$gmp"
    GOMAXPROCS=$gmp go test -count=1 -run 'TestPar' ./internal/mat/
    GOMAXPROCS=$gmp go test -count=1 ./internal/cluster/chaos/
done

echo "== bench smoke (kernel benchmarks must run)"
# One iteration of every kernel microbenchmark: catches benchmarks that
# panic or no longer compile without paying the full measurement cost.
go test -run '^$' -bench . -benchtime 1x -count=1 ./internal/mat/ ./internal/omp/ ./internal/dist/ >/dev/null

echo "== extdict-bench -json (report must be machine-readable)"
# The JSON baseline pipeline behind BENCH_PR5.json/BENCH_PR10.json: emit
# tiny-scale reports — the kernel rows and one experiment — and re-parse
# them with the Go decoder the tests use.
go test -run 'TestJSONOutputParses' -count=1 ./cmd/extdict-bench/ >/dev/null

echo "== serve smoke (binary round-trip and clean shutdown)"
# The serving binary end to end: load a generated dictionary, bind a free
# loopback port, answer a health probe and one encode round-trip, then
# drain cleanly on SIGTERM. The in-process variants of this path (listener
# lifecycle under a leak watchdog, the -race soak) already ran with the
# test suite above; this gate proves the shipped binary wires them up.
go run ./cmd/extdict gen -preset salinas -scale 0.05 -out "$tmpdir/dict.edm" >/dev/null
go build -o "$tmpdir/extdict-serve" ./cmd/extdict-serve
"$tmpdir/extdict-serve" -dict smoke="$tmpdir/dict.edm" -addr 127.0.0.1:0 \
    >"$tmpdir/serve.log" 2>&1 &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^serving .* on \([^ ]*\) .*/\1/p' "$tmpdir/serve.log")
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "extdict-serve never reported its listen address:" >&2
    cat "$tmpdir/serve.log" >&2
    exit 1
fi
curl -fsS "http://$addr/v1/healthz" | grep -q '"status":"ok"'
m=$(sed -n 's/^loaded smoke: \([0-9]*\)x.*/\1/p' "$tmpdir/serve.log")
signal=$(seq 1 "$m" | awk '{printf "%s%.3f", (NR > 1 ? "," : ""), $1 / 100}')
curl -fsS -X POST -d "{\"dict\":\"smoke\",\"signal\":[$signal]}" \
    "http://$addr/v1/encode" | grep -q '"idx"'
curl -fsS "http://$addr/v1/statsz" | grep -q '"encoded":1'
kill -TERM "$serve_pid"
if ! wait "$serve_pid"; then
    echo "extdict-serve did not exit cleanly:" >&2
    cat "$tmpdir/serve.log" >&2
    exit 1
fi
grep -q 'draining' "$tmpdir/serve.log"

echo "== serve loadtest (seeded clients, bit-identity against serial encode)"
# The deterministic closed-loop harness at a small fixed seed: 8 concurrent
# clients against a live listener, every response compared bit for bit with
# a serial Batch-OMP reference, latency ordering and batch accounting
# checked. Zero mismatches is the gate.
go test -count=1 -run TestLoadAgainstLiveServer ./internal/serve/loadtest/

echo "CI gate passed."
