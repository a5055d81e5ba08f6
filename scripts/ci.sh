#!/bin/sh
# CI gate: formatting, vet, build, the full test suite, and the same suite
# under the race detector. The race pass is load-bearing — internal/stream
# is a concurrent engine and its tests are written to provoke races.
#
# Usage: scripts/ci.sh [extra go-test args]
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet"
go vet ./...

echo "==> staticcheck"
# Optional deep linting: run when the binary is installed, skip gracefully
# otherwise (hermetic CI containers don't ship it).
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
else
    echo "staticcheck not installed; skipping"
fi

echo "==> go build"
go build ./...

echo "==> go test"
go test ./... "$@"

echo "==> go test -race (parallel training and parallel recovery focus)"
# Fast-failing race pass over the tests that exercise shared workers
# hardest: parallel-vs-serial equivalence, flat-tree round-trips, batch
# inference, and recovery, whose journal replay and snapshot restore run
# one worker per shard. The full -race suite below still covers everything.
go test -race -run 'Equivalence|Parallel|RoundTrip|Batch|Recovery|Replay' \
    ./internal/mltree/ ./internal/core/ ./internal/stream/ ./internal/wal/

echo "==> go test -race"
go test -race ./... "$@"

echo "==> crash-restart e2e (SIGKILL mid-ingest, recover, converge)"
# Kills a live cordial-serve with SIGKILL halfway through an ingest and
# asserts a restart over the same -wal-dir converges to the exact action
# set of an uninterrupted reference run. Runs inside `go test ./...` too;
# this labeled pass keeps the durability guarantee visible in CI output.
go test -run 'TestCLIServeCrashRecovery' -count 1 ./internal/clitest/

echo "==> cluster failover e2e (3 nodes + router, SIGKILL one, zero verdict loss)"
# Three serve nodes behind cordial-router, one SIGKILLed mid-stream. The
# control plane rebuilds the victim's sessions from its journal onto the
# survivors; the test asserts the cluster's deduplicated action set equals
# a single-node reference exactly — no verdict lost, none invented.
go test -run 'TestCLIClusterFailover' -count 1 ./internal/clitest/

echo "==> fuzz smoke (incremental feature equivalence, 5s)"
# Short fuzzing pass over the incremental-vs-batch feature equivalence
# property; the seed corpus alone already covers the known-tricky cutoff
# and timestamp-tie shapes, the extra seconds search for new ones.
go test -run '^$' -fuzz 'FuzzIncrementalFeatureEquivalence' -fuzztime 5s \
    ./internal/features/

echo "==> fuzz smoke (WAL record decoder, 5s)"
# The decoder must classify arbitrary bytes as a record, a clean torn
# tail, or corruption — never panic, never over-read.
go test -run '^$' -fuzz 'FuzzWALDecode' -fuzztime 5s ./internal/wal/

echo "==> fuzz smoke (consistent-hash ring placement, 5s)"
# Routing correctness rests on two ring properties: every participant
# that knows the descriptor computes the identical owner for every bank,
# and membership changes move at most ≈1/N of keys.
go test -run '^$' -fuzz 'FuzzRingPlacement' -fuzztime 5s ./internal/cluster/

echo "==> fuzz smoke (binary wire-frame decoder, 5s)"
# The frame decoder sits on the network edge: arbitrary bytes must come
# back as decoded records, a framing error, or clean EOF — never a panic,
# an over-read, or a record that a re-encode wouldn't reproduce.
go test -run '^$' -fuzz 'FuzzBinaryFrameDecode' -fuzztime 5s ./internal/mcelog/

echo "==> fuzz smoke (event-log file reader, 5s)"
# ReadLog reads either file format off disk: arbitrary bytes must come back
# as a log whose every event validates and that survives a CBF2 re-encode,
# or as an error — never a panic.
go test -run '^$' -fuzz 'FuzzReadLog' -fuzztime 5s ./internal/mcelog/

echo "==> bench smoke (1 iteration)"
go test -run '^$' -bench . -benchtime 1x ./...

echo "==> binary ingest perf gate (steady-state decode allocates nothing)"
# The zero-allocation claim for the hot decode loop is pinned by an
# AllocsPerRun test, not just a benchmark — run it by name so a regression
# fails CI with a direct message rather than a drifting BENCH number.
go test -run 'TestWireDecodeZeroAllocs' -count 1 ./internal/mcelog/

echo "==> block serving perf gate (PredictProbaInto and PredictBlocksState allocation-free)"
# Every model's serving entry point allocates nothing and a whole 16-block
# window allocates only its returned slice, both bit-identical to the
# pointer-walk and batch references — pinned by name like the decode gate.
go test -run 'TestPredictProbaIntoMatchesAllModels' -count 1 ./internal/mltree/
go test -run 'TestPredictBlocksStateMatchesBatchReference' -count 1 ./internal/core/

echo "==> topology matrix (profile registry, wire round-trips, cross-profile gates)"
# Every registered profile must validate and round-trip packed addresses
# through the wire codec allocation-free (TestWireProfileMatrix iterates
# the registry); the equivalence gates then re-run under ddr5-dimm, and a
# two-profile transfer study must complete end to end.
go test -run 'TestRegisteredProfiles|PackUnpackRoundTrip|TestWireProfileMatrix' \
    -count 1 ./internal/hbm/ ./internal/mcelog/
go test -run 'DDR5' -count 1 ./internal/stream/
go test -run 'TestTransferSmoke' -count 1 ./internal/experiments/
topodir=$(mktemp -d)
go run ./cmd/cordial-gen -topology ddr5-dimm -seed 9 -uer-banks 30 -benign-banks 20 \
    -log "$topodir/ddr5.mcelog" -truth "$topodir/ddr5-truth.json" >/dev/null
go run ./cmd/cordial-train -topology ddr5-dimm -errbits -trees 10 \
    -truth "$topodir/ddr5-truth.json" -out "$topodir/ddr5-models.json" >/dev/null
go run ./cmd/cordial-predict -topology ddr5-dimm -models "$topodir/ddr5-models.json" \
    -log "$topodir/ddr5.mcelog" | grep -q '^classified ' \
    || { echo "ddr5 predict smoke failed" >&2; exit 1; }
go run ./cmd/cordial-study -transfer hbm2e,ddr5-dimm -transfer-banks 40 -transfer-trees 8 \
    | grep -q 'baseline' || { echo "transfer study smoke failed" >&2; exit 1; }
rm -rf "$topodir"

echo "==> daemon smoke (/readyz + /metrics over a live cordial-serve)"
# Boots the daemon, waits for readiness, ingests a small batch, and asserts
# the observability endpoints: /readyz reports ready, /metrics is Prometheus
# text whose ingest counter matches what was accepted.
smokedir=$(mktemp -d)
serve_pid=""
cluster_pids=""
cleanup_smoke() {
    if [ -n "$serve_pid" ]; then
        kill "$serve_pid" 2>/dev/null || true
        wait "$serve_pid" 2>/dev/null || true
    fi
    for pid in $cluster_pids; do
        kill "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    done
    rm -rf "$smokedir"
}

# wait_addr <logfile> <pid>: block until the daemon logs its resolved
# listen address (the msg=listening contract), echo it.
wait_addr() {
    _addr=""
    _i=0
    while [ $_i -lt 600 ]; do
        _addr=$(sed -n 's/.*msg=listening addr=\([^ ]*\).*/\1/p' "$1" | head -n 1)
        [ -n "$_addr" ] && break
        if ! kill -0 "$2" 2>/dev/null; then
            echo "daemon exited during startup:" >&2
            cat "$1" >&2
            exit 1
        fi
        sleep 0.2
        _i=$((_i + 1))
    done
    if [ -z "$_addr" ]; then
        echo "daemon never logged its address:" >&2
        cat "$1" >&2
        exit 1
    fi
    echo "$_addr"
}
trap cleanup_smoke EXIT
go build -o "$smokedir/cordial-serve" ./cmd/cordial-serve
"$smokedir/cordial-serve" -selftrain -seed 3 -train-banks 20 -trees 5 \
    -addr 127.0.0.1:0 -log-format text >"$smokedir/serve.log" 2>&1 &
serve_pid=$!
addr=""
i=0
while [ $i -lt 600 ]; do
    addr=$(sed -n 's/.*msg=listening addr=\([^ ]*\).*/\1/p' "$smokedir/serve.log" | head -n 1)
    [ -n "$addr" ] && break
    if ! kill -0 "$serve_pid" 2>/dev/null; then
        echo "cordial-serve exited during startup:" >&2
        cat "$smokedir/serve.log" >&2
        exit 1
    fi
    sleep 0.2
    i=$((i + 1))
done
if [ -z "$addr" ]; then
    echo "cordial-serve never logged its address:" >&2
    cat "$smokedir/serve.log" >&2
    exit 1
fi
curl -fsS "http://$addr/readyz" | grep -q '"ready": true' \
    || { echo "readyz not ready" >&2; exit 1; }
printf '%s\n%s\n%s\n' \
    '{"time":"2026-01-01T00:00:00Z","addr":"n0.u0.h0.s0.c0.p0.g0.b0.r1.col1","class":"UER"}' \
    '{"time":"2026-01-01T00:00:01Z","addr":"n0.u0.h0.s0.c0.p0.g0.b0.r2.col1","class":"CE"}' \
    '{"time":"2026-01-01T00:00:02Z","addr":"n0.u0.h0.s0.c0.p0.g0.b1.r1.col1","class":"UER"}' \
    | curl -fsS -X POST --data-binary @- "http://$addr/v1/events" \
    | grep -q '"accepted": 3' || { echo "ingest smoke failed" >&2; exit 1; }
curl -fsS "http://$addr/metrics" >"$smokedir/metrics.txt"
grep -q '^cordial_ingest_accepted_total 3$' "$smokedir/metrics.txt" \
    || { echo "metrics missing ingest counter:" >&2; cat "$smokedir/metrics.txt" >&2; exit 1; }
grep -q '^# TYPE cordial_process_seconds histogram$' "$smokedir/metrics.txt" \
    || { echo "metrics missing process histogram" >&2; exit 1; }
# Binary ingest smoke: the same daemon accepts the CRC-framed wire format
# on /v1/events.bin (cordial-gen -format wire emits a valid request body).
go run ./cmd/cordial-gen -seed 5 -uer-banks 4 -benign-banks 4 \
    -log "$smokedir/fleet.wire" -format wire -truth "" >"$smokedir/gen.out"
nwire=$(sed -n 's/^generated \([0-9]*\) events.*/\1/p' "$smokedir/gen.out")
[ -n "$nwire" ] || { echo "cordial-gen reported no event count" >&2; exit 1; }
curl -fsS -X POST -H 'Content-Type: application/octet-stream' \
    --data-binary @"$smokedir/fleet.wire" "http://$addr/v1/events.bin" \
    | grep -q "\"accepted\": $nwire" \
    || { echo "binary ingest smoke failed" >&2; exit 1; }
kill "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
serve_pid=""

echo "==> online retraining smoke (drifted mix -> retrain -> shadow -> promote)"
# Boots cordial-serve with the journal and model registry enabled, ingests
# a drifted pattern mix, forces a retrain off the journal, feeds the
# candidate's shadow twins with fresh drifted traffic, and promotes it
# through the admin API — asserting the swap lands (cordial_model_swaps_total,
# /statsz active version, registry pointer) with /readyz 200 throughout.
# The lifecycle interval is parked at 30m so the smoke, not the timer,
# drives every transition deterministically.
"$smokedir/cordial-serve" -selftrain -seed 3 -train-banks 20 -trees 5 \
    -addr 127.0.0.1:0 -log-format text \
    -wal-dir "$smokedir/wal-retrain" -fsync never \
    -retrain -retrain-interval 30m >"$smokedir/retrain.log" 2>&1 &
serve_pid=$!
addr=$(wait_addr "$smokedir/retrain.log" "$serve_pid")
check_ready() {
    curl -fsS "http://$addr/readyz" | grep -q '"ready": true' \
        || { echo "readyz degraded during retraining smoke ($1)" >&2
             cat "$smokedir/retrain.log" >&2; exit 1; }
}
check_ready boot
# Drifted regime: the paper's field mix is single-row dominant; this one
# is scattered/whole-column heavy.
go run ./cmd/cordial-gen -seed 11 -uer-banks 40 -benign-banks 10 \
    -weights 'single=5,scattered=70,wholecol=25' \
    -log "$smokedir/drift-a.wire" -format wire -truth ""
curl -fsS -X POST -H 'Content-Type: application/octet-stream' \
    --data-binary @"$smokedir/drift-a.wire" "http://$addr/v1/events.bin" >/dev/null
check_ready ingest
curl -fsS -X POST -d '{"trigger":"ci-smoke"}' "http://$addr/v1/models/retrain" \
    | grep -q '"status": "retraining"' \
    || { echo "forced retrain refused:" >&2; cat "$smokedir/retrain.log" >&2; exit 1; }
curl -fsS "http://$addr/v1/models" >"$smokedir/models.json"
grep -q '"candidateVersion": 2' "$smokedir/models.json" \
    || { echo "candidate not shadowing:" >&2; cat "$smokedir/models.json" >&2; exit 1; }
# Fresh drifted banks (different seed) create their sessions while the
# shadow is live, so each gets a candidate twin and the shadow scores
# real traffic before the promotion decision.
go run ./cmd/cordial-gen -seed 12 -uer-banks 40 -benign-banks 10 \
    -weights 'single=5,scattered=70,wholecol=25' \
    -log "$smokedir/drift-b.wire" -format wire -truth ""
curl -fsS -X POST -H 'Content-Type: application/octet-stream' \
    --data-binary @"$smokedir/drift-b.wire" "http://$addr/v1/events.bin" >/dev/null
check_ready shadow
curl -fsS -X POST "http://$addr/v1/models/promote" \
    | grep -q '"activeVersion": 2' \
    || { echo "candidate promotion failed:" >&2; cat "$smokedir/retrain.log" >&2; exit 1; }
i=0
until curl -fsS "http://$addr/metrics" | grep -q '^cordial_model_swaps_total 1$'; do
    i=$((i + 1))
    [ $i -lt 50 ] || { echo "model swap never reached /metrics" >&2
                       cat "$smokedir/retrain.log" >&2; exit 1; }
    sleep 0.2
done
check_ready promoted
curl -fsS "http://$addr/statsz" | grep -q '"activeModelVersion": 2' \
    || { echo "statsz missing new active version" >&2; exit 1; }
curl -fsS "http://$addr/v1/models" | grep -q '"activeVersion": 2' \
    || { echo "registry active pointer not flipped" >&2; exit 1; }
kill "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
serve_pid=""

echo "==> multi-node smoke (control plane + 2 nodes + router, kill one node)"
# Boots a live two-node cluster behind the router, ingests through the
# router, SIGKILLs one node, and asserts the cluster heals: the control
# plane records the takeover, the survivor and the router both return to
# /readyz 200, and post-failover ingest through the router still lands.
# (Verdict-level zero-loss is pinned by TestCLIClusterFailover above.)
go build -o "$smokedir/cordial-control" ./cmd/cordial-control
go build -o "$smokedir/cordial-router" ./cmd/cordial-router
"$smokedir/cordial-control" -addr 127.0.0.1:0 \
    -heartbeat-ttl 1s -sweep-interval 300ms >"$smokedir/cp.log" 2>&1 &
cp_pid=$!
cluster_pids="$cp_pid"
cp_addr=$(wait_addr "$smokedir/cp.log" "$cp_pid")
for n in 1 2; do
    "$smokedir/cordial-serve" -selftrain -seed 3 -train-banks 20 -trees 5 \
        -addr 127.0.0.1:0 -control-plane "http://$cp_addr" -node-id "n$n" \
        -heartbeat 100ms -wal-dir "$smokedir/wal-n$n" -fsync never \
        >"$smokedir/n$n.log" 2>&1 &
    eval "n${n}_pid=\$!"
done
cluster_pids="$cluster_pids $n1_pid $n2_pid"
n1_addr=$(wait_addr "$smokedir/n1.log" "$n1_pid")
wait_addr "$smokedir/n2.log" "$n2_pid" >/dev/null
"$smokedir/cordial-router" -addr 127.0.0.1:0 -control-plane "http://$cp_addr" \
    -refresh-interval 200ms -max-attempts 8 >"$smokedir/router.log" 2>&1 &
router_pid=$!
cluster_pids="$cluster_pids $router_pid"
router_addr=$(wait_addr "$smokedir/router.log" "$router_pid")
i=0
until curl -fsS "http://$router_addr/readyz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ $i -lt 100 ] || { echo "router never became ready" >&2; cat "$smokedir/router.log" >&2; exit 1; }
    sleep 0.2
done
go run ./cmd/cordial-gen -seed 3 -uer-banks 20 -benign-banks 10 \
    -log "$smokedir/fleet.jsonl" -format jsonl -truth ""
lines=$(wc -l <"$smokedir/fleet.jsonl")
curl -fsS -X POST --data-binary @"$smokedir/fleet.jsonl" \
    "http://$router_addr/v1/events" >"$smokedir/ingest1.json"
grep -q "\"accepted\":$lines" "$smokedir/ingest1.json" \
    || { echo "router ingest incomplete:" >&2; cat "$smokedir/ingest1.json" >&2; exit 1; }
kill -9 "$n2_pid" 2>/dev/null || true
wait "$n2_pid" 2>/dev/null || true
i=0
until curl -fsS "http://$cp_addr/statsz" 2>/dev/null | grep -q '"takeovers":1'; do
    i=$((i + 1))
    [ $i -lt 150 ] || { echo "takeover never recorded" >&2; cat "$smokedir/cp.log" >&2; exit 1; }
    sleep 0.2
done
for probe in "$n1_addr" "$router_addr"; do
    i=0
    until curl -fsS "http://$probe/readyz" >/dev/null 2>&1; do
        i=$((i + 1))
        [ $i -lt 100 ] || { echo "$probe not ready after failover" >&2; exit 1; }
        sleep 0.2
    done
done
curl -fsS -X POST --data-binary @"$smokedir/fleet.jsonl" \
    "http://$router_addr/v1/events" >"$smokedir/ingest2.json"
grep -q "\"accepted\":$lines" "$smokedir/ingest2.json" \
    || { echo "post-failover ingest incomplete:" >&2; cat "$smokedir/ingest2.json" >&2; exit 1; }
curl -fsS "http://$router_addr/statsz" | grep -q '"n1"' \
    || { echo "router statsz missing survivor" >&2; exit 1; }
# Binary end-to-end: the same fleet as CRC-framed wire frames through the
# router's /v1/events.bin, forwarded upstream over the binary codec.
go run ./cmd/cordial-gen -seed 3 -uer-banks 20 -benign-banks 10 \
    -log "$smokedir/fleet.wire" -format wire -truth ""
curl -fsS -X POST -H 'Content-Type: application/octet-stream' \
    --data-binary @"$smokedir/fleet.wire" \
    "http://$router_addr/v1/events.bin" >"$smokedir/ingest3.json"
grep -q "\"accepted\":$lines" "$smokedir/ingest3.json" \
    || { echo "router binary ingest incomplete:" >&2; cat "$smokedir/ingest3.json" >&2; exit 1; }

echo "==> chaos scenarios (validate all, then the ~30s smoke run)"
# Every checked-in scenario must parse and validate; then the short
# two-node smoke scenario actually runs — fleet bring-up, wire-codec
# load, one SIGKILL with journal takeover, a poison burst — and its SLO
# verdict (recovery time, availability, zero verdict loss, zero poison
# accepted) is the gate. Reuses the daemons built above via --bin.
go build -o "$smokedir/cordial-chaos" ./cmd/cordial-chaos
"$smokedir/cordial-chaos" validate scenarios/*.yaml
"$smokedir/cordial-chaos" run scenarios/ci-smoke.yaml --bin "$smokedir" \
    --work "$smokedir/chaos-work" \
    --json "$smokedir/chaos-smoke.json" --html "$smokedir/chaos-smoke.html"
grep -q '"pass": true' "$smokedir/chaos-smoke.json" \
    || { echo "chaos smoke report does not record a pass" >&2; exit 1; }

echo "==> ok"
