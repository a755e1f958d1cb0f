#!/usr/bin/env bash
# ci.sh — the full verification gate, in dependency order: formatting,
# vet, build, tests, race detector, the serial-vs-parallel concurrency
# equivalence gate, the hot-path allocation contract (AllocsPerRun pins
# + hotalloc lint), short fuzz passes over the SM-mask set algebra, the
# calibration parser and the selection percentile, and the bulletlint
# determinism contract (see DESIGN.md, "Determinism contract",
# "Concurrency contract", and "Allocation contract"). Every step must
# pass; the script stops at the first failure.
#
# Usage: ./ci.sh            (or: make ci)
set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n=== %s ===\n' "$*"; }

step "gofmt"
unformatted=$(gofmt -l . | grep -v '^internal/lint/testdata/' || true)
if [[ -n "$unformatted" ]]; then
    echo "gofmt: files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

step "go vet ./..."
go vet ./...

step "go build ./..."
go build ./...

step "go test -shuffle=on ./..."
go test -shuffle=on ./...

step "go test -race -shuffle=on ./..."
go test -race -shuffle=on ./...

step "determinism smoke (-race, double run): faults + pressure + chaos + timeline traces"
# Same seed + same fault schedule must replay bit-identically — the
# resilience paths (SM degradation, watchdog aborts, replica failover,
# memory-pressure preemption/recovery, the router-tier chaos storm) and
# the exported timeline traces are the newest determinism surface, so
# pin them explicitly. The fault, pressure, and chaos tests diff full
# sweep tables; the golden test diffs the quickstart scenario's Chrome
# JSON byte for byte.
go test -race -count=1 \
    -run 'TestFaultRunDeterminism|TestFaultyRunBitIdentical|TestClusterFaultDeterminism|TestTimelineGoldenDeterminism|TestPressureRunDeterminism|TestQoSRunDeterminism|TestExtFidelityDeterminism|TestFidelityClusterSerialParallel|TestSampledBackendReplay|TestExtChaosDeterminism|TestChaosSerialParallelIdentical|TestGenerateChaosReplay' \
    ./internal/experiments ./internal/core ./internal/cluster ./internal/gpusim ./internal/faults

step "determinism smoke: bulletsim -pressure double run, byte diff"
# The user-facing overload sweep must render byte-identically across two
# same-seed processes — this is the acceptance surface for the pressure
# subsystem, so diff the actual CLI output rather than trusting the
# in-process tests alone.
press_a=$(go run ./cmd/bulletsim -pressure -dataset azure-code -rate 4 -n 60 -seed 11)
press_b=$(go run ./cmd/bulletsim -pressure -dataset azure-code -rate 4 -n 60 -seed 11)
if [[ "$press_a" != "$press_b" ]]; then
    echo "bulletsim -pressure: two same-seed runs diverged" >&2
    diff <(echo "$press_a") <(echo "$press_b") >&2 || true
    exit 1
fi

step "determinism smoke: bulletsim -qos double run, byte diff"
# The multi-tenant QoS sweep (per-tenant tables + the controller's cluster
# arm) is the acceptance surface for the SLO-feedback subsystem: two
# same-seed processes must render byte-identical output.
qos_a=$(go run ./cmd/bulletsim -qos -dataset azure-code -rate 10 -n 120 -seed 11 -workers 1)
qos_b=$(go run ./cmd/bulletsim -qos -dataset azure-code -rate 10 -n 120 -seed 11 -workers 1)
if [[ "$qos_a" != "$qos_b" ]]; then
    echo "bulletsim -qos: two same-seed runs diverged" >&2
    diff <(echo "$qos_a") <(echo "$qos_b") >&2 || true
    exit 1
fi

step "determinism smoke: bulletsim -chaos double run, byte diff"
# The router-resilience storm study is the acceptance surface for the
# chaos subsystem: the seeded Markov storm, the breaker state walks,
# hedged re-dispatch, and the goodput accounting must render
# byte-identical tables across two same-seed processes.
chaos_a=$(go run ./cmd/bulletsim -chaos -dataset azure-code -rate 10 -n 120 -seed 7 -workers 1)
chaos_b=$(go run ./cmd/bulletsim -chaos -dataset azure-code -rate 10 -n 120 -seed 7 -workers 1)
if [[ "$chaos_a" != "$chaos_b" ]]; then
    echo "bulletsim -chaos: two same-seed runs diverged" >&2
    diff <(echo "$chaos_a") <(echo "$chaos_b") >&2 || true
    exit 1
fi

step "determinism smoke: bulletsim -backend sampled double run, byte diff"
# The sampled latency backend draws from a seeded splitmix stream: two
# same-seed processes must render byte-identical output, or the backend
# is leaking nondeterminism into the schedule (DESIGN.md §15).
samp_a=$(go run ./cmd/bulletsim -backend sampled -dataset azure-code -rate 4 -n 60 -seed 11)
samp_b=$(go run ./cmd/bulletsim -backend sampled -dataset azure-code -rate 4 -n 60 -seed 11)
if [[ "$samp_a" != "$samp_b" ]]; then
    echo "bulletsim -backend sampled: two same-seed runs diverged" >&2
    diff <(echo "$samp_a") <(echo "$samp_b") >&2 || true
    exit 1
fi

step "concurrency contract: -race smoke over forkjoin + cluster"
# The harness and its proving ground, run standalone under the race
# detector (on top of the whole-module -race pass above) so a contract
# regression names the guilty package directly. The cluster itself
# advances replicas inline; its tests here pin that the worker count
# never reaches the output.
go test -race -count=1 ./internal/forkjoin ./internal/cluster

step "concurrency contract: serial vs parallel cluster sweep, byte diff"
# Do(n, 1, fn) and Do(n, w, fn) must be byte-identical (DESIGN.md,
# "Concurrency contract"). Run the user-facing replica sweep once pinned
# to a single worker on one core, and once with four workers on four
# cores under -race so the Go scheduler is maximally perturbed, then
# diff the rendered tables byte for byte.
sweep_a=$(GOMAXPROCS=1 go run ./cmd/bulletsim -cluster-sweep -workers 1 -dataset azure-code -rate 8 -n 80 -seed 7)
sweep_b=$(GOMAXPROCS=4 go run -race ./cmd/bulletsim -cluster-sweep -workers 4 -dataset azure-code -rate 8 -n 80 -seed 7)
if [[ "$sweep_a" != "$sweep_b" ]]; then
    echo "bulletsim -cluster-sweep: serial and parallel runs diverged" >&2
    diff <(echo "$sweep_a") <(echo "$sweep_b") >&2 || true
    exit 1
fi

step "concurrency contract: serial vs parallel qos cluster arm, byte diff"
# Same gate for the QoS stack: per-replica controllers decide at
# virtual-time window boundaries, so the 2-replica qos cluster arm must
# be byte-identical with one worker on one core and four workers on four
# cores under -race.
qos_ser=$(GOMAXPROCS=1 go run ./cmd/bulletsim -qos -workers 1 -dataset azure-code -rate 10 -n 120 -seed 11)
qos_par=$(GOMAXPROCS=4 go run -race ./cmd/bulletsim -qos -workers 4 -dataset azure-code -rate 10 -n 120 -seed 11)
if [[ "$qos_ser" != "$qos_par" ]]; then
    echo "bulletsim -qos: serial and parallel runs diverged" >&2
    diff <(echo "$qos_ser") <(echo "$qos_par") >&2 || true
    exit 1
fi

step "concurrency contract: serial vs parallel chaos storm, byte diff"
# The router-resilience layer mutates breaker/bucket/hedge state only in
# outer-sim handlers, so the storm study must be byte-identical with one
# worker on one core and four workers on four cores under -race
# (DESIGN.md §16).
chaos_ser=$(GOMAXPROCS=1 go run ./cmd/bulletsim -chaos -workers 1 -dataset azure-code -rate 10 -n 120 -seed 7)
chaos_par=$(GOMAXPROCS=4 go run -race ./cmd/bulletsim -chaos -workers 4 -dataset azure-code -rate 10 -n 120 -seed 7)
if [[ "$chaos_ser" != "$chaos_par" ]]; then
    echo "bulletsim -chaos: serial and parallel runs diverged" >&2
    diff <(echo "$chaos_ser") <(echo "$chaos_par") >&2 || true
    exit 1
fi

step "coverage gate (internal/timeline >= 90%, internal/pressure >= 90%, internal/qos >= 90%, internal/calib >= 90%, internal/resilience >= 90%, module mean >= 86%)"
# Per-package statement coverage; packages without tests or statements
# are excluded from the mean. The floors were recorded at the merge that
# introduced the gate — raise them when coverage rises, never lower them
# to make a failure go away.
go test -cover ./... | awk '
    { print }
    $1 == "ok" && /coverage: [0-9.]+% of statements/ {
        pct = $0
        sub(/.*coverage: /, "", pct); sub(/% of statements.*/, "", pct)
        sum += pct; n++
        if ($2 == "repro/internal/timeline" && pct + 0 < 90) {
            printf "coverage gate: internal/timeline at %.1f%%, floor is 90%%\n", pct > "/dev/stderr"
            fail = 1
        }
        if ($2 == "repro/internal/pressure" && pct + 0 < 90) {
            printf "coverage gate: internal/pressure at %.1f%%, floor is 90%%\n", pct > "/dev/stderr"
            fail = 1
        }
        if ($2 == "repro/internal/qos" && pct + 0 < 90) {
            printf "coverage gate: internal/qos at %.1f%%, floor is 90%%\n", pct > "/dev/stderr"
            fail = 1
        }
        if ($2 == "repro/internal/calib" && pct + 0 < 90) {
            printf "coverage gate: internal/calib at %.1f%%, floor is 90%%\n", pct > "/dev/stderr"
            fail = 1
        }
        if ($2 == "repro/internal/resilience" && pct + 0 < 90) {
            printf "coverage gate: internal/resilience at %.1f%%, floor is 90%%\n", pct > "/dev/stderr"
            fail = 1
        }
    }
    END {
        if (n == 0) { print "coverage gate: no coverage lines parsed" > "/dev/stderr"; exit 1 }
        mean = sum / n
        printf "coverage gate: mean %.1f%% over %d packages\n", mean, n
        if (mean < 86.0) {
            printf "coverage gate: module mean %.1f%% below the 86.0%% floor\n", mean > "/dev/stderr"
            fail = 1
        }
        exit fail
    }
'

step "coverage gate: latency-backend files >= 90%"
# The pluggable backend seam (DESIGN.md §15) is finer-grained than one
# package, so gate the three backend files from the statement-level
# profile directly.
backend_cover=$(mktemp)
go test -coverprofile="$backend_cover" ./internal/gpusim > /dev/null
awk -F: '
    /backend\.go|sampled\.go|hierarchy\.go/ {
        split($2, a, " ")
        f = $1; sub(/.*\//, "", f)
        tot[f] += a[2]; if (a[3] > 0) cov[f] += a[2]
    }
    END {
        if (length(tot) != 3) {
            print "coverage gate: expected 3 backend files in profile" > "/dev/stderr"
            exit 1
        }
        for (f in tot) {
            pct = 100 * cov[f] / tot[f]
            printf "coverage gate: %s %.1f%%\n", f, pct
            if (pct < 90) {
                printf "coverage gate: %s below the 90%% floor\n", f > "/dev/stderr"
                fail = 1
            }
        }
        exit fail
    }
' "$backend_cover"
rm -f "$backend_cover"

step "coverage gate: cluster router-resilience file >= 90%"
# The router-resilience layer (DESIGN.md §16) lives in one file of the
# cluster package, so gate it from the statement-level profile directly.
res_cover=$(mktemp)
go test -coverprofile="$res_cover" ./internal/cluster > /dev/null
awk -F: '
    /cluster\/resilience\.go/ {
        split($2, a, " ")
        tot += a[2]; if (a[3] > 0) cov += a[2]
    }
    END {
        if (tot == 0) {
            print "coverage gate: cluster/resilience.go missing from profile" > "/dev/stderr"
            exit 1
        }
        pct = 100 * cov / tot
        printf "coverage gate: cluster/resilience.go %.1f%%\n", pct
        if (pct < 90) {
            printf "coverage gate: cluster/resilience.go below the 90%% floor\n" > "/dev/stderr"
            exit 1
        }
    }
' "$res_cover"
rm -f "$res_cover"

step "allocation contract: steady-state AllocsPerRun pins"
# The hot-path allocation contract (DESIGN.md, "Allocation contract"):
# the sim event push/pop cycle, the gpusim launch/finish cycle (pooled
# launches, re-armed completion events), the engines' status snapshot,
# disabled-timeline call sites, the water-filling re-rate, partition
# rebuilds, pressure gates, and in-place percentiles must allocate
# nothing at steady state; the After handle and per-request KV sequence
# header are pinned at exactly one, and whole runs on one replica and
# on a four-replica cluster stay under their allocations-per-request
# ceilings. Run the pins explicitly so an allocation regression fails
# CI by name even if the broader test pass is trimmed.
go test -count=1 -run 'ZeroAlloc|OneAlloc|SteadyState' .

step "allocation contract: bulletlint -rules hotalloc smoke"
# The analyzer must hold the whole module clean on its own (the full
# bulletlint pass below also covers it; this names the rule directly).
go run ./cmd/bulletlint -rules hotalloc ./...

step "fuzz: smmask set algebra (5s)"
go test -run='^$' -fuzz=Fuzz -fuzztime=5s ./internal/smmask

step "fuzz: calibration trace parser (5s)"
go test -run='^$' -fuzz=FuzzCalibParse -fuzztime=5s ./internal/calib

step "fuzz: selection percentile vs full sort (5s)"
go test -run='^$' -fuzz=FuzzPercentileInPlace -fuzztime=5s ./internal/metrics

step "bulletlint ./..."
go run ./cmd/bulletlint ./...

step "bulletlint -json smoke test"
# The tree is clean, so -json on the module must emit no *reported*
# findings — suppressed ones ("suppressed":true) are expected output, the
# audit trail of the tree's //lint:ignore directives. Then verify the
# machine-readable path works (and emits only JSON objects) on a fixture
# known to contain findings instead of trusting it blindly.
json_out=$(go run ./cmd/bulletlint -json ./... | grep -v '"suppressed":true' || true)
if [[ -n "$json_out" ]]; then
    echo "bulletlint -json: unexpected reported findings on clean tree:" >&2
    echo "$json_out" >&2
    exit 1
fi
smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT
go build -o "$smoke/bulletlint" ./cmd/bulletlint
mkdir -p "$smoke/mod/internal/demo"
printf 'module lintsmoke\n\ngo 1.22\n' > "$smoke/mod/go.mod"
printf 'package demo\n\nimport "time"\n\n// Stamp trips nodeterm on purpose.\nfunc Stamp() time.Time { return time.Now() }\n' \
    > "$smoke/mod/internal/demo/demo.go"
json_out=$( (cd "$smoke/mod" && ../bulletlint -json) || true)
if [[ -z "$json_out" ]] || grep -qv '^{' <<< "$json_out"; then
    echo "bulletlint -json: expected one JSON object per line, got:" >&2
    echo "$json_out" >&2
    exit 1
fi

step "ci: all gates passed"
