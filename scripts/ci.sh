#!/usr/bin/env sh
# Tier-1 verification, fully offline.
#
# The workspace has no crates.io dependencies (see DESIGN.md, "Offline-first
# dependency policy"), so everything here must succeed with the network
# unplugged. CARGO_NET_OFFLINE=1 turns any accidental reintroduction of an
# external dependency into a hard resolver error instead of a hidden fetch.
#
# Usage: scripts/ci.sh [--no-fmt]
#   --no-fmt   skip the rustfmt gate (e.g. toolchains without rustfmt)

set -eu

cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=1

run() {
    echo "==> $*"
    "$@"
}

if [ "${1:-}" != "--no-fmt" ]; then
    run cargo fmt --check
fi

run cargo build --release --workspace
run cargo test -q --workspace

echo "tier-1: OK"

# Tier-2 smoke: the experiment engine's determinism contract on the real
# summary harness. stdout must be byte-identical at 1 and 4 worker
# threads, and the parallel run must actually share work (cache hits).
echo "==> tier-2: summary determinism across HCC_ENGINE_THREADS"
t2_dir=$(mktemp -d)
trap 'rm -rf "$t2_dir"' EXIT

HCC_ENGINE_THREADS=1 ./target/release/summary \
    >"$t2_dir/serial.out" 2>/dev/null
HCC_ENGINE_THREADS=4 ./target/release/summary \
    >"$t2_dir/parallel.out" 2>"$t2_dir/parallel.stats"

if ! diff -u "$t2_dir/serial.out" "$t2_dir/parallel.out"; then
    echo "tier-2: FAIL — summary stdout differs between 1 and 4 threads" >&2
    exit 1
fi

hits=$(sed -n 's/^cache hits: \([0-9][0-9]*\)$/\1/p' "$t2_dir/parallel.stats")
if [ -z "$hits" ] || [ "$hits" -eq 0 ]; then
    echo "tier-2: FAIL — expected nonzero engine cache hits, got '${hits:-none}'" >&2
    exit 1
fi

grep -A 6 "== experiment engine ==" "$t2_dir/parallel.stats" || true
echo "tier-2: OK (stdout identical, $hits cache hits)"

# Tier-2 fault smoke: a fixed seeded fault plan must replay byte-for-byte
# across worker counts and attribute nonzero recovery time (T_fault).
echo "==> tier-2: fault sweep determinism under a seeded plan"
plan="seed=7,gcm=0.35,bounce=0.3,ring=0.3,uvm=0.35,max=6"
HCC_ENGINE_THREADS=1 ./target/release/fault_sweep --plan "$plan" \
    >"$t2_dir/fault1.out" 2>/dev/null
HCC_ENGINE_THREADS=4 ./target/release/fault_sweep --plan "$plan" \
    >"$t2_dir/fault4.out" 2>/dev/null

if ! diff -u "$t2_dir/fault1.out" "$t2_dir/fault4.out"; then
    echo "tier-2: FAIL — fault_sweep stdout differs between 1 and 4 threads" >&2
    exit 1
fi

if grep -q "^total T_fault across suite: 0ns$" "$t2_dir/fault1.out"; then
    echo "tier-2: FAIL — seeded fault plan attributed zero T_fault" >&2
    exit 1
fi

# A deliberately panicking scenario must become a structured failure
# while the rest of its batch completes (exit 0 = contained).
echo "==> tier-2: panic containment in the experiment engine"
./target/release/fault_sweep --panic-smoke

echo "tier-2: OK (fault sweep deterministic, panic contained)"

# Tier-2 obs smoke: the metrics plane must observe (nonzero samples, a
# detected saturated resource, JSON snapshots that survive the in-repo
# parser) without perturbing anything (figure stdout byte-identical with
# HCC_METRICS on and off).
echo "==> tier-2: observability plane smoke"
./target/release/obs_report --json "$t2_dir/obs.json" \
    >"$t2_dir/obs.out" 2>/dev/null

trailer=$(sed -n 's/^snapshots: \([0-9][0-9]*\) scenarios, \([0-9][0-9]*\) samples, \([0-9][0-9]*\) saturated (json round-trip OK)$/\1 \2 \3/p' "$t2_dir/obs.out")
if [ -z "$trailer" ]; then
    echo "tier-2: FAIL — obs_report trailer missing (round-trip self-check did not run)" >&2
    exit 1
fi
samples=$(echo "$trailer" | cut -d' ' -f2)
saturated=$(echo "$trailer" | cut -d' ' -f3)
if [ "$samples" -eq 0 ] || [ "$saturated" -eq 0 ]; then
    echo "tier-2: FAIL — obs_report saw $samples samples, $saturated saturated scenarios" >&2
    exit 1
fi
if [ ! -s "$t2_dir/obs.json" ]; then
    echo "tier-2: FAIL — obs_report --json wrote nothing" >&2
    exit 1
fi

HCC_METRICS=1 HCC_ENGINE_STATS_JSON="$t2_dir/engine.json" \
    ./target/release/summary >"$t2_dir/obs_on.out" 2>/dev/null
if ! diff -u "$t2_dir/serial.out" "$t2_dir/obs_on.out"; then
    echo "tier-2: FAIL — summary stdout differs with HCC_METRICS=1" >&2
    exit 1
fi
if ! grep -q '"scenarios_run"' "$t2_dir/engine.json"; then
    echo "tier-2: FAIL — HCC_ENGINE_STATS_JSON dump missing or malformed" >&2
    exit 1
fi

echo "tier-2: OK (obs: $samples samples, $saturated saturated, stdout unperturbed)"

# Tier-2 explain smoke: the causal-graph/critical-path plane must be
# deterministic (stdout byte-identical across worker counts) and must
# blame the paper's causes — crypto + bounce-pool exposure on some dense
# app, UVM exposure on some managed app. Identity (Σ critical segments
# == P, deltas summing to ΔP) is asserted inside the binary per app.
echo "==> tier-2: slowdown explainer determinism and blame"
HCC_ENGINE_THREADS=1 ./target/release/explain --json "$t2_dir/explain.json" \
    >"$t2_dir/explain1.out" 2>/dev/null
HCC_ENGINE_THREADS=4 ./target/release/explain \
    >"$t2_dir/explain4.out" 2>/dev/null

if ! diff -u "$t2_dir/explain1.out" "$t2_dir/explain4.out"; then
    echo "tier-2: FAIL — explain stdout differs between 1 and 4 threads" >&2
    exit 1
fi
if ! grep -q "crypto+bounce exposed: true" "$t2_dir/explain1.out"; then
    echo "tier-2: FAIL — no non-UVM app exposed crypto+bounce slowdown" >&2
    exit 1
fi
if ! grep -q "uvm exposed: true" "$t2_dir/explain1.out"; then
    echo "tier-2: FAIL — no UVM app exposed UVM slowdown" >&2
    exit 1
fi
if ! grep -q '"delta_p_ns"' "$t2_dir/explain.json"; then
    echo "tier-2: FAIL — explain --json dump missing or malformed" >&2
    exit 1
fi

# Like HCC_METRICS, causal collection must not perturb figure stdout.
HCC_CAUSAL=1 ./target/release/summary >"$t2_dir/causal_on.out" 2>/dev/null
if ! diff -u "$t2_dir/serial.out" "$t2_dir/causal_on.out"; then
    echo "tier-2: FAIL — summary stdout differs with HCC_CAUSAL=1" >&2
    exit 1
fi

echo "tier-2: OK (explain deterministic, blames crypto/bounce and uvm)"

# Tier-2 call-stack smoke: fig08_callstack marks the frames whose resource
# class holds critical-path time, extracted with the causal plane on.
# stdout must be byte-identical at 1 and 4 engine threads, and both mode
# sections must mark at least one frame.
echo "==> tier-2: fig08 call-stack marks determinism"
HCC_ENGINE_THREADS=1 ./target/release/fig08_callstack \
    >"$t2_dir/fig08_1.out" 2>/dev/null
HCC_ENGINE_THREADS=4 ./target/release/fig08_callstack \
    >"$t2_dir/fig08_4.out" 2>/dev/null

if ! diff -u "$t2_dir/fig08_1.out" "$t2_dir/fig08_4.out"; then
    echo "tier-2: FAIL — fig08_callstack stdout differs between 1 and 4 threads" >&2
    exit 1
fi
marked=$(sed -n 's/.*(\([0-9][0-9]*\) frames marked)$/\1/p' "$t2_dir/fig08_1.out")
sections=$(echo "$marked" | grep -c '^[1-9]' || true)
if [ "$sections" -ne 2 ]; then
    echo "tier-2: FAIL — expected 2 sections with marked frames, got marks '$marked'" >&2
    exit 1
fi

echo "tier-2: OK (fig08 deterministic, frames marked: $(echo $marked))"

# Tier-2 machine-readable summary: per-app P + phase totals + engine
# self-profile, written by the same run that prints the scorecard.
echo "==> tier-2: BENCH_summary.json export"
./target/release/summary --json "$t2_dir/BENCH_summary.json" \
    >/dev/null 2>&1
if ! grep -q '"apps"' "$t2_dir/BENCH_summary.json" \
    || ! grep -q '"scenarios_run"' "$t2_dir/BENCH_summary.json" \
    || ! grep -q '"p_ns"' "$t2_dir/BENCH_summary.json"; then
    echo "tier-2: FAIL — BENCH_summary.json missing apps/engine fields" >&2
    exit 1
fi

echo "tier-2: OK (BENCH_summary.json exported)"

# Tier-2 serving smoke: the multi-tenant CC serving simulator drains a
# seeded 10^6-request, 2-tenant, 4-GPU open-loop trace through every
# scheduler in both modes. stdout must be byte-identical at 1 and 4
# engine threads, both report trailer invariants must hold, and the
# BENCH_serving.json side file must record nonzero wall-clock throughput
# and exactly 2 x distinct_shapes engine simulations (the memoized-shape
# win: engine work is per shape, never per request).
echo "==> tier-2: serving cluster determinism and SLO invariants"
HCC_ENGINE_THREADS=1 ./target/release/serve --requests 1000000 --gpus 4 \
    >"$t2_dir/serve1.out" 2>/dev/null
HCC_ENGINE_THREADS=4 ./target/release/serve --requests 1000000 --gpus 4 \
    --json "$t2_dir/BENCH_serving.json" \
    >"$t2_dir/serve4.out" 2>/dev/null

if ! diff -u "$t2_dir/serve1.out" "$t2_dir/serve4.out"; then
    echo "tier-2: FAIL — serve stdout differs between 1 and 4 threads" >&2
    exit 1
fi
if ! grep -q "^conservation: admitted == completed + rejected (all runs): true$" \
    "$t2_dir/serve1.out"; then
    echo "tier-2: FAIL — serving conservation invariant violated" >&2
    exit 1
fi
if ! grep -q "^slo cc-on p99 > cc-off p99 (all tenants, all schedulers): true$" \
    "$t2_dir/serve1.out"; then
    echo "tier-2: FAIL — CC-on p99 did not dominate CC-off p99" >&2
    exit 1
fi

rps=$(sed -n 's/.*"requests_per_sec":\([0-9][0-9]*\).*/\1/p' "$t2_dir/BENCH_serving.json")
simulated=$(sed -n 's/.*"shapes_simulated":\([0-9][0-9]*\).*/\1/p' "$t2_dir/BENCH_serving.json")
distinct=$(sed -n 's/.*"distinct_shapes":\([0-9][0-9]*\).*/\1/p' "$t2_dir/BENCH_serving.json")
if [ -z "$rps" ] || [ "$rps" -eq 0 ]; then
    echo "tier-2: FAIL — BENCH_serving.json reports no wall-clock throughput" >&2
    exit 1
fi
if [ -z "$simulated" ] || [ -z "$distinct" ] || [ "$distinct" -eq 0 ] \
    || [ "$simulated" -ne $((2 * distinct)) ]; then
    echo "tier-2: FAIL — expected 2 x ${distinct:-?} shapes simulated, got '${simulated:-none}'" >&2
    exit 1
fi

echo "tier-2: OK (serving: $rps req/s wall-clock, $simulated shapes simulated for 2 x $distinct distinct)"

# Tier-2 usage smoke: every bin parses through hcc_bench::cli, so an
# out-of-range value, a flag with its value missing, and an unknown flag
# are each refused with a one-line `bin: --flag: detail` diagnostic and
# exit code 2, never clamped, ignored, or run with a default.
echo "==> tier-2: bad flags give a usage error"
usage_error() {
    expected=$1
    shift
    status=0
    "$@" >/dev/null 2>"$t2_dir/usage.err" || status=$?
    if [ "$status" -ne 2 ] || ! grep -qxF "$expected" "$t2_dir/usage.err"; then
        echo "tier-2: FAIL — $* exited $status, expected usage error '$expected' (exit 2)" >&2
        exit 1
    fi
}
usage_error "serve: --gpus: 0 out of range [1, 1024]" ./target/release/serve --gpus 0
usage_error "serve: --json: missing value" ./target/release/serve --requests 1000 --json
usage_error "summary: --bogus: unknown flag" ./target/release/summary --bogus
usage_error "hcc_lab: --ccc: unknown flag" ./target/release/hcc_lab run gemm --ccc

echo "tier-2: OK (out-of-range, valueless, and unknown flags refused with exit 2)"

# Tier-2 hot-path wall-clock gate: full-suite scenarios/sec must stay
# within the 30% regression budget of the committed BENCH_hotpaths.json
# baseline. The binary exits nonzero on a breach; after an intentional
# perf change, re-bless with HCC_BLESS=1 ./target/release/hotpaths.
echo "==> tier-2: hot-path throughput gate (BENCH_hotpaths.json)"
./target/release/hotpaths

echo "tier-2: OK (hot-path throughput within gate)"

# Tier-2 chaos smoke: seeded fault storms composed with the serving
# cluster over a virtual-time soak. The report must be byte-identical at
# 1 and 4 engine threads, at least one budget verdict must FAIL (the SLO
# gate is live, not vacuously green), every conservation/identity trailer
# must hold, and the leak-audit trailer must be clean. The binary itself
# exits nonzero on any leak or conservation violation.
echo "==> tier-2: chaos lab determinism, SLO verdicts, leak audit"
HCC_ENGINE_THREADS=1 ./target/release/chaos \
    >"$t2_dir/chaos1.out" 2>/dev/null
HCC_ENGINE_THREADS=4 ./target/release/chaos --json "$t2_dir/BENCH_chaos.json" \
    >"$t2_dir/chaos4.out" 2>/dev/null

if ! diff -u "$t2_dir/chaos1.out" "$t2_dir/chaos4.out"; then
    echo "tier-2: FAIL — chaos stdout differs between 1 and 4 threads" >&2
    exit 1
fi
if ! grep -q "FAIL(" "$t2_dir/chaos1.out"; then
    echo "tier-2: FAIL — chaos run produced no failing-budget verdict" >&2
    exit 1
fi
for trailer in \
    "latency identity: latency == wait + service (all tenants, all cells): true" \
    "conservation: admitted == completed + rejected (all cells): true" \
    "conservation: clean + recovered + degraded + rejected == admitted (all cells): true" \
    "sessions: established == closed == cold-starts (all cells): true" \
    "gauges: queue and device depth drained to zero (all cells): true" \
    "leaks: none"; do
    if ! grep -q "^$trailer$" "$t2_dir/chaos1.out"; then
        echo "tier-2: FAIL — chaos trailer missing or false: $trailer" >&2
        exit 1
    fi
done

chaos_rps=$(sed -n 's/.*"requests_per_sec":\([0-9][0-9]*\).*/\1/p' "$t2_dir/BENCH_chaos.json")
chaos_fail=$(sed -n 's/.*"verdict_fail":\([0-9][0-9]*\).*/\1/p' "$t2_dir/BENCH_chaos.json")
if [ -z "$chaos_rps" ] || [ "$chaos_rps" -eq 0 ]; then
    echo "tier-2: FAIL — BENCH_chaos.json reports no wall-clock throughput" >&2
    exit 1
fi
if [ -z "$chaos_fail" ] || [ "$chaos_fail" -eq 0 ]; then
    echo "tier-2: FAIL — BENCH_chaos.json records no FAIL verdicts" >&2
    exit 1
fi

echo "tier-2: OK (chaos: $chaos_rps req/s under storm, $chaos_fail budget FAILs, leak-free)"

# Tier-2 SLO watchtower smoke: the stormy chaos-shaped soak must render a
# byte-identical incident log at 1 and 4 engine threads, fire at least
# one burn-rate alert, correlate at least one incident to a
# peak-intensity storm episode, and export the required BENCH_slo.json
# fields (windows/sec, incident + alert counts). The calm serving soak
# must render the explicit empty timeline — both alert polarities live.
echo "==> tier-2: slo watchtower determinism and incident timeline"
HCC_ENGINE_THREADS=1 ./target/release/slo_watch \
    >"$t2_dir/slo1.out" 2>/dev/null
HCC_ENGINE_THREADS=4 ./target/release/slo_watch --json "$t2_dir/BENCH_slo.json" \
    >"$t2_dir/slo4.out" 2>/dev/null

if ! diff -u "$t2_dir/slo1.out" "$t2_dir/slo4.out"; then
    echo "tier-2: FAIL — slo_watch incident log differs between 1 and 4 threads" >&2
    exit 1
fi
if ! grep -q "x!" "$t2_dir/slo1.out"; then
    echo "tier-2: FAIL — stormy soak fired no burn-rate alert" >&2
    exit 1
fi
if ! grep -q "^  incident #" "$t2_dir/slo1.out"; then
    echo "tier-2: FAIL — stormy soak raised no incident" >&2
    exit 1
fi
if ! grep -q "incident #.*storm crypto-burst@peak" "$t2_dir/slo1.out"; then
    echo "tier-2: FAIL — no incident correlated to a peak-intensity storm episode" >&2
    exit 1
fi

slo_wps=$(sed -n 's/.*"windows_per_sec":\([0-9][0-9]*\).*/\1/p' "$t2_dir/BENCH_slo.json")
slo_incidents=$(sed -n 's/.*"incidents":\([0-9][0-9]*\).*/\1/p' "$t2_dir/BENCH_slo.json" | head -n 1)
slo_alerts=$(sed -n 's/.*"alerts":\([0-9][0-9]*\).*/\1/p' "$t2_dir/BENCH_slo.json" | head -n 1)
if [ -z "$slo_wps" ] || [ "$slo_wps" -eq 0 ]; then
    echo "tier-2: FAIL — BENCH_slo.json reports no wall-clock window throughput" >&2
    exit 1
fi
if [ -z "$slo_incidents" ] || [ "$slo_incidents" -eq 0 ]; then
    echo "tier-2: FAIL — BENCH_slo.json records no incidents" >&2
    exit 1
fi
if [ -z "$slo_alerts" ] || [ "$slo_alerts" -eq 0 ]; then
    echo "tier-2: FAIL — BENCH_slo.json records no alerts" >&2
    exit 1
fi

./target/release/slo_watch --serve >"$t2_dir/slo_calm.out" 2>/dev/null
if ! grep -q "(no incidents)" "$t2_dir/slo_calm.out"; then
    echo "tier-2: FAIL — calm serving soak did not render an empty timeline" >&2
    exit 1
fi

echo "tier-2: OK (slo watchtower: $slo_wps windows/s wall-clock, $slo_incidents incidents, $slo_alerts alerts, calm timeline empty)"

# Tier-2 flight smoke: the request flight recorder must render a
# byte-identical forensics page at 1 and 4 engine threads, hold the
# per-request span identity on the stormy soak, link every incident to
# concrete exemplar request ids, and resolve a linked id back to a
# span waterfall with `why --request`. The BENCH_flight.json side file
# must record the flight-on vs flight-off wall cost and the exemplar
# store's peak bytes.
echo "==> tier-2: request flight recorder forensics"
HCC_ENGINE_THREADS=1 ./target/release/why \
    >"$t2_dir/why1.out" 2>/dev/null
HCC_ENGINE_THREADS=4 ./target/release/why --json "$t2_dir/BENCH_flight.json" \
    >"$t2_dir/why4.out" 2>/dev/null

if ! diff -u "$t2_dir/why1.out" "$t2_dir/why4.out"; then
    echo "tier-2: FAIL — why stdout differs between 1 and 4 threads" >&2
    exit 1
fi
if ! grep -q "span-identity OK$" "$t2_dir/why1.out"; then
    echo "tier-2: FAIL — flight trailer missing or span identity violated" >&2
    exit 1
fi
if ! grep -q "incident #.*exemplars #" "$t2_dir/why1.out"; then
    echo "tier-2: FAIL — no incident links a flight exemplar" >&2
    exit 1
fi

why_req=$(sed -n 's/.*exemplars #\([0-9][0-9]*\).*/\1/p' "$t2_dir/why1.out" | head -n 1)
./target/release/why --request "$why_req" >"$t2_dir/why_req.out" 2>/dev/null
if ! grep -q "^request #$why_req " "$t2_dir/why_req.out" \
    || ! grep -q "span-identity OK" "$t2_dir/why_req.out"; then
    echo "tier-2: FAIL — incident exemplar #$why_req did not resolve to a waterfall" >&2
    exit 1
fi

store_bytes=$(sed -n 's/.*"store_peak_bytes":\([0-9][0-9]*\).*/\1/p' "$t2_dir/BENCH_flight.json")
wall_on=$(sed -n 's/.*"wall_ms_flight_on":\([0-9][0-9]*\).*/\1/p' "$t2_dir/BENCH_flight.json")
wall_off=$(sed -n 's/.*"wall_ms_flight_off":\([0-9][0-9]*\).*/\1/p' "$t2_dir/BENCH_flight.json")
if [ -z "$store_bytes" ] || [ "$store_bytes" -eq 0 ]; then
    echo "tier-2: FAIL — BENCH_flight.json reports no exemplar-store bytes" >&2
    exit 1
fi
if [ -z "$wall_on" ] || [ -z "$wall_off" ]; then
    echo "tier-2: FAIL — BENCH_flight.json missing flight-on/off wall figures" >&2
    exit 1
fi

echo "tier-2: OK (flight: exemplar #$why_req resolved, store $store_bytes bytes, ${wall_on}ms on vs ${wall_off}ms off)"

# Tier-2 benchmark build: hccperf (BENCHMARK.json) drives the library
# from outside through its public API — cluster::simulate,
# report::mode_run, arrival::generate, the watch and flight entry points
# and the report fields — so an API break fails here, not in the
# benchmark pipeline.
echo "==> tier-2: benchmark harness builds"
run cargo build --release --offline --manifest-path hccperf/Cargo.toml

echo "tier-2: OK (hccperf builds)"
