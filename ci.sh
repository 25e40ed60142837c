#!/usr/bin/env bash
# CI entry point: tier-1 verification in three configurations.
#
#   1. Release with warnings-as-errors for all APNA targets
#   2. ASan + UBSan (Debug)
#   3. ThreadSanitizer over the worker runtime (util::WorkerGroup) test,
#      the router/core concurrency tests, the control-plane pool test, the
#      crypto-labelled suites (per-slot DRBG independence, concurrent
#      batch verification), the persistence
#      coordinator's multi-threaded sink, and the bounded scenario storms
#      (the sharded data plane's stress suite, the M-worker issuance pool
#      and the attack-script interleavings; bounded runtime — TSan over the
#      full integration matrix would dominate CI time for no extra signal)
#
# 1 and 2 must build every library, test, bench and example target and pass
# the full ctest suite. Run from the repo root: ./ci.sh
set -euo pipefail

cd "$(dirname "$0")"

jobs=$(nproc 2>/dev/null || echo 2)

run_config() {
  local name=$1
  shift
  local build_dir="build-${name}"
  echo "=== [${name}] configure"
  cmake -B "${build_dir}" -S . "$@"
  echo "=== [${name}] build"
  cmake --build "${build_dir}" -j "${jobs}"
  echo "=== [${name}] test"
  ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}"
}

run_config ci       -DCMAKE_BUILD_TYPE=Release -DAPNA_WERROR=ON
# Zero-copy contract, explicitly in the Release leg: the operator-new-hook
# test must see 0 heap allocations per forwarded packet in steady state
# (optimized builds are where a copy/allocation regression actually shows).
ctest --test-dir build-ci --output-on-failure -L alloc
# Bench smoke, explicitly in the Release leg: tiny-iteration runs of the
# baseline-emitting benches (E1/E2/E7/E9) so they cannot compile- or
# bit-rot; their hard assertions (0 allocs/forwarded packet — including the
# loopback UDP leg — the E1 allocs/request ceiling, cached-vs-uncached and
# cross-tier crypto equivalence) run here too.
ctest --test-dir build-ci --output-on-failure -L bench
# Real-socket leg, explicitly in the Release leg: the transport conformance
# suite (both backends) plus the two-process loopback demo ride the `net`
# label; both skip cleanly where the environment forbids sockets. Bounded —
# loopback traffic only, smoke-sized windows.
ctest --test-dir build-ci --output-on-failure -L net
# Scenario leg, explicitly in Release: the Internet-scale scripts in --smoke
# trim (10⁶-host memory gate, attack storms, multi-AS sweep, DNS NXDOMAIN
# storm — each re-runs itself to verify byte-identical JSON) plus the
# scenario property tests. Release only: the 10⁶-host provisioning loop is
# what the gate measures, and sanitizer legs would spend minutes proving
# nothing new about it.
ctest --test-dir build-ci --output-on-failure -L scenario
# Scenario verdict pin, explicitly in Release: fresh runs must reproduce the
# checked-in SCENARIO_*.json field for field, apart from the machine-shape
# and provenance fields. attack_storms, multi_as and internet_scale pin their
# --smoke trim; kill_recover (recovered counts, bit-identical verdicts) and
# dns_storm pin their full runs, a few seconds each. A change that moves a
# verdict or counter must regenerate the artifact with it.
pin_dir=$(mktemp -d)
trap 'rm -rf "${pin_dir}"' EXIT
pin_scenario() {
  local sc=$1
  shift
  build-ci/bench/bench_scenario --scenario="${sc}" "$@" \
    --json="${pin_dir}/SCENARIO_${sc}.json" > /dev/null
  python3 - "SCENARIO_${sc}.json" "${pin_dir}/SCENARIO_${sc}.json" <<'PY'
import json, sys
skip = {"git_sha", "hardware_concurrency", "single_core", "crypto_backend"}
def flat(v, path=""):
    if isinstance(v, dict):
        for k, x in v.items():
            if k not in skip:
                yield from flat(x, f"{path}.{k}")
    elif isinstance(v, list):
        for i, x in enumerate(v):
            yield from flat(x, f"{path}[{i}]")
    else:
        yield path, v
want, got = (dict(flat(json.load(open(p)))) for p in sys.argv[1:])
moved = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
if moved:
    sys.exit(f"{sys.argv[1]} differs from a fresh run at: {', '.join(moved)}")
PY
}
pin_scenario attack_storms --smoke
pin_scenario multi_as --smoke
pin_scenario internet_scale --smoke
pin_scenario kill_recover
pin_scenario dns_storm
# DNS resolver leg, explicitly in Release: the wire codec, sharded
# TTL/negative cache, domain-policy trie and upstream timeout/backoff suites
# (bench_smoke_e7 — the 50k-name bytes/name + negative-bound gates — rides
# the bench label above).
ctest --test-dir build-ci --output-on-failure -L dns
# Durability leg, explicitly in Release: journal framing under every
# truncation point and bit flip, snapshot self-checksums, fault-injected
# short-write/fsync failures and full AsState snapshot+journal recovery
# (the kill_recover scenario's bit-identical verdict gate rides the
# scenario label above).
ctest --test-dir build-ci --output-on-failure -L persist
# Forced-soft crypto leg, explicitly in Release: re-run the KAT suite with
# the backend capped to the portable C implementation. The wide SIMD tiers
# are equivalence-tested against soft in-process; this run is the converse
# guard — the soft fallback itself must stay correct on a host (or cap)
# without AES-NI/AVX2/VAES, where it IS the production path.
APNA_CRYPTO_BACKEND=soft ctest --test-dir build-ci --output-on-failure \
  -R '^crypto_kat_test$'
# End-to-end benchmark build + self-test, explicitly in Release: apnabench/
# is its own CMake project over the src/ libraries, so neither the build nor
# ctest above compiles it. A src/ API change it depends on (certificate
# encoding, control sealing, decode_msg) must fail here, not in a benchmark
# run. Builds both programs into .bench_build/ and runs their self-test.
python3 apnabench/run.py --selftest

run_config sanitize -DCMAKE_BUILD_TYPE=Debug -DAPNA_SANITIZE=ON -DAPNA_WERROR=ON
# Wire-image property suites, explicitly under ASan/UBSan: PacketView::bind
# and Packet::parse over truncations/mutations are exactly the code where
# an out-of-bounds read would hide.
ctest --test-dir build-sanitize --output-on-failure -L wire
# Control-plane service fabric, explicitly under ASan/UBSan: the span codec
# (MsgWriter/MsgReader truncation properties) and the pooled issuance path
# are where a control-message bounds bug would hide.
ctest --test-dir build-sanitize --output-on-failure -L services
# Real-socket RX under ASan/UBSan: recvfrom into pooled storage, the
# MSG_TRUNC oversize arm, and bind() over adversarial datagrams are exactly
# where a syscall-boundary bounds bug would hide.
ctest --test-dir build-sanitize --output-on-failure -L net
# DNS resolver under ASan/UBSan: the name codec's per-byte truncation
# properties, the arena-backed cache (size-class slabs, backward-shift
# deletion) and the trie edge splits are where a bounds bug would hide.
ctest --test-dir build-sanitize --output-on-failure -L dns
# Durability layer under ASan/UBSan: replay_journal walks attacker-shaped
# bytes (every truncation point, every bit flip) and the snapshot reader
# parses self-described lengths — exactly where an out-of-bounds read or a
# torn-frame over-read would hide.
ctest --test-dir build-sanitize --output-on-failure -L persist

echo "=== [tsan] configure"
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DAPNA_TSAN=ON \
  -DAPNA_WERROR=ON -DAPNA_BUILD_BENCH=OFF -DAPNA_BUILD_EXAMPLES=OFF
echo "=== [tsan] build (concurrency-labelled tests only)"
# scenario_test rides the TSan leg too: its bounded storm scripts (bogus-
# EphID flood, shutoff storm, revocation waves) drive the multi-worker
# ForwardingPool, per-worker FlowCaches and the striped revocation tables
# under racing epoch bumps — the attack-time interleavings the fixed-size
# concurrency tests don't reach.
# dns_concurrency_test rides the TSan leg too: resolver lookups racing zone
# put/erase and domain-policy churn, plus the M-worker ResolverPool — the
# lock-striped cache's epoch-stamping discipline under real interleavings.
# The crypto label rides the TSan leg too: per-slot HMAC-DRBG independence
# and concurrent ed25519_verify_batch (crypto_concurrency_test) are exactly
# where a shared-scratch race would hide, and the KAT/property suites are
# cheap enough to keep as ballast.
# worker_group_test rides the TSan leg too: util::WorkerGroup is the one
# fork-join runtime under all three pools, and its atomic-wait handoff is
# what orders a burst's inputs before the workers and their results before
# the caller.
# persist_test rides the TSan leg too: service threads (AA revocations, RS
# enrollment) funnel journal records through one PersistCoordinator sink
# while the main thread rotates snapshots — the group-commit buffer's
# locking discipline under real interleavings.
cmake --build build-tsan -j "${jobs}" \
  --target worker_group_test router_concurrency_test router_test core_test \
  control_plane_test flow_cache_test scenario_test dns_concurrency_test \
  persist_test crypto_test crypto_kat_test crypto_property_test crypto_concurrency_test
echo "=== [tsan] test"
ctest --test-dir build-tsan --output-on-failure -j "${jobs}" \
  -R '^(worker_group_test|router_concurrency_test|router_test|core_test|control_plane_test|flow_cache_test|scenario_test|dns_concurrency_test|persist_test)$'
ctest --test-dir build-tsan --output-on-failure -j "${jobs}" -L crypto

echo "=== CI green: Release(-Werror), ASan/UBSan and TSan legs all passed"
