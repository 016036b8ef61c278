#!/usr/bin/env bash
# Offline CI gate: formatting, lints, build and the tier-1 test command.
#
# Everything here runs without network access — the workspace has no
# external dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== no tracked build output =="
# Build artifacts must never be committed (9.8k of them once were). Fail if
# the index contains anything under a target/ directory or other build
# output.
tracked_artifacts=$(git ls-files -- 'target/*' '*/target/*' '*.rlib' '*.rmeta' '*.o' '*.d' || true)
if [ -n "${tracked_artifacts}" ]; then
    echo "error: build artifacts are tracked by git:" >&2
    echo "${tracked_artifacts}" | head -20 >&2
    echo "(run: git rm -r --cached target)" >&2
    exit 1
fi

echo "== rustfmt =="
cargo fmt --all --check

echo "== clippy (workspace, deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== offline release build =="
cargo build --release --offline

echo "== tier-1 tests =="
cargo test -q

echo "== workspace tests =="
cargo test --workspace -q

echo "== rustdoc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "== fbt-lint golden reports =="
# Every catalog circuit with a golden file (all of them but the seeded bad
# circuit) must report bit-identically to it, in well-formed JSON. The
# --json payload now carries spliced "fix"/"perf" keys (the subject's
# wall-clock and the fix engine's miter effort); the helper asserts they
# are well-formed, then strips them so the pinned report bodies stay
# byte-comparable.
cargo build --release -q -p fbt-lint
lint_bin=target/release/fbt-lint
lint_out=$(mktemp)
lint_body=$(mktemp)
strip_lint_json() {
    python3 - "$1" "$2" <<'EOF'
import json, sys
raw = open(sys.argv[1]).read().rstrip("\n")
d = json.loads(raw)
perf = d["perf"]
assert sorted(perf) == ["micros", "miter_micros", "miter_queries"], perf
for key, value in perf.items():
    assert isinstance(value, int) and value >= 0, (key, perf)
if "fix" not in d:
    assert perf["miter_queries"] == perf["miter_micros"] == 0, perf
cuts = [i for i in (raw.find(',"fix":'), raw.find(',"perf":')) if i != -1]
body = raw[: min(cuts)] + "}" if cuts else raw
open(sys.argv[2], "w").write(body + "\n")
EOF
}
catalog_goldens=$(ls crates/lint/tests/golden/*.json | grep -v '/bad_circuit\.json$')
for gold in ${catalog_goldens}; do
    name=$(basename "${gold}" .json)
    "${lint_bin}" --json "${name}" 2>/dev/null > "${lint_out}"
    python3 -m json.tool "${lint_out}" > /dev/null
    strip_lint_json "${lint_out}" "${lint_body}"
    diff -u "${gold}" "${lint_body}"
done
# The seeded defective circuit (comb cycle + undriven net + shadowed PI +
# unsatisfiable constraint cube) must exit non-zero under the default
# --deny error filter, with the exact golden report...
if "${lint_bin}" --json \
    --constraints crates/lint/tests/fixtures/bad_circuit.constraints \
    crates/lint/tests/fixtures/bad_circuit.bench 2>/dev/null > "${lint_out}"; then
    echo "error: fbt-lint exited 0 on the seeded bad circuit" >&2
    exit 1
fi
python3 -m json.tool "${lint_out}" > /dev/null
strip_lint_json "${lint_out}" "${lint_body}"
diff -u crates/lint/tests/golden/bad_circuit.json "${lint_body}"
rm -f "${lint_body}"
# ...and every bundled benchmark must pass it (warnings/notes allowed).
"${lint_bin}" --deny error \
    s27 s298 s344 s349 s382 s386 s444 s510 s526 s641 s713 \
    s820 s832 s953 s1196 s1238 s1488 s1494 > /dev/null 2>&1

echo "== fbt-lint --fix (SAT-certified autofixes) =="
# Dry-run over the full 18-circuit catalog: every circuit must exit below
# 2 and no applied fix may be SAT-refuted.
for name in s27 s298 s344 s349 s382 s386 s444 s510 s526 s641 s713 \
            s820 s832 s953 s1196 s1238 s1488 s1494; do
    code=0
    "${lint_bin}" --json --fix-dry-run "${name}" 2>/dev/null > "${lint_out}" || code=$?
    if [ "${code}" -ge 2 ]; then
        echo "error: fbt-lint --fix-dry-run ${name} exited ${code}" >&2
        exit 1
    fi
    python3 - "${lint_out}" <<'EOF'
import json, sys
fix = json.load(open(sys.argv[1]))["fix"]
assert fix["refuted"] == 0, f"SAT-refuted applied fixes: {fix}"
EOF
done
# The seeded fixable circuit: the repair applies every rule, the written
# output is byte-deterministic, and the repair is idempotent (a second
# --fix over the repaired circuit applies nothing).
fix_dir=$(mktemp -d)
code=0
"${lint_bin}" --json --fix --fix-out "${fix_dir}/fixable1.bench" \
    crates/lint/tests/fixtures/fixable.bench 2>/dev/null > "${lint_out}" || code=$?
if [ "${code}" -ge 2 ]; then
    echo "error: fbt-lint --fix on the fixable fixture exited ${code}" >&2
    exit 1
fi
python3 - "${lint_out}" <<'EOF'
import json, sys
fix = json.load(open(sys.argv[1]))["fix"]
assert fix["applied"] >= 5 and fix["refuted"] == 0 and fix["changed"], fix
rules = {f["rule"] for f in fix["fixes"]}
want = {"undriven-stub", "const-fold", "chain-collapse", "dup-dedup", "dead-cone"}
assert want <= rules, f"missing fix rules: {want - rules}"
EOF
"${lint_bin}" --json --fix --fix-out "${fix_dir}/fixable2.bench" \
    crates/lint/tests/fixtures/fixable.bench > /dev/null 2>&1 || true
cmp "${fix_dir}/fixable1.bench" "${fix_dir}/fixable2.bench"
code=0
"${lint_bin}" --json --fix --fix-out "${fix_dir}/fixable3.bench" \
    "${fix_dir}/fixable1.bench" 2>/dev/null > "${lint_out}" || code=$?
if [ "${code}" -ge 2 ]; then
    echo "error: fbt-lint --fix on the repaired circuit exited ${code}" >&2
    exit 1
fi
python3 - "${lint_out}" <<'EOF'
import json, sys
fix = json.load(open(sys.argv[1]))["fix"]
assert fix["applied"] == 0 and fix["refuted"] == 0 and not fix["changed"], (
    f"--fix is not idempotent: {fix}"
)
EOF
# Unparseable input degrades gracefully: exit 2, no output file, the
# bench-parse diagnostic preserved in the report.
bad_in=$(mktemp)
echo "this is not bench" > "${bad_in}"
code=0
"${lint_bin}" --json --fix --fix-out "${fix_dir}/never.bench" "${bad_in}" \
    2>/dev/null > "${lint_out}" || code=$?
if [ "${code}" -ne 2 ]; then
    echo "error: --fix on unparseable input exited ${code}, want 2" >&2
    exit 1
fi
if [ -e "${fix_dir}/never.bench" ]; then
    echo "error: --fix wrote an output file for unparseable input" >&2
    exit 1
fi
grep -q "bench-parse" "${lint_out}"
rm -rf "${fix_dir}" "${bad_in}"

echo "== frontend twins (Verilog import == .bench import, byte-for-byte) =="
# Every catalog golden's circuit is exported in both wire formats and
# re-imported: the structural digests must agree across formats, and the
# lint report over the Verilog twin (via the strict --netlist route) must
# be byte-identical to the committed golden, capped rules included (they
# show findings in name order, not node order). The verilog_twins
# suite then proves the *generation* artifacts over re-imported twins match
# the committed Chapter-4 fixtures byte-exactly.
cargo build --release -q -p fbt-bench --bin fbt-conv
conv_bin=target/release/fbt-conv
conv_dir=$(mktemp -d)
lint_body=$(mktemp)
for gold in ${catalog_goldens}; do
    name=$(basename "${gold}" .json)
    "${conv_bin}" emit "${name}" -o "${conv_dir}/${name}.bench"
    "${conv_bin}" emit "${name}" -o "${conv_dir}/${name}.v"
    digests=$("${conv_bin}" digest "${conv_dir}/${name}.bench" "${conv_dir}/${name}.v" \
        | awk '{print $1}' | sort -u | wc -l)
    if [ "${digests}" -ne 1 ]; then
        echo "error: ${name}: structural digest differs across wire formats" >&2
        "${conv_bin}" digest "${conv_dir}/${name}.bench" "${conv_dir}/${name}.v" >&2
        exit 1
    fi
    "${lint_bin}" --json --netlist "${conv_dir}/${name}.v" 2>/dev/null > "${lint_out}"
    strip_lint_json "${lint_out}" "${lint_body}"
    diff -u "${gold}" "${lint_body}"
done
# Transcoding is involutive at the structure level: .v -> .bench -> .v
# keeps the digest.
"${conv_bin}" convert "${conv_dir}/s298.v" -o "${conv_dir}/s298.rt.bench"
"${conv_bin}" convert "${conv_dir}/s298.rt.bench" -o "${conv_dir}/s298.rt.v"
rt_digests=$("${conv_bin}" digest "${conv_dir}/s298.v" "${conv_dir}/s298.rt.v" \
    | awk '{print $1}' | sort -u | wc -l)
if [ "${rt_digests}" -ne 1 ]; then
    echo "error: s298: transcode round trip changed the structural digest" >&2
    exit 1
fi
cargo test --release -q -p fbt-core --test verilog_twins
rm -rf "${conv_dir}" "${lint_body}" "${lint_out}"

echo "== compiled kernels (18-circuit builds + scalar-oracle fault simulation) =="
# The compiled-kernel layer must (a) build a kernel for every catalog
# circuit the lint golden step covers and be bit-identical to the
# gate-walking interpreter on values and per-lane SWA, and (b) give fault
# simulation whose every outcome field equals the scalar fault-simulation
# oracle's (one test and one fault at a time through the interpreter,
# crates/fault/tests/common) — including the s27 grouped fixture at batch
# {1, 4, 16}. The interpreter and the scalar oracle are the references;
# these suites are the pin. The kprof probe then steps full-size s35932 on
# 8 lanes and asserts every lane's SWA against a naive popcount (a
# correctness smoke: its timings are printed, never gated).
cargo test --release -q -p fbt-sim --test kernel_differential
cargo test --release -q -p fbt-fault --test differential --test grouped_differential
cargo run --release -q -p fbt-sim --example kprof

echo "== golden Chapter-4 outcomes (bit-identity vs committed fixtures) =="
# The three generation modes must reproduce the committed pre-engine
# fixtures byte-exactly across batch/thread combinations (batch {1, 4, 16});
# the determinism suite diffs every batch/thread combination, under both
# the SWA bound and signal-transition patterns, against independent serial
# references.
cargo test --release -q -p fbt-core --test golden_ch4
cargo test --release -q -p fbt-core --test speculative_determinism
# The check of §4.1 that does not go through the simulator: SAT certifies
# every scan-in state of the unconstrained and constrained programs as
# reachable from reset within 8 cycles.
cargo test --release -q -p fbt-core --test certify_programs

echo "== bench_ch4 smoke (speculative search stats + JSON) =="
# One small constrained generation with stats printing (restricted to one
# circuit via the filter argument); the run itself asserts the serial and
# candidate-packed batch-8 modes reach identical coverage, and the JSON
# summary must record the unified engine it was measured on. Both modes run
# the same candidate-packed round, so there is no timing to compare: at
# smoke scale batch 8 simulates several times the cycles of batch 1.
bench_json=$(mktemp)
BENCH_CH4_OUT="${bench_json}" cargo run --release -q -p fbt-bench --bin bench_ch4 smoke spi
python3 - "${bench_json}" <<'EOF'
import json, sys

d = json.load(open(sys.argv[1]))
assert d.get("engine") == "unified", f"missing/stale engine field: {d.get('engine')!r}"
assert all(e["circuit"] == "spi" for e in d["entries"]), "circuit filter ignored"
modes = {e["mode"] for e in d["entries"]}
assert modes == {"serial", "packed8"}, f"unexpected mode set: {modes}"
assert all("threads_capped" in e for e in d["entries"]), "threads_capped missing"
for method in ("unconstrained", "constrained"):
    rows = {e["mode"]: e for e in d["entries"] if e["method"] == method}
    assert len({e["fc_pct"] for e in rows.values()}) == 1, f"{method}: coverage drifted"
EOF
rm -f "${bench_json}"

echo "== bench_sat smoke (CDCL solver stats + JSON) =="
# Solves every transition fault of the smoke circuits through the SAT
# backend; the run itself asserts repeated solving is bit-identical.
sat_json=$(mktemp)
BENCH_SAT_OUT="${sat_json}" cargo run --release -q -p fbt-bench --bin bench_sat smoke
python3 -m json.tool "${sat_json}" > /dev/null
rm -f "${sat_json}"

echo "== fbt-serve smoke (HTTP job service + loadgen + graceful shutdown) =="
# Start the job service on an ephemeral port, replay a small concurrent
# request mix over the 18-circuit catalog with the load generator, and
# check the report: zero errors, every job committed exactly once, ordered
# latency percentiles. The loadgen --shutdown flag then drains the server
# through POST /admin/shutdown; the server process must exit 0 on its own
# (no kill), which is the graceful-shutdown gate.
cargo build --release -q -p fbt-serve
serve_port_file=$(mktemp); rm -f "${serve_port_file}"
serve_out=$(mktemp)
target/release/fbt-serve --addr 127.0.0.1:0 --shards 2 --workers 2 \
    --port-file "${serve_port_file}" > "${serve_out}" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do [ -s "${serve_port_file}" ] && break; sleep 0.1; done
if [ ! -s "${serve_port_file}" ]; then
    echo "error: fbt-serve did not start" >&2
    cat "${serve_out}" >&2
    exit 1
fi
serve_json=$(mktemp)
target/release/loadgen --addr "$(cat "${serve_port_file}")" \
    --requests 60 --concurrency 8 --out "${serve_json}" \
    --label ci-smoke --shutdown
python3 - "${serve_json}" <<'EOF'
import json, sys

d = json.load(open(sys.argv[1]))
assert d["errors"] == 0, f"loadgen saw {d['errors']} errors: {d['error_samples']}"
assert d["completed"] == d["requests"] == 60, (d["completed"], d["requests"])
lat = d["latency"]
assert lat["count"] == 60, lat
assert 0 < lat["p50_ms"] <= lat["p90_ms"] <= lat["p99_ms"] <= lat["max_ms"], lat
pool = d["server_stats"]["pool"]
assert pool["submitted"] == pool["completed"] == 60, pool
assert pool["failed"] == 0 and pool["double_commits"] == 0, pool
assert pool["queued"] == 0 and pool["inflight"] == 0, pool
assert d["server_stats"]["kernel_cache"]["builds"] >= 1, d["server_stats"]
EOF
wait "${serve_pid}"
grep -q "drained and stopped" "${serve_out}"
rm -f "${serve_port_file}" "${serve_json}" "${serve_out}"

echo "== fbt-serve repaired-artifact smoke (lint+fix job, content-addressed fetch) =="
# A dedicated server instance (so the loadgen's exact pool counters above
# stay undisturbed): upload the fixable fixture, run a lint job with
# "fix":true, and fetch the repaired netlist both by its content digest
# and by its derived name alias; the original alias must keep pointing at
# the circuit as uploaded. While it is up, a foreign client (Python's
# http.client) checks that keep-alive requests do not wait for a delayed
# ACK, and a malformed request line must get a 400.
fix_port_file=$(mktemp); rm -f "${fix_port_file}"
fix_serve_out=$(mktemp)
target/release/fbt-serve --addr 127.0.0.1:0 --shards 1 --workers 1 \
    --port-file "${fix_port_file}" > "${fix_serve_out}" 2>&1 &
fix_serve_pid=$!
for _ in $(seq 1 100); do [ -s "${fix_port_file}" ] && break; sleep 0.1; done
if [ ! -s "${fix_port_file}" ]; then
    echo "error: fbt-serve (fix smoke) did not start" >&2
    cat "${fix_serve_out}" >&2
    exit 1
fi
python3 - "$(cat "${fix_port_file}")" <<'EOF'
import http.client, json, socket, sys, time

addr = sys.argv[1]
host, port = addr.rsplit(":", 1)

# The fixable fixture minus its undriven net: the upload path only admits
# buildable circuits (undriven-stub repairs are a CLI/raw-level concern).
MESSY = """INPUT(a)
INPUT(b)
OUTPUT(y)
OUTPUT(z)
f = DFF(y)
na = NOT(a)
k0 = AND(a, na)
u = OR(b, k0)
b1 = BUFF(u)
b2 = BUFF(b1)
b3 = NOT(b2)
d1 = AND(a, f)
d2 = AND(a, f)
y = OR(d1, b3)
z = OR(d2, a)
dead = XOR(a, b)
dead2 = NOT(dead)
"""

def req(method, url, body=None):
    c = http.client.HTTPConnection(host, int(port), timeout=10)
    c.request(method, url, body=body.encode() if isinstance(body, str) else body)
    r = c.getresponse()
    data = r.read().decode()
    c.close()
    return r.status, data

status, body = req("POST", "/circuits?name=fixable", MESSY)
assert status == 201, (status, body)
orig_digest = json.loads(body)["digest"]

status, body = req("POST", "/jobs", json.dumps(
    {"circuit": "fixable", "kind": "lint", "fix": True}))
assert status == 202, (status, body)
job = json.loads(body)["job"]
for _ in range(200):
    status, body = req("GET", f"/jobs/{job}/result")
    if status == 200:
        break
    time.sleep(0.05)
assert status == 200, (status, body)
result = json.loads(body)
assert result["fix"]["refuted"] == 0, result["fix"]
assert result["fix"]["applied"] >= 4, result["fix"]
fixed = result["fixed_digest"]
assert fixed != orig_digest, "the repair must change the structure"

status, body = req("GET", f"/circuits/{fixed}/bench")
assert status == 200 and "dead" not in body, (status, body[:200])
status, body = req("GET", "/circuits/fixable.fixed")
assert status == 200 and json.loads(body)["digest"] == fixed, (status, body)
status, body = req("GET", "/circuits/fixable")
assert status == 200 and json.loads(body)["digest"] == orig_digest, (status, body)

# One reused connection: a server that wrote a head and its body in two
# writes stalled each request after the first by a delayed ACK (~44 ms).
conn = http.client.HTTPConnection(host, int(port), timeout=10)
lint_job = json.dumps({"circuit": "s27", "kind": "lint"}).encode()
t0 = time.perf_counter()
for i in range(20):
    if i % 2 == 0:
        conn.request("POST", "/jobs", body=lint_job)
        expected = 202
    else:
        conn.request("GET", "/health")
        expected = 200
    r = conn.getresponse()
    data = r.read()
    assert r.status == expected, (i, r.status, data)
elapsed = time.perf_counter() - t0
conn.close()
assert elapsed < 0.4, f"20 keep-alive requests took {elapsed:.3f} s"

with socket.create_connection((host, int(port)), timeout=10) as raw:
    raw.sendall(b"GARBAGE\r\n\r\n")
    reply = raw.recv(4096)
assert reply.startswith(b"HTTP/1.1 400 "), reply

status, body = req("POST", "/admin/shutdown")
assert status == 200, (status, body)
EOF
wait "${fix_serve_pid}"
grep -q "drained and stopped" "${fix_serve_out}"
rm -f "${fix_port_file}" "${fix_serve_out}"

echo "== perfbench traced smokes (serve-mix and fault-grade, --trace 1) =="
# The repository benchmark, run as shipped, with tracing on. A traced run
# drives the named workload at full size and the other two as probes: it
# re-drives the Chapter-4 rounds, which must reproduce the library's
# counters_json through the public layer calls, compares every grading
# pass at 1 and `nproc` threads, and compares the served artifacts with
# jobs::execute. serve-mix serves its full job mix; fault-grade grades its
# full TPG sets. The result object on the last line must report a correct
# run with no failed operation.
perfbench_smoke() {
    local bench_out
    bench_out=$(mktemp)
    python3 perfbench/run.py --workload "$1" --seed 1 --seconds 5 --trace 1 > "${bench_out}"
    if ! python3 - "${bench_out}" <<'EOF'
import json, sys
d = json.loads(open(sys.argv[1]).read().splitlines()[-1])
assert d["correct"] is True and d["failed"] == 0, (
    f"correct={d['correct']} attempted={d['attempted']} failed={d['failed']}"
)
EOF
    then
        grep "check failed" "${bench_out}" >&2 || true
        exit 1
    fi
    rm -f "${bench_out}"
}
perfbench_smoke serve-mix
perfbench_smoke fault-grade

echo "CI OK"
