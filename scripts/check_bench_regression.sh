#!/usr/bin/env bash
# Bench-regression smoke check for the simulator hot paths.
#
# Runs `bench_sim --quick` to a temp file and compares it against the
# committed BENCH_sim.json baseline. Fails if:
#   - allocs_per_packet > 0      (the packet path started allocating)
#   - txn_allocs_per_packet > 0  (the lowered transaction-IR grant path
#     started allocating; fresh run only, so older baselines without
#     the field stay valid)
#   - dataplane_ns_per_op        regressed > 25% vs the baseline
#   - lock_table_ns_per_op / lock_table_cold_ns_per_op missing or
#     absurd (<= 0 or > 100 µs per acquire+release pair), or the cold
#     stream (every lock id new) costs > 3x the hot 64-lock loop: the
#     table reclaims a lock's entry when its last holder leaves, so the
#     two run the same code and land within noise of each other; a
#     table that keeps idle entries grows a map per cold lock and lands
#     at 10-20x
#   - the committed baseline's old_over_new < 1.0 at depths
#     64/1024/8192 (the calendar queue fell behind the inline heap —
#     the full-scale committed artifact is the acceptance gate)
#   - the fresh quick run's old_over_new < 0.9 at those depths (the
#     quick run is short and shallow depths are noisy, so it gets a
#     10% noise margin; a genuine regression lands far below it)
#   - packet_bytes > 48            (the event slot grew — every queue
#     move now copies more; mirrors the const assertion in
#     crates/core/tests/packet_size.rs)
#   - sim_events_per_sec < 0.6 × the committed baseline (whole-spine
#     rate through the public Simulator API; generous margin because
#     the quick run is short and machines differ — a real spine
#     regression like a lost fast path lands well below 0.6)
#   - sim_parallel_events_per_sec.best_paired_ratio < 0.95 (the
#     conservative-window loop at one worker must stay within 5% of the
#     *same scenario* on the fused serial loop; the gated value is the
#     best paired ratio across interleaved (serial_ref, workers_1)
#     runs, so machine noise — which hits both halves of a pair equally
#     — cannot fail the gate, while a real >5% per-event slowdown holds
#     every pair below 0.95; runs without the field fall back to
#     w1_over_ref, then workers_1 / serial_ref, then
#     workers_1 / sim_events_per_sec)
#   - w1_over_ref inconsistent with its own numerator/denominator: on
#     any report (fresh or baseline) that carries best_paired_ratio,
#     w1_over_ref must equal workers_1 / serial_ref to within rendering
#     tolerance — this is the self-consistency check that would have
#     caught the old bug where the field recorded the max paired ratio
#     (1.669) next to workers_1/serial_ref fields that implied 0.90
#   - sim_parallel_events_per_sec.workers_1 < 0.6 × the committed
#     baseline's (same cross-machine margin as the serial spine)
#   - agg_requests_per_sec < 1e6 (the batched aggregate-population path
#     must sustain >= 1M lock requests per wall-second on the 100K-
#     client shared-queue scenario; this box measures ~10M/s, so the
#     floor only trips on an order-of-magnitude loss like falling back
#     to per-request events; skipped for pre-v6 runs without the field)
#   - workers_max < 1.5 × workers_1 when the host has >= 4 cores (the
#     parallel windows must actually buy wall-clock on multi-rack
#     scenarios; skipped on small hosts where no speedup is possible)
#
# It then runs `dlock_bench --quick` (real-threads delegation backends
# over the server lock table) and fails if:
#   - the sequential lock-table calibration (seq_lock_table_ns_per_op /
#     calibrated_service_ns) is missing or absurd (<= 0 or > 100 µs)
#   - any of the three backends (mutex, flat_combining, ccsynch) is
#     missing or reports a point with non-positive throughput
#   - the mutex baseline's 1-thread hot/excl mean latency regressed
#     > 3x vs the committed BENCH_dlock.json (cross-machine smoke
#     margin, as for dataplane_ns_per_op)
#   - on a >= 4-core host where the quick ladder reaches >= 4 threads,
#     flat combining or CCSynch fails to beat the mutex baseline by
#     >= 1.5x on the contended hot/excl point (skipped on smaller
#     hosts, where oversubscription makes the comparison meaningless —
#     same policy as the workers_max gate)
#
# Absolute nanosecond numbers vary across machines; the 25% bound is a
# smoke threshold to catch order-of-magnitude mistakes (an accidental
# debug path, a reintroduced per-packet allocation made of time instead
# of memory), not a precision gate.
#
# Usage: scripts/check_bench_regression.sh  (expects release bench_sim
# built; override the binary dir with BIN_DIR=...)
set -euo pipefail
cd "$(dirname "$0")/.."

BIN_DIR=${BIN_DIR:-target/release}

out=$(mktemp)
"$BIN_DIR/bench_sim" "$out" --quick >/dev/null

dlock_out=$(mktemp)
"$BIN_DIR/dlock_bench" "$dlock_out" --quick >/dev/null

python3 - "$out" BENCH_sim.json "$dlock_out" BENCH_dlock.json <<'EOF'
import json, sys

new = json.load(open(sys.argv[1]))
base = json.load(open(sys.argv[2]))
dnew = json.load(open(sys.argv[3]))
dbase = json.load(open(sys.argv[4]))
fail = []

allocs = new["allocs_per_packet"]
if allocs > 0:
    fail.append(f"allocs_per_packet = {allocs} (must be 0)")

txn_allocs = new.get("txn_allocs_per_packet", 0)
if txn_allocs > 0:
    fail.append(f"txn_allocs_per_packet = {txn_allocs} (must be 0)")

agg = new.get("agg_requests_per_sec")
if agg is not None and agg < 1e6:
    fail.append(
        f"agg_requests_per_sec = {agg/1e6:.2f}M (batched aggregate path "
        f"must sustain >= 1M requests/s)"
    )

pkt = new.get("packet_bytes", 0)
if pkt > 48:
    fail.append(f"packet_bytes = {pkt} (event slot must stay <= 48)")

eps_new = new.get("sim_events_per_sec", 0.0)
eps_base = base.get("sim_events_per_sec", 0.0)
if eps_base > 0 and eps_new < eps_base * 0.6:
    fail.append(
        f"sim_events_per_sec regressed: {eps_new/1e6:.1f}M vs baseline "
        f"{eps_base/1e6:.1f}M (< 0.6x)"
    )

par_new = new.get("sim_parallel_events_per_sec", {})
par_base = base.get("sim_parallel_events_per_sec", {})
w1 = par_new.get("workers_1", 0.0)
wmax = par_new.get("workers_max", 0.0)
serial_ref = par_new.get("serial_ref", 0.0) or eps_new

# Self-consistency: wherever a report carries best_paired_ratio
# (schema >= 7), its w1_over_ref must be exactly the ratio of the
# workers_1 / serial_ref fields beside it (2% tolerance covers the
# 3-decimal JSON rendering).
for label, rep in (("fresh run", par_new), ("baseline", par_base)):
    if "best_paired_ratio" not in rep:
        continue
    recorded = rep.get("w1_over_ref", 0.0)
    ref, one = rep.get("serial_ref", 0.0), rep.get("workers_1", 0.0)
    if ref > 0 and one > 0 and recorded > 0:
        implied = one / ref
        if abs(recorded - implied) > 0.02 * implied:
            fail.append(
                f"{label}: w1_over_ref = {recorded:.3f} but workers_1 / "
                f"serial_ref = {implied:.3f} (field inconsistent with its "
                f"own numerator/denominator)"
            )

ratio = par_new.get("best_paired_ratio", 0.0) or par_new.get("w1_over_ref", 0.0)
if not ratio and w1 and serial_ref:
    ratio = w1 / serial_ref
if ratio and ratio < 0.95:
    fail.append(
        f"1-worker partitioned spine fell behind the fused serial loop on "
        f"the same scenario: best paired ratio {ratio:.3f} (< 0.95)"
    )
w1_base = par_base.get("workers_1", 0.0)
if w1_base > 0 and w1 < w1_base * 0.6:
    fail.append(
        f"sim_parallel_events_per_sec.workers_1 regressed: {w1/1e6:.1f}M vs "
        f"baseline {w1_base/1e6:.1f}M (< 0.6x)"
    )
cores = par_new.get("max_workers", 1)
if cores >= 4 and w1 and wmax < w1 * 1.5:
    fail.append(
        f"parallel windows bought no speedup on a {cores}-core host: "
        f"{wmax/1e6:.1f}M at {cores} workers vs {w1/1e6:.1f}M at 1 (< 1.5x)"
    )

# --- dlock: real-threads delegation backends -------------------------
seq_ns = dnew.get("seq_lock_table_ns_per_op", 0.0)
if not 0.0 < seq_ns < 100_000.0:
    fail.append(
        f"dlock seq_lock_table_ns_per_op = {seq_ns} (calibration input "
        f"missing or absurd)"
    )
cal_ns = dnew.get("calibrated_service_ns", 0.0)
if not 0.0 < cal_ns < 100_000.0:
    fail.append(f"dlock calibrated_service_ns = {cal_ns} (missing or absurd)")


def dlock_points(rep, backend):
    for b in rep.get("backends", []):
        if b.get("backend") == backend:
            return b.get("points", [])
    return []


def dlock_find(rep, backend, threads, dist, mix, cs):
    for p in dlock_points(rep, backend):
        if (
            p.get("threads") == threads
            and p.get("dist") == dist
            and p.get("mix") == mix
            and p.get("cs_spins") == cs
        ):
            return p
    return None


for backend in ("mutex", "flat_combining", "ccsynch"):
    pts = dlock_points(dnew, backend)
    if not pts:
        fail.append(f"dlock backend {backend} missing from fresh run")
        continue
    for p in pts:
        if p.get("mops", 0.0) <= 0.0 or p.get("ops", 0) <= 0:
            fail.append(
                f"dlock {backend} point threads={p.get('threads')} "
                f"dist={p.get('dist')} reports no throughput"
            )
            break

mlat_new = dlock_find(dnew, "mutex", 1, "hot", "excl", 0)
mlat_base = dlock_find(dbase, "mutex", 1, "hot", "excl", 0)
if mlat_new is None:
    fail.append("dlock fresh run lacks the 1-thread hot/excl mutex point")
elif mlat_base is not None:
    n, b = mlat_new.get("mean_ns", 0.0), mlat_base.get("mean_ns", 0.0)
    if b > 0 and n > b * 3.0:
        fail.append(
            f"dlock mutex 1-thread hot mean latency regressed: {n:.0f}ns vs "
            f"baseline {b:.0f}ns (> 3x)"
        )

dcont = dnew.get("contended", {})
dcores = dnew.get("threads_available", 1)
dcont_threads = dcont.get("threads", 1)
fc_x = dcont.get("fc_over_mutex", 0.0)
cc_x = dcont.get("cc_over_mutex", 0.0)
if dcores >= 4 and dcont_threads >= 4:
    if fc_x < 1.5:
        fail.append(
            f"flat combining only {fc_x:.2f}x mutex at {dcont_threads} "
            f"threads hot/excl on a {dcores}-core host (< 1.5x)"
        )
    if cc_x < 1.5:
        fail.append(
            f"ccsynch only {cc_x:.2f}x mutex at {dcont_threads} threads "
            f"hot/excl on a {dcores}-core host (< 1.5x)"
        )
    dlock_gate = f"fc {fc_x:.2f}x cc {cc_x:.2f}x mutex"
else:
    dlock_gate = f"speedup gate skipped ({dcores} cores)"

dp_new, dp_base = new["dataplane_ns_per_op"], base["dataplane_ns_per_op"]
if dp_new > dp_base * 1.25:
    fail.append(
        f"dataplane_ns_per_op regressed: {dp_new:.1f} vs baseline "
        f"{dp_base:.1f} (> 25%)"
    )

lt_hot = new.get("lock_table_ns_per_op", 0.0)
lt_cold = new.get("lock_table_cold_ns_per_op", 0.0)
for name, ns in (("lock_table_ns_per_op", lt_hot), ("lock_table_cold_ns_per_op", lt_cold)):
    if not 0.0 < ns < 100_000.0:
        fail.append(f"{name} = {ns} (missing or absurd)")
if lt_hot > 0 and lt_cold > lt_hot * 3.0:
    fail.append(
        f"lock_table_cold_ns_per_op = {lt_cold:.1f} vs hot {lt_hot:.1f} "
        f"(> 3x: idle lock-table entries are being kept)"
    )

for point in base["queue_churn"]:
    if point["depth"] in (64, 1024, 8192) and point["old_over_new"] < 1.0:
        fail.append(
            f"committed baseline: calendar queue behind inline heap at depth "
            f"{point['depth']}: old_over_new = {point['old_over_new']:.3f}"
        )

for point in new["queue_churn"]:
    if point["depth"] in (64, 1024, 8192) and point["old_over_new"] < 0.9:
        fail.append(
            f"calendar queue lost to inline heap at depth {point['depth']}: "
            f"old_over_new = {point['old_over_new']:.3f} (noise margin 0.9)"
        )

if fail:
    for f in fail:
        print(f"FAIL  {f}")
    sys.exit(1)
print(
    f"ok    allocs_per_packet=0  txn_allocs_per_packet=0  packet_bytes={pkt}  "
    f"agg {(agg or 0)/1e6:.1f}M req/s  "
    f"spine {eps_new/1e6:.1f}M ev/s (baseline {eps_base/1e6:.1f}M)  "
    f"parallel ref {serial_ref/1e6:.1f}M w1 {w1/1e6:.1f}M "
    f"(paired {ratio:.2f}) wmax {wmax/1e6:.1f}M ({cores} cores)  "
    f"dataplane {dp_new:.1f}ns/op "
    f"(baseline {dp_base:.1f})  lock table {lt_hot:.1f}ns/pair "
    f"(cold {lt_cold:.1f})  queue ratios "
    + " ".join(f"{p['old_over_new']:.2f}" for p in new["queue_churn"])
    + f"  dlock seq {seq_ns:.1f}ns/msg, {dlock_gate}"
)
EOF
