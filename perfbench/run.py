#!/usr/bin/env python3
"""The repository benchmark: live write/read saturation plus a checker audit.

Run from the root of a checkout:

    python3 perfbench/run.py --workload live-write --seed 21 --seconds 20 --trace 0

Workloads (perfbench/manifest.json says why each was chosen):

  live-write  two-domain causal-MVR cluster at closed-loop saturation,
              90% writes over 64 uniform keys: wire and delivery bound.
  live-read   the same cluster, 90% reads, Zipf 0.99 over 4096 keys:
              do_op and load generation bound, frames rarer.
  audit       a seeded simulated history (4 replicas, 1000 ops) and the
              check set `serve --check` requires of causal stores.

Every measured run is a fresh process of perfbench/bench.exe under a
wall-clock watchdog. A live workload runs the two-domain cluster (output
checks, cluster counters, wall-clock throughput and lag, printed) and
the single-domain node loop over the same layers for the gated metrics,
timed in CPU seconds so that the host's steal time stays out of them.
A run fails when it exits non-zero, hangs past its watchdog, ends
Diverged, or fails its output check, and every op it attempted counts as
failed. Every invocation also runs one short fixed-rate captured live run
and audits it with the unmodified checkers.

Measured runs force Wire.Frame's lazy CRC table before their domains
start. A live invocation with --trace 0 also makes a few cold starts
that do not, and prints how many lost a domain to the race on that
table; they are a diagnostic and stay out of attempted and failed.

With --trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer ones (a traced single-domain loop, the cluster's
own counters, and per-check timings). The lines above it are a readable
table with the context metrics that are not gated. Raw child outputs and
the traced run's spans go to .perfbench/ in the checkout.
"""

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
OUT_DIR = ".perfbench"

WORKLOADS = ("live-write", "live-read", "audit")

# Run lengths. The live workloads give CLUSTER_SHARE of --seconds to
# cluster runs and the rest to node-loop runs (CPU seconds), each split
# into sub-runs of at most SUB_SECONDS, and report medians over them.
# The audit repeats whole runs until --seconds of them have been measured.
SUB_SECONDS = 4.0
CLUSTER_SHARE = 1.0 / 3.0
COLD_STARTS = 4
COLD_SECONDS = 0.5
CAPTURE_SECONDS = 0.3
CAPTURE_ATTEMPTS = 3
CAPTURE_RATE = 1000.0
SETUP_PROBES = 15
TRACE_SECONDS = 3.0
AUDIT_MIN_RUNS = 3

# Watchdog slack over a run's planned length. A healthy live run drains
# in under a second; a run with a dead domain waits out the cluster's
# 10 s convergence deadline and then hangs or crashes in Domain.join.
LIVE_SLACK = 20.0
AUDIT_TIMEOUT = 60.0
PROBE_TIMEOUT = 5.0

# A node-loop run of D CPU seconds may take longer on the wall clock
# while the host steals its vCPU.
LOOP_WALL_FACTOR = 3.0

# No measured run starts later than this after the invocation began, so
# that even a run of failures ends the invocation well inside 180 s.
LAUNCH_BUDGET_S = 100.0
_launch_deadline = math.inf


def out_of_time():
    return time.time() > _launch_deadline

CHECKS = ("well_formed", "complies", "correct", "causal")


def load_manifest():
    with open(os.path.join(HERE, "manifest.json")) as f:
        return json.load(f)


# ---------- metric arithmetic ----------


def percentile(values, q):
    """The q-quantile (0 <= q <= 1), interpolating linearly between the
    two closest ranks of the sorted values."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile out of [0, 1]")
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return percentile(values, 0.5)


def spread(values):
    """Distance between the first and third quartile as a share of the
    median, with quartiles as statistics.quantiles(values, n=4) gives
    them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def tail_percentile(samples):
    """The highest reported percentile with at least ten samples beyond
    it, or None when there are too few samples for any."""
    for per_mille in (999, 990, 950, 900, 500):
        if samples * (1000 - per_mille) >= 10 * 1000:
            return per_mille / 1000
    return None


def failed_share(attempted, failed):
    if attempted <= 0:
        raise ValueError("no attempted operations")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


# ---------- child processes ----------


class Run:
    """One child process: its kind, how it ended and what it printed.

    status is "ok", "crash" (non-zero exit or no result line), "hang"
    (killed by the watchdog) or "check" (it ran, but its output check
    failed)."""

    def __init__(self, kind, status, data, detail, t_spawn, wall):
        self.kind = kind
        self.status = status
        self.data = data
        self.detail = detail
        self.t_spawn = t_spawn
        self.wall = wall

    @property
    def ok(self):
        return self.status == "ok"

    def ops(self):
        return None if self.data is None else self.data.get("ops")


POLL_S = 0.05

# A live run has its main thread, two domains, and one backup thread per
# domain (OCaml 5 starts one beside every domain, the main one included).
LIVE_THREADS = 2 * (1 + 2)
STARTUP_S = 0.2


def thread_count(pid):
    try:
        return len(os.listdir("/proc/%d/task" % pid))
    except OSError:
        return None


class Steady:
    """From `start` to `end` seconds after the spawn the child must keep
    at least `threads` threads: a live run's domains end only after its
    load phase, so a missing thread in that window is a domain that died.
    The cluster would otherwise sit out its convergence deadline and then
    crash or hang in Domain.join."""

    def __init__(self, start, end, threads):
        self.start, self.end, self.threads = start, end, threads


def run_child(kind, argv, timeout, steady=None):
    """Run argv in a fresh process group, kill the group if it outlives
    timeout seconds or breaks its Steady window, and always wait for it
    to end. A broken window counts as a crash."""
    t_spawn = time.time()
    proc = subprocess.Popen(
        argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        short_since = None
        while True:
            try:
                proc.wait(timeout=POLL_S)
                break
            except subprocess.TimeoutExpired:
                pass
            now = time.time() - t_spawn
            if now > timeout:
                kill(proc)
                return Run(kind, "hang", None, "killed after %.0f s" % timeout, t_spawn,
                           time.time() - t_spawn)
            n = None
            if steady is not None and steady.start <= now < steady.end:
                n = thread_count(proc.pid)
            if n is not None and n < steady.threads:
                # short on two polls in a row: not a thread caught mid-start
                if short_since is None:
                    short_since = now
                else:
                    kill(proc)
                    return Run(kind, "crash", None,
                               "a domain died: %d of %d threads %.2f s into the run"
                               % (n, steady.threads, short_since), t_spawn,
                               time.time() - t_spawn)
            else:
                short_since = None
        out, err = proc.communicate()
    except BaseException:
        # interrupted (SIGTERM, Ctrl-C): take the child down with us
        kill(proc)
        raise
    wall = time.time() - t_spawn
    if proc.returncode != 0:
        last = (err.strip().splitlines() or ["(no stderr)"])[-1]
        return Run(kind, "crash", None, "exit %d: %s" % (proc.returncode, last),
                   t_spawn, wall)
    lines = out.strip().splitlines()
    try:
        data = json.loads(lines[-1])
    except (IndexError, ValueError):
        return Run(kind, "crash", None, "no result line", t_spawn, wall)
    return Run(kind, "ok", data, "", t_spawn, wall)


def kill(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


def output_check(run, expected_occ=None):
    """Demote an ok run whose output is wrong to status "check"."""
    if not run.ok:
        return run
    d = run.data
    why = []
    if not d.get("ok", False):
        why.append(d.get("why") or "not ok")
    for name in CHECKS:
        if name in d and d[name] is not None:
            why.append("%s: %s" % (name, d[name]))
    if expected_occ is not None and d.get("occ_violations") != expected_occ:
        why.append("occ violations %s, recorded %d" % (d.get("occ_violations"), expected_occ))
    if why:
        run.status = "check"
        run.detail = "; ".join(why)
    return run


class Ledger:
    """Every run of one invocation, and the failure arithmetic over them.

    A failed run's ops all count as failed. A run that died before
    reporting is charged the median ops of the completed runs of its kind
    (at least 1), since it was meant to do as much."""

    def __init__(self):
        self.runs = []

    def add(self, run):
        self.runs.append(run)
        return run

    def completed(self, kind):
        return [r for r in self.runs if r.kind == kind and r.ok]

    def totals(self):
        attempted = failed = 0
        for r in self.runs:
            ops = r.ops()
            if ops is None:
                done = [x.ops() for x in self.runs
                        if x.kind == r.kind and x.ops() is not None]
                ops = max(1, int(median(done))) if done else 1
            attempted += ops
            if not r.ok:
                failed += ops
        return attempted, failed

    def correct(self):
        return not any(r.status == "check" for r in self.runs)


# ---------- workloads ----------


def bench(*args):
    return [EXE] + [str(a) for a in args]


def capture_run(ledger, workload, seed, trace):
    """The invocation's captured run; one that dies before reporting is
    counted and replaced, up to CAPTURE_ATTEMPTS in all."""
    argv = bench("capture", "--workload", workload, "--seed", seed,
                 "--seconds", CAPTURE_SECONDS, "--rate", CAPTURE_RATE)
    if trace:
        argv.append("--trace")
    for _ in range(CAPTURE_ATTEMPTS):
        r = ledger.add(output_check(run_child("capture", argv, CAPTURE_SECONDS + LIVE_SLACK,
                                              Steady(STARTUP_S, CAPTURE_SECONDS, LIVE_THREADS))))
        if r.data is not None:
            break
    return r


def probe_runs(ledger, workload, seed):
    runs = []
    for _ in range(SETUP_PROBES):
        if out_of_time():
            break
        r = ledger.add(output_check(run_child(
            "probe", bench("probe", "--workload", workload, "--seed", seed), PROBE_TIMEOUT)))
        runs.append(r)
    return [r.data["t_call"] - r.t_spawn for r in runs if r.ok]


def traced_run(ledger, workload, seed):
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, "spans-%s-%d.csv" % (workload, seed))
    argv = bench("traced", "--workload", workload, "--seed", seed,
                 "--seconds", TRACE_SECONDS, "--spans", spans)
    return ledger.add(run_child("traced", argv, 2 * TRACE_SECONDS + LIVE_SLACK))


def split(seconds):
    """The number and length of equal sub-runs of at most SUB_SECONDS
    that fill seconds."""
    k = max(1, math.ceil(seconds / SUB_SECONDS - 1e-9))
    return k, seconds / k


def repeat(ledger, kind, argv, k, run_one):
    """k completed runs of argv; a failed one is counted and replaced, up
    to 2k attempts, so the medians keep their sample size."""
    for _ in range(2 * k):
        ledger.add(output_check(run_one(argv)))
        if len(ledger.completed(kind)) == k or out_of_time():
            break
    return ledger.completed(kind)


def live_runs(ledger, workload, seed, seconds):
    """Cluster sub-runs for CLUSTER_SHARE of --seconds, node-loop sub-runs
    for the rest. Returns both lists of completed runs."""
    k, d = split(seconds * CLUSTER_SHARE)
    subs = repeat(ledger, "live",
                  bench("live", "--workload", workload, "--seed", seed, "--seconds", d), k,
                  lambda argv: run_child("live", argv, d + LIVE_SLACK,
                                         Steady(STARTUP_S, d, LIVE_THREADS)))
    k, d = split(seconds * (1.0 - CLUSTER_SHARE))
    loops = repeat(ledger, "loop",
                   bench("loop", "--workload", workload, "--seed", seed, "--seconds", d), k,
                   lambda argv: run_child("loop", argv, LOOP_WALL_FACTOR * d + LIVE_SLACK))
    return subs, loops


def cold_starts(workload, seed):
    """Saturated cluster runs without the Wire.Frame warm-up. Kept out of
    the ledger: they count how often the start-up race strikes, not how
    the workload runs. Returns (runs, lost), lost being those that
    crashed or hung."""
    argv = bench("live", "--workload", workload, "--seed", seed, "--seconds", COLD_SECONDS,
                 "--cold")
    runs = lost = 0
    for _ in range(COLD_STARTS):
        if out_of_time():
            break
        r = run_child("cold", argv, COLD_SECONDS + LIVE_SLACK,
                      Steady(STARTUP_S, COLD_SECONDS, LIVE_THREADS))
        runs += 1
        lost += r.status in ("crash", "hang")
    return runs, lost


def audit_seed(seed, i, table_size):
    """The i-th history of an invocation: distinct per i, inside the range
    the recorded OCC table covers."""
    return (seed * 31 + i) % table_size


def audit_runs(ledger, seed, seconds, trace, occ_table):
    spent = 0.0
    i = 0
    while (spent < seconds or i < AUDIT_MIN_RUNS) and not out_of_time():
        s = audit_seed(seed, i, len(occ_table))
        argv = bench("audit", "--seed", s)
        if trace:
            argv.append("--trace")
        r = ledger.add(output_check(run_child("audit", argv, AUDIT_TIMEOUT), occ_table[s]))
        spent += r.wall
        i += 1
    return ledger.completed("audit")


# ---------- metrics ----------


def med(runs, f):
    vals = [f(r.data) for r in runs]
    return median(vals) if vals else None


def live_end_to_end(loops, probes):
    return {
        "ops_per_cpu_s": med(loops, lambda d: d["ops"] / d["cpu_s"]),
        "wire_bytes_per_update": med(loops, lambda d: d["wire_bytes"] / d["updates"]),
        "rss_bytes_per_op": med(loops, lambda d: d["peak_rss_bytes"] / d["ops"]),
        "setup_s": median(probes) if probes else None,
    }


def audit_end_to_end(audits, probes):
    return {
        "ops_per_cpu_s": med(audits, lambda d: d["ops"] / (d["sim_cpu_s"] + d["audit_cpu_s"])),
        "wire_bytes_per_update": med(audits, lambda d: d["message_bytes"] / d["updates"]),
        "rss_bytes_per_op": med(audits, lambda d: d["peak_rss_bytes"] / d["ops"]),
        "setup_s": median(probes) if probes else None,
    }


def cluster_layer(runs):
    def per_update(key):
        return med(runs, lambda d: d[key] / d["updates"])

    return {
        "cluster.stalls_per_frame": med(runs, lambda d: d["stalls"] / max(1, d["frames"])),
        "cluster.replica_op_share_max": med(runs, lambda d: d["replica_op_share_max"]),
        "cluster.queue_depth_peak": med(runs, lambda d: d["queue_depth_peak"]),
        "cluster.frames_per_update": per_update("frames"),
        "gossip.digest_bytes_per_update": per_update("digest_bytes"),
        "gossip.repair_bytes_per_update": per_update("repair_bytes"),
        "gossip.dup_payloads_per_update": per_update("dup_payloads"),
        "cluster.max_payload_bytes": med(runs, lambda d: d["max_payload_bytes"]),
        "cluster.drain_s": med(runs, lambda d: d["drain_s"]),
    }


def gc_layer(runs):
    return {
        "gc.minor_words_per_op": med(runs, lambda d: d["minor_words"] / d["ops"]),
        "gc.major_collections": med(runs, lambda d: d["major_collections"]),
    }


CHECK_LAYER = ("check.well_formed_s", "check.complies_s", "check.correct_s",
               "check.closure_s", "check.causal_s", "check.occ_s", "check.words")

TRACED_LAYER = ("load.ns_per_op", "store.do_op.ns_per_read", "store.do_op.ns_per_update",
                "store.do_op.words_per_op", "store.send.ns_per_frame",
                "store.send.updates_per_frame", "store.send.words_per_frame",
                "wire.seal.ns_per_frame", "wire.seal.ns_per_byte", "wire.unseal.ns_per_frame",
                "spsc.push_ns", "spsc.pop_ns", "store.receive.ns_per_frame",
                "store.receive.ns_per_update", "store.receive.words_per_frame",
                "store.tick.ns", "trace.coverage", "trace.overhead")


def check_layer(runs):
    m = {k: med(runs, lambda d, k=k: d[k]) for k in CHECK_LAYER}
    m["sim.events"] = med(runs, lambda d: d["events"])
    m["sim.messages"] = med(runs, lambda d: d["messages"])
    m["check.occ_violations"] = med(runs, lambda d: d["occ_violations"])
    return m


def traced_layer(run):
    return {k: (run.data[k] if run.ok else None) for k in TRACED_LAYER}


# ---------- report ----------


def fmt(v):
    if v is None:
        return "n/a"
    if isinstance(v, float) and (abs(v) >= 1e5 or (v != 0 and abs(v) < 1e-3)):
        return "%.4g" % v
    if isinstance(v, float):
        return "%.4f" % v
    return str(v)


def print_runs(ledger):
    for r in ledger.runs:
        if r.kind == "probe" and r.ok:
            continue
        line = "  %-8s %-6s %6.2fs" % (r.kind, r.status, r.wall)
        if r.detail:
            line += "  " + r.detail
        print(line)
    probes = [r for r in ledger.runs if r.kind == "probe"]
    if probes:
        print("  probe    %d of %d ok" % (sum(r.ok for r in probes), len(probes)))


def print_metrics(title, metrics, units):
    print(title)
    for name, v in metrics.items():
        print("  %-34s %14s  %s" % (name, fmt(v), units.get(name, "")))


def print_self_time(run):
    if not run.ok:
        return
    d = run.data
    wall_ns = d["traced_wall_s"] * 1e9
    print("traced loop self time (%d node-loop rounds, %.2f s traced, %.2f s untraced)"
          % (d["iterations"], d["traced_wall_s"], d["untraced_wall_s"]))
    rows = sorted(d["self_time"].items(), key=lambda kv: -kv[1]["self_ns"])
    for name, row in rows:
        print("  %-20s %6.1f%%  %12d calls  %10.1f ns/call"
              % (name, 100.0 * row["self_ns"] / wall_ns, row["count"],
                 row["self_ns"] / max(1, row["count"])))


CONTEXT_UNITS = {
    "cluster_ops_per_s": "1/s", "cluster_wire_bytes_per_update": "B/update",
    "cold starts that lost a domain": "count",
    "lag_ms_p50": "ms", "lag_ms_p99": "ms", "lag_ms_mean": "ms", "lag_samples": "count",
    "payload_bytes_per_update": "B/update", "capture audit_s": "s", "capture ops": "count",
    "capture lag_ms_mean": "ms", "sim_ops_per_s": "1/s", "audit_s": "s",
    "histories audited": "count", "failed_share": "share",
}


def context_live(subs, cap):
    def lagline(d):
        p = tail_percentile(d["lag_samples"])
        tail = "p99=%.3f" % d["lag_ms_p99"] if p is not None and p >= 0.99 else "p99 n/a"
        return "p50=%.3f %s mean=%.3f n=%d" % (d["lag_ms_p50"], tail, d["lag_ms_mean"],
                                               d["lag_samples"])

    out = {}
    for i, r in enumerate(subs):
        out["run %d lag_ms" % i] = lagline(r.data)
    if subs:
        out["cluster_ops_per_s"] = med(subs, lambda d: d["ops_per_s"])
        out["cluster_wire_bytes_per_update"] = med(subs, lambda d: d["wire_bytes"] / d["updates"])
        out["lag_ms_p50"] = med(subs, lambda d: d["lag_ms_p50"])
        out["lag_ms_p99"] = med(subs, lambda d: d["lag_ms_p99"])
        out["lag_ms_mean"] = med(subs, lambda d: d["lag_ms_mean"])
        out["lag_samples"] = med(subs, lambda d: d["lag_samples"])
        out["payload_bytes_per_update"] = med(subs, lambda d: d["payload_bytes"] / d["updates"])
    if cap.ok:
        out["capture audit_s"] = cap.data.get("audit_s")
        out["capture ops"] = cap.data.get("ops")
    return out


def context_audit(audits, cap):
    out = {}
    if audits:
        out["sim_ops_per_s"] = med(audits, lambda d: d["ops_per_s"])
        out["audit_s"] = med(audits, lambda d: d["audit_s"])
        out["histories audited"] = len(audits)
    if cap.ok:
        out["capture lag_ms_mean"] = cap.data.get("lag_ms_mean")
        out["capture audit_s"] = cap.data.get("audit_s")
    return out


def build():
    """Build the measuring program from the checkout's sources."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "--profile", "release", "./perfbench/bench.exe"],
            capture_output=True, text=True, env=env, timeout=870)
    except (OSError, subprocess.TimeoutExpired) as e:
        return "build failed: %s" % e
    if r.returncode != 0 or not os.path.exists(EXE):
        return "build failed:\n" + (r.stderr or r.stdout)[-4000:]
    return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    manifest = load_manifest()
    err = build()
    if err:
        print(err, file=sys.stderr)
        return 2

    global _launch_deadline
    _launch_deadline = time.time() + LAUNCH_BUDGET_S
    w, seed, trace = args.workload, args.seed, args.trace == 1
    ledger = Ledger()
    cap = capture_run(ledger, w, seed, trace)
    loops = []
    if w == "audit":
        main_runs = audit_runs(ledger, seed, args.seconds, trace, manifest["occ_table"])
    else:
        main_runs, loops = live_runs(ledger, w, seed, args.seconds)
    cold = cold_starts(w, seed) if w != "audit" and not trace else None

    if trace:
        tr = traced_run(ledger, w, seed)
        metrics = traced_layer(tr)
        metrics.update(cluster_layer(main_runs if w != "audit" else ([cap] if cap.ok else [])))
        metrics.update(gc_layer(main_runs))
        metrics.update(check_layer(main_runs if w == "audit" else ([cap] if cap.ok else [])))
        units = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    else:
        probes = probe_runs(ledger, w, seed)
        metrics = (audit_end_to_end(main_runs, probes) if w == "audit"
                   else live_end_to_end(loops, probes))
        units = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    ordered = [name for name in units if name in metrics]

    attempted, failed = ledger.totals()
    # unverified is not correct: the capture audit must have run
    correct = (ledger.correct() and cap.data is not None
               and all(metrics[n] is not None for n in ordered))

    print("perfbench workload=%s seed=%d seconds=%g trace=%d" % (w, seed, args.seconds, args.trace))
    print("runs")
    print_runs(ledger)
    print_metrics("per-layer" if trace else "end-to-end",
                  {n: metrics[n] for n in ordered}, units)
    if trace:
        print_self_time(tr)
    context = context_audit(main_runs, cap) if w == "audit" else context_live(main_runs, cap)
    context["failed_share"] = failed_share(attempted, failed)
    if cold is not None:
        context["cold starts that lost a domain"] = "%d of %d" % (cold[1], cold[0])
    print_metrics("context, not gated (lag histogram buckets are 2^(1/4) wide and every "
                  "sample under 1 ms reads 0.5 ms; see lag_resolution in manifest.json)",
                  context, CONTEXT_UNITS)

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "runs-%s-%d-t%d.json" % (w, seed, args.trace)), "w") as f:
        json.dump([{"kind": r.kind, "status": r.status, "detail": r.detail, "wall": r.wall,
                    "data": r.data} for r in ledger.runs], f)

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in ordered},
    }
    print(json.dumps(result))
    return 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
