#!/usr/bin/env python3
"""The ucqc benchmark: one-shot `ucqc count` and the `ucqc serve` round trip.

Run from the repository root:

    python3 ucqbench/run.py --workload count_cyclic --seed 1 --seconds 10 --trace 0

It builds `ucqc` and the helper `ucqbench/tool.exe` with dune, generates the
workload's inputs from the seed, computes exact oracle counts by a path
other than the one timed, measures for --seconds, checks every answer, and
prints one JSON object as its last stdout line.  --trace 0 reports the
end-to-end metrics; --trace 1 reports the per-layer metrics from an
instrumented run.  Scratch files live under .bench_build/ and are removed
on exit.  See ucqbench/README.md for the workloads and the layer table.
"""

import argparse
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import gen  # noqa: E402

CLI = os.path.join("_build", "default", "bin", "ucqc_cli.exe")
TOOL_DIR = os.path.relpath(HERE)
TOOL = os.path.join("_build", "default", TOOL_DIR, "tool.exe")

# Every count a timed workload produces stays far below 2^62 by
# construction (at most |universe| answers of arity 1 or 2), so the
# native-int CLI can be compared exactly with the big-integer oracle.
# Inputs in the overflow range are deliberately not timed here.
NATIVE_LIMIT = 2 ** 62

CYCLIC_QUERY = "(x) :- E(x, y), E(y, z), E(z, x) ; E(x, y), E(y, x)\n"

# serve_reads: cheap prepared queries over a large database; after the
# first answer every read is an epoch-memoized lookup.
READ_QUERIES = [
    "(x) :- E(x, y)",
    "(x) :- E(x, y) ; E(y, x)",
    "(x) :- L(x, y), L(y, z), L(z, x)",
    "(x, y) :- L(x, y), L(y, x)",
]

# serve_updates: one prepared query per maintenance tier.  A and B are
# read every round; C is maintained (dirty flag) and read once at the end.
UPDATE_QUERIES = {
    "A": "(x) :- E(x, y) ; E(y, x)",
    "B": "(x) :- E(x, y), E(y, z)",
    "C": "(x) :- E(x, y), E(y, z), E(z, x)",
}
UPDATE_CYCLE_K = 15

E2E = [
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# Per-layer metric -> (unit, better, end-to-end metric it should move,
# workloads it should move it on).  Layers a workload does not exercise
# report 0.
LAYERS = {
    "frontend.db_parse_ms": ("ms", "lower", "setup_s, latency_p50_ms", "serve_reads, count_cyclic"),
    "frontend.db_tuples": ("count", "higher", "setup_s, peak_rss_mb", "serve_reads, count_cyclic"),
    "frontend.query_parse_ms": ("ms", "lower", "latency_p50_ms", "count_cyclic, count_wide_union"),
    "optimize.run_ms": ("ms", "lower", "latency_p50_ms", "count_wide_union"),
    "optimize.disjuncts_removed": ("count", "higher", "latency_p50_ms", "count_wide_union"),
    "optimize.atoms_removed": ("count", "higher", "latency_p50_ms", "count_wide_union"),
    "ucq.support_ms": ("ms", "lower", "latency_p50_ms", "count_wide_union"),
    "ucq.expansion_subsets": ("count", "lower", "latency_p50_ms", "count_wide_union"),
    "ucq.support_terms": ("count", "lower", "latency_p50_ms", "count_wide_union"),
    "db.terms_ms": ("ms", "lower", "latency_p50_ms, ops_per_s", "count_cyclic, count_wide_union"),
    "db.term_max_ms": ("ms", "lower", "latency_p50_ms", "count_cyclic"),
    "db.terms_cyclic": ("count", "lower", "latency_p50_ms", "count_cyclic, count_wide_union"),
    "db.terms_acyclic": ("count", "higher", "latency_p50_ms", "count_cyclic, count_wide_union"),
    "db.steps": ("count", "lower", "latency_p50_ms, ops_per_s", "count_cyclic, count_wide_union"),
    "runtime.alloc_mb": ("MB", "lower", "peak_rss_mb, latency_p50_ms", "count_cyclic, count_wide_union"),
    "runtime.major_gcs": ("count", "lower", "latency_p50_ms", "count_cyclic, count_wide_union"),
    "server.queue_ms": ("ms", "lower", "latency_p50_ms", "serve_reads, serve_updates"),
    "server.eval_ms": ("ms", "lower", "latency_p50_ms, ops_per_s", "serve_reads, serve_updates"),
    "server.wire_ms": ("ms", "lower", "latency_p50_ms, ops_per_s", "serve_reads"),
    "server.cache_hit_frac": ("ratio", "higher", "latency_p50_ms", "serve_reads"),
    "server.memoized_frac": ("ratio", "higher", "latency_p50_ms", "serve_reads"),
    "server.framer_us": ("us", "lower", "latency_p50_ms", "serve_reads"),
    "server.parse_us": ("us", "lower", "latency_p50_ms", "serve_reads"),
    "server.render_us": ("us", "lower", "latency_p50_ms", "serve_reads"),
    "server.snapshot_us": ("us", "lower", "latency_p50_ms, ops_per_s", "serve_reads"),
    "delta.insert_ms": ("ms", "lower", "latency_p50_ms, ops_per_s", "serve_updates"),
    "delta.delete_ms": ("ms", "lower", "latency_p50_ms, ops_per_s", "serve_updates"),
    "delta.read_ms": ("ms", "lower", "latency_p50_ms", "serve_updates"),
    "delta.apply_us": ("us", "lower", "latency_p50_ms", "serve_updates"),
    "delta.maintain_ms.A": ("ms", "lower", "latency_p50_ms", "serve_updates"),
    "delta.maintain_ms.B": ("ms", "lower", "latency_p50_ms", "serve_updates"),
    "delta.maintain_ms.C": ("ms", "lower", "latency_p50_ms", "serve_updates"),
    "delta.maintained_frac": ("ratio", "higher", "latency_p50_ms", "serve_updates"),
    "delta.degraded_states": ("count", "lower", "latency_p50_ms", "serve_updates"),
    "machine.ref_ms": ("ms", "lower", "none (explains drift)", "all"),
    "trace.coverage": ("ratio", "higher", "none", "all"),
    "trace.overhead_frac": ("ratio", "lower", "none", "all"),
}


class BenchError(Exception):
    pass


def log(msg):
    print("ucqbench: " + msg, file=sys.stderr, flush=True)


def tool(*args, timeout=170):
    r = subprocess.run([TOOL] + [str(a) for a in args], capture_output=True,
                       text=True, timeout=timeout)
    if r.returncode != 0:
        raise BenchError("tool %s failed: %s" % (args[0], r.stderr.strip()[-500:]))
    return json.loads(r.stdout.strip().splitlines()[-1])


def build():
    for need in ("dune-project", os.path.join("bin", "ucqc_cli.ml"), "lib"):
        if not os.path.exists(need):
            raise BenchError("run from the repository root: %s is missing" % need)
    # no shared dune cache: the build reads and writes only the checkout
    r = subprocess.run(["dune", "build", "--root", ".", "--cache=disabled",
                        "--display", "quiet",
                        "./" + os.path.join("bin", "ucqc_cli.exe"),
                        "./" + os.path.join(TOOL_DIR, "tool.exe")],
                       capture_output=True, text=True, timeout=880)
    if r.returncode != 0:
        raise BenchError("dune build failed:\n" + r.stderr[-2000:])


def pin_to_one_cpu():
    """Run this process and everything it starts on one CPU.

    A serve op ping-pongs between client and server.  Left free, the
    server wakes on the other, idle, CPU, and on a busy host that wake-up
    can wait milliseconds for the host to run that CPU: stalls that
    neither the program nor the probe (which runs on a busy CPU) causes.
    On one CPU every op, its probe and its set-up see the same CPU.  The
    highest-numbered CPU is taken, leaving the others to the rest of the
    system.  Where affinity cannot be set, the run goes on unpinned.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError) as e:
        log("not pinned to one CPU: %s" % e)


def write(path, text):
    with open(path, "w") as f:
        f.write(text)
    return path


def ref_ms():
    """Median of three runs of the fixed pure-OCaml sentinel loop."""
    return statistics.median(tool("ref")["ref_ms"] for _ in range(3))


# The machine under the benchmark is a share of a host whose speed drifts
# by tens of percent over tens of seconds, and the sentinel loop drifts
# with it (see README.md, "Rescaling").  So every timed op is paired with a
# probe: the time of a fixed tenth of the sentinel loop, taken next to the
# op, and the end-to-end times are reported rescaled to the machine speed
# at which the probe takes PROBE_NOMINAL_MS.  The probe's code is the
# benchmark's, never the program's, so a change to the program moves only
# the op time.  The raw times are kept in the detail line.
PROBE_NOMINAL_MS = 4.0


def probe_ms():
    return tool("probe")["ref_ms"]


def scaled(ms, probe):
    return ms * PROBE_NOMINAL_MS / probe


# The tail percentile of each workload: the highest standard percentile
# that keeps at least ten samples beyond it in every run.  The one-shot
# workloads complete about 65-75 ops per run (p75) and serve_updates about
# 300 rounds (p90).  serve_reads completes about 70 000 reads; p99 keeps
# hundreds beyond it, and p99.9 is left out because single host stalls
# decide it.
TAIL_PERCENTILE = {
    "count_cyclic": 75,
    "count_wide_union": 75,
    "serve_reads": 99,
    "serve_updates": 90,
}


# Set-ups per untraced run; setup_s is their median.  serve_reads loads
# 10^5 tuples (about 3 s a set-up), so it takes fewer.
SETUPS = {
    "count_cyclic": 5,
    "count_wide_union": 5,
    "serve_reads": 3,
    "serve_updates": 5,
}


def tail(samples, pct):
    """(value, samples beyond it) for the pct-th percentile."""
    s = sorted(samples)
    i = min(len(s) - 1, len(s) * pct // 100)
    return s[i], len(s) - 1 - i


def e2e_metrics(name, ops, setups, rss_mb):
    """ops: (raw ms, probe ms) per timed op; setups: (raw s, probe ms)."""
    pct = TAIL_PERCENTILE[name]
    lat = [scaled(ms, p) for ms, p in ops]
    t, beyond = tail(lat, pct)
    raw = [ms for ms, _ in ops]
    metrics = {
        "latency_p50_ms": statistics.median(lat),
        "latency_tail_ms": t,
        # ops per second of (rescaled) op time
        "ops_per_s": 1000.0 * len(lat) / sum(lat),
        "setup_s": statistics.median(scaled(s, p) for s, p in setups),
        "peak_rss_mb": rss_mb,
    }
    return metrics, {"tail_percentile": pct, "samples": len(lat),
                     "tail_beyond": beyond,
                     "percentiles_ms": {"p%d" % q: tail(lat, q)[0]
                                        for q in (75, 90, 95, 99)},
                     "probe_ms_p50": statistics.median(p for _, p in ops),
                     "raw": {"latency_p50_ms": statistics.median(raw),
                             "latency_tail_ms": tail(raw, pct)[0],
                             "ops_per_s": 1000.0 * len(raw) / sum(raw),
                             "setups_s": [s for s, _ in setups]}}


def p50(xs):
    return statistics.median(xs) if xs else 0.0


# ---------------------------------------------------------------------
# One-shot `ucqc count`
# ---------------------------------------------------------------------

def count_ok(out, code, expect):
    """Is a one-shot answer right?  Exit code 0 and exactly the oracle's
    decimal count; anything else (a wrapped native int, a degraded
    estimate, an error) counts the op as failed."""
    return code == 0 and out == expect


def count_once(q, db):
    """Run one `ucqc count` process; (wall ms, stdout, exit code, maxrss MB)."""
    t0 = time.perf_counter()
    p = subprocess.Popen([CLI, "count", "--jobs", "1", q, db],
                         stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    out = p.stdout.read()
    _, status, ru = os.wait4(p.pid, 0)
    ms = (time.perf_counter() - t0) * 1000.0
    p.returncode = os.waitstatus_to_exitcode(status)
    p.stdout.close()
    return ms, out.decode().strip(), p.returncode, ru.ru_maxrss / 1024.0


def count_inputs(name, base, rng, wd):
    if name == "count_cyclic":
        lab = gen.relabel(rng, 3000)
        edges = sorted(map(lab, gen.chung_lu_digraph(base, 3000, 6000, 0.6)))
        return (write(os.path.join(wd, "q.ucq"), CYCLIC_QUERY),
                write(os.path.join(wd, "db.facts"), gen.facts_text({"E": edges})))
    query, ren = gen.wide_union(rng)
    lab = gen.relabel(rng, 30)
    rels = gen.random_relations(base, gen.WIDE_RELS + ["E"], 30, 10)
    rels = {ren[r]: sorted(map(lab, ts)) for r, ts in rels.items()}
    return (write(os.path.join(wd, "q.ucq"), query),
            write(os.path.join(wd, "db.facts"), gen.facts_text(rels)))


def run_count(name, base, rng, wd, seconds, trace):
    q, db = count_inputs(name, base, rng, wd)
    expect = tool("oracle", db, q)["counts"][0]
    if int(expect) >= NATIVE_LIMIT:
        raise BenchError("workload left the native range: %s" % expect)
    detail = {"oracle": expect}
    if trace:
        prof = tool("profile-count", q, db, seconds, expect)
        detail["iterations"] = prof.pop("iterations")
        wrong = prof.pop("wrong")
        # each iteration counts twice, once untraced and once traced
        return prof, detail, (2 * detail["iterations"], wrong)

    attempted = failed = 0
    setups, rss = [], 0.0
    for _ in range(SETUPS[name]):
        p = probe_ms()
        ms, out, code, mb = count_once(q, db)
        setups.append((ms / 1000.0, (p + probe_ms()) / 2.0))
        rss = max(rss, mb)
        attempted += 1
        failed += not count_ok(out, code, expect)
    # each op is rescaled by the mean of the probes just before and
    # just after it
    lat, probes = [], [probe_ms()]
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end:
        ms, out, code, mb = count_once(q, db)
        probes.append(probe_ms())
        rss = max(rss, mb)
        attempted += 1
        failed += not count_ok(out, code, expect)
        lat.append((ms, (probes[-2] + probes[-1]) / 2.0))
    metrics, extra = e2e_metrics(name, lat, setups, rss)
    detail.update(extra)
    return metrics, detail, (attempted, failed)


# ---------------------------------------------------------------------
# `ucqc serve` under the closed-loop load generator
# ---------------------------------------------------------------------

class Server:
    """One `ucqc serve` process on a Unix socket in the work directory."""

    def __init__(self, db, wd):
        self.sock = os.path.join(wd, "s.sock")
        if os.path.exists(self.sock):
            os.unlink(self.sock)
        self.err = open(os.path.join(wd, "serve.err"), "a")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [CLI, "serve", "--jobs", "1", "--socket", self.sock, db],
            stdout=subprocess.DEVNULL, stderr=self.err)
        deadline = time.time() + 120
        while True:
            if self.proc.poll() is not None:
                self.err.close()
                raise BenchError("ucqc serve exited with %s" % self.proc.returncode)
            self.conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                self.conn.connect(self.sock)
                break
            except OSError:
                self.conn.close()
                if time.time() > deadline:
                    self.proc.kill()
                    self.proc.wait()
                    self.err.close()
                    raise BenchError("ucqc serve did not come up")
                time.sleep(0.002)
        self.rf = self.conn.makefile("rb")

    def request(self, obj):
        self.conn.sendall((json.dumps(obj) + "\n").encode())
        return json.loads(self.rf.readline())

    def count(self, query):
        r = self.request({"op": "count", "query": query})
        if r.get("status") != "ok":
            return None
        return "%d" % r["result"]["count"]

    def vmhwm_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self):
        try:
            self.rf.close()
            self.conn.close()
        except OSError:
            pass
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.err.close()


def serve_inputs(name, base, rng, wd):
    """(db path, prepared queries, expected counts, plan lines, state)."""
    if name == "serve_reads":
        lab = gen.relabel(rng, 30000)
        edges = sorted(map(lab, gen.chung_lu_digraph(base, 30000, 100000, 0.6)))
        small = sorted(map(lab, gen.chung_lu_digraph(base, 150, 600, 0.3)))
        db = write(os.path.join(wd, "db.facts"),
                   gen.facts_text({"E": edges, "L": small}))
        qs = [write(os.path.join(wd, "q%d.ucq" % i), q + "\n")
              for i, q in enumerate(READ_QUERIES)]
        expect = tool("oracle", db, *qs)["counts"]
        order = [base.randrange(len(READ_QUERIES)) for _ in range(64)]
        plan = ["%d\tread\t%s\t%s" % (i, expect[k],
                                      json.dumps({"op": "count", "query": READ_QUERIES[k]}))
                for i, k in enumerate(order)]
        return db, READ_QUERIES, expect, plan, None

    n, spare = 2000, 200
    edges = gen.chung_lu_digraph(base, n, 5000, 0.3)
    cycle = gen.mutation_cycle(base, edges, n + spare, UPDATE_CYCLE_K)
    lab = gen.relabel(rng, n + spare)
    edges = sorted(map(lab, edges))
    cycle = [(lab(ins), lab(dele)) for ins, dele in cycle]
    universe = range(n + spare)
    db = write(os.path.join(wd, "db.facts"),
               gen.facts_text({"E": edges}, universe=universe))
    lines = []
    for ins, dele in cycle:
        lines.append("+E %d %d" % ins)
        lines.append("-E %d %d" % dele)
    cyc = write(os.path.join(wd, "cycle.txt"), "\n".join(lines) + "\n")
    qa = write(os.path.join(wd, "qa.ucq"), UPDATE_QUERIES["A"] + "\n")
    qb = write(os.path.join(wd, "qb.ucq"), UPDATE_QUERIES["B"] + "\n")
    qc = write(os.path.join(wd, "qc.ucq"), UPDATE_QUERIES["C"] + "\n")
    start = tool("oracle", db, qa, qb, qc)["counts"]
    states = tool("oracle-cycle", db, cyc, qa, qb)["counts"]
    plan = []

    def read(i, state):
        for k, tier in enumerate("AB"):
            frame = {"op": "count", "query": UPDATE_QUERIES[tier]}
            plan.append("%d\tread\t%s\t%s" % (i, state[k], json.dumps(frame)))

    for i, (ins, dele) in enumerate(cycle):
        plan.append("%d\tinsert\tapplied\t%s" % (
            i, json.dumps({"op": "insert", "fact": "E(%d, %d)" % ins})))
        read(i, states[2 * i])
        plan.append("%d\tdelete\tapplied\t%s" % (
            i, json.dumps({"op": "delete", "fact": "E(%d, %d)" % dele})))
        read(i, states[2 * i + 1])
    state = {"edges": edges, "universe": universe, "cycle": cycle, "qc": qc}
    return db, list(UPDATE_QUERIES.values()), start, plan, state


def final_tier_c_check(srv, state, ops_done, wd):
    """Read the tier-C count once and compare it with a fresh recompute of
    the client's mirror of the database after the rounds that ran."""
    mirror = set(state["edges"])
    cycle = state["cycle"]
    for i in range(ops_done % len(cycle)):
        ins, dele = cycle[i]
        mirror.add(ins)
        mirror.discard(dele)
    db = write(os.path.join(wd, "final.facts"),
               gen.facts_text({"E": sorted(mirror)}, universe=state["universe"]))
    expect = tool("oracle", db, state["qc"])["counts"][0]
    got = srv.count(UPDATE_QUERIES["C"])
    return got == expect, {"tier_c_final": got, "tier_c_oracle": expect}


def run_serve(name, base, rng, wd, seconds, trace):
    db, queries, expect, plan, state = serve_inputs(name, base, rng, wd)
    if any(int(c) >= NATIVE_LIMIT for c in expect):
        raise BenchError("workload left the native range")
    plan_path = write(os.path.join(wd, "plan.tsv"), "\n".join(plan) + "\n")
    setups, srv, setup_failed = [], None, 0
    try:
        # set up SETUPS[name] times (spawn -> loaded -> every prepared
        # query answered once) and report the median; the last server is
        # the one measured
        for _ in range(1 if trace else SETUPS[name]):
            if srv is not None:
                srv.stop()
                srv = None
            p = probe_ms()
            srv = Server(db, wd)
            answers = [srv.count(q) for q in queries]
            setup_s = time.perf_counter() - srv.t0
            setups.append((setup_s, (p + probe_ms()) / 2.0))
            setup_failed += sum(a != e for a, e in zip(answers, expect))
        lg = tool("loadgen", srv.sock, plan_path, wd, 1.0, seconds, int(trace),
                  timeout=seconds + 60)
        ok_final, detail = True, {}
        if state is not None:
            ok_final, detail = final_tier_c_check(srv, state, lg["ops_done"], wd)
        rss = srv.vmhwm_mb()
    finally:
        if srv is not None:
            srv.stop()
    attempted = (lg["attempted"] + lg["warmup_ops"] + len(queries) * len(setups)
                 + (state is not None))
    failed = lg["failed"] + lg["warmup_failed"] + setup_failed + (not ok_final)
    stats = {k: lg[k]["result"] for k in ("stats_before", "stats_after")}
    detail["stats"] = {k: {"requests_total": v["requests_total"],
                           "cache": v["cache"], "db": v["db"]}
                       for k, v in stats.items()}
    detail["oracle"] = expect
    rows = [l.rstrip("\n").split("\t") for l in open(os.path.join(wd, "requests.tsv"))]
    lat = [tuple(float(x) for x in l.split("\t")[0:3:2])
           for l in open(os.path.join(wd, "ops.tsv"))]
    if not trace:
        metrics, extra = e2e_metrics(name, lat, setups, rss)
        detail.update(extra)
        return metrics, detail, (attempted, failed)
    return serve_layers(name, db, rows, lg, wd, seconds), detail, (attempted, failed)


def serve_layers(name, db, rows, lg, wd, seconds):
    """Per-layer metrics from the traced loadgen run plus in-process
    profiles of the layers a request crosses."""
    def col(i, kinds=None):
        return [float(r[i]) for r in rows if kinds is None or r[0] in kinds]
    rtt, queue, ev = col(1), col(2), col(3)
    reads = [r for r in rows if r[0] == "read"]
    m = {}
    m["server.queue_ms"] = p50(queue)
    m["server.eval_ms"] = p50(ev)
    m["server.wire_ms"] = p50([a - b - c for a, b, c in zip(rtt, queue, ev)])
    m["server.cache_hit_frac"] = sum(r[4] == "hit" for r in reads) / max(1, len(reads))
    m["server.memoized_frac"] = sum(r[5] == "memoized" for r in reads) / max(1, len(reads))
    m.update(tool("replay", os.path.join(wd, "frames.txt")))
    load = tool("profile-load", db)
    m["frontend.db_parse_ms"] = load["frontend.db_parse_ms"]
    m["frontend.db_tuples"] = load["frontend.db_tuples"]
    m["server.snapshot_us"] = load["server.snapshot_us"]
    if name == "serve_updates":
        m["delta.insert_ms"] = p50(col(1, ("insert",)))
        m["delta.delete_ms"] = p50(col(1, ("delete",)))
        m["delta.read_ms"] = p50(col(1, ("read",)))
        qs = [os.path.join(wd, f) for f in ("qa.ucq", "qb.ucq", "qc.ucq")]
        prof = tool("profile-delta", db, os.path.join(wd, "cycle.txt"),
                    min(seconds, 3.0), *qs)
        if prof["tiers"] != ["A", "B", "C"]:
            raise BenchError("prepared queries left their tiers: %s" % prof["tiers"])
        for k in ("delta.apply_us", "delta.maintain_ms.A", "delta.maintain_ms.B",
                  "delta.maintain_ms.C", "delta.maintained_frac",
                  "delta.degraded_states"):
            m[k] = prof[k]
    explained = m["server.queue_ms"] + m["server.eval_ms"] + (
        m["server.framer_us"] + m["server.parse_us"] + m["server.render_us"]) / 1000.0
    m["trace.coverage"] = explained / p50(rtt) if rtt else 0.0
    m["trace.overhead_frac"] = (lg["traced_p50_ms"] - lg["plain_p50_ms"]) / lg["plain_p50_ms"]
    return m


# ---------------------------------------------------------------------

WORKLOADS = {
    "count_cyclic": run_count,
    "count_wide_union": run_count,
    "serve_reads": run_serve,
    "serve_updates": run_serve,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # a SIGTERM unwinds like an error, so the server is stopped and the
    # work directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    wd = os.path.abspath(os.path.join(".bench_build", "ucqbench",
                                      "%s-%d-%d" % (args.workload, args.seed, os.getpid())))
    try:
        build()
        pin_to_one_cpu()
        os.makedirs(wd)
        # the structures come from a fixed base generator; the seed
        # relabels and reorders them (see gen.py)
        base = random.Random("%s/base" % args.workload)
        rng = random.Random("%s/%d" % (args.workload, args.seed))
        ref_before = ref_ms()
        metrics, detail, (attempted, failed) = WORKLOADS[args.workload](
            args.workload, base, rng, wd, args.seconds, bool(args.trace))
        ref_after = ref_ms()
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as e:
        log("error: %s" % e)
        return 2
    finally:
        shutil.rmtree(wd, ignore_errors=True)
    detail.update({"workload": args.workload, "seed": args.seed,
                   "machine_ref_ms": [ref_before, ref_after]})
    if args.trace:
        metrics["machine.ref_ms"] = statistics.mean([ref_before, ref_after])
        for name in LAYERS:
            metrics.setdefault(name, 0.0)
        out = {k: {"value": metrics[k], "unit": v[0]} for k, v in LAYERS.items()}
        detail["moves"] = {k: {"e2e": v[2], "workloads": v[3]} for k, v in LAYERS.items()}
    else:
        out = {k: {"value": metrics[k], "unit": u} for k, u in E2E}
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
