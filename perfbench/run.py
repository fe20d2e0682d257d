#!/usr/bin/env python3
"""Banger's end-to-end benchmark: spawn-to-exit latency of the `banger` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the release `banger` binary and
the helpers in perfbench/tracer, prepares the workload in a temporary
directory under .bench_tmp/, then:

  --trace 0  a closed loop spawns `banger` on the workload's request mix
             for at least S seconds (whole rounds, >= 100 requests),
             checks every output and reports the end-to-end metrics;
  --trace 1  a traced pass replays the same requests in-process, with a
             span around every layer call, and reports per-layer metrics.

The last stdout line is one JSON object: correct, attempted, failed and
metrics. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import checks
import metrics
import spawn
import workloads as W

HERE = os.path.dirname(os.path.abspath(__file__))
TIMEOUT_S = 60.0  # per request; the slowest request takes well under 1 s
MIN_REQUESTS = 100  # per timed pass, so p90 has ten samples above it
# setup_s is the median of about SETUP_BUDGET_S worth of set-ups, at
# least SETUP_REPS and at most SETUP_MAX_REPS of them, spread evenly over
# the timed loop: the host's speed drifts over seconds, and set-ups that
# all ran in the same second would each take its speed.
SETUP_REPS, SETUP_MAX_REPS, SETUP_BUDGET_S = 3, 100, 3.0
PROBE_REPS = 5  # traced pass: repetitions of each probe request
FLOOR_REPS = 30  # traced pass: `banger help` invocations
SETUP_TRACE = "setup-trace.json"  # --trace file of set-up's run_trace requests


class BenchError(Exception):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


@dataclass
class Tools:
    root: str
    banger: str
    spawner: str
    tracer: str


def build(root):
    """Builds banger and the helpers with cargo; returns their paths."""
    if not (os.path.isfile(os.path.join(root, "Cargo.toml")) and os.path.isdir(os.path.join(root, "crates", "core"))):
        raise BenchError("run from the root of a banger checkout (no Cargo.toml + crates/core here)")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "tracer", "Cargo.toml")
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "banger", "--bin", "banger"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", manifest],
    ):
        # Its own process group, so an interrupted build takes rustc with it.
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=sys.stderr, start_new_session=True)
        try:
            rc = proc.wait()
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        if rc != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    rel = os.path.join(target, "release")
    return Tools(root, os.path.join(rel, "banger"), os.path.join(rel, "spawner"), os.path.join(rel, "tracer"))


def cpu_ticks():
    """(steal, total) CPU ticks of the host so far, from /proc/stat."""
    with open("/proc/stat") as f:
        ticks = [int(x) for x in f.readline().split()[1:9]]
    return ticks[7], sum(ticks)


def host_meta(tools, args, wl):
    def out(cmd):
        try:
            return subprocess.run(cmd, cwd=tools.root, capture_output=True, text=True).stdout.strip() or None
        except OSError:
            return None

    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced_pass": bool(args.trace),
        "clients": wl.clients,
        "round_requests": len(wl.round),
        "host_cpus": os.cpu_count(),
        "machine": platform.machine(),
        "rustc": out(["rustc", "--version"]),
        "git_commit": out(["git", "rev-parse", "HEAD"]),
    }


# ---------------------------------------------------------------- set-up


@dataclass
class Prepared:
    path: str
    inputs: dict
    refs: dict  # local request kind -> verified reference stdout
    daemon: object  # spawn.Daemon or None


def unique(reqs):
    seen = []
    for r in reqs:
        if r not in seen:
            seen.append(r)
    return seen


def run_checked(spawner, tools, req, inputs):
    """Runs one request and verifies its output; returns its stdout."""
    o = spawner.run(W.argv(tools.banger, req, inputs, SETUP_TRACE), TIMEOUT_S)
    err = req.kind + ": timed out" if o.timed_out else checks.check_output(req, o.rc, o.stdout, inputs)
    if not err and req.verb == "run_trace":
        err = checks.check_trace_file(SETUP_TRACE, W.TASKS[req.design])
    if err:
        raise BenchError("set-up: " + err)
    return o.stdout


def setup(wl, seed, tools, path, spawner, extra=()):
    """Emits the designs, generates inputs and reference outputs, starts
    the daemon if the workload needs one, and warms every request kind.
    `extra` are further local requests whose references are wanted."""
    os.makedirs(path)
    os.chdir(path)
    examples = os.path.join(tools.root, "examples", "projects")
    designs = set(wl.designs)
    for d in W.EXAMPLES:
        if d in designs or (d == "dense_lu" and designs & set(W.TILES)):
            shutil.copy(os.path.join(examples, d + ".bang"), d + ".bang")
    for d, tiles in W.TILES.items():
        if d in designs:
            cmd = [tools.banger, "optimize", "dense_lu.bang", "--expand", "fact:%d" % tiles, "--emit", d + ".bang"]
            if spawner.run(cmd, TIMEOUT_S).rc != 0:
                raise BenchError("set-up: %s failed" % " ".join(cmd[1:]))
    inputs = W.make_inputs(seed)
    refs = {}
    for req in unique([r.local for r in wl.round] + list(extra)):
        refs[req.kind] = run_checked(spawner, tools, req, inputs)
    prep = Prepared(path, inputs, refs, None)
    connect = unique([r for r in wl.round if r.connect])
    if connect:
        prep.daemon = spawn.Daemon(tools.banger)
        try:
            prep.daemon.start(spawner)
            before = prep.daemon.served(spawner)
            for req in connect:
                o = spawner.run(W.argv(tools.banger, req, inputs), TIMEOUT_S)
                if o.rc != W.expected_rc(req) or o.stdout != refs[req.local.kind]:
                    raise BenchError("set-up: %s differs from the local output" % req.kind)
            if unserved(prep.daemon, spawner, len(connect), before):
                raise BenchError("set-up: the daemon did not serve every --connect request")
        except BaseException:
            teardown(prep)
            raise
    return prep


def unserved(daemon, spawner, issued, before):
    """How many of the `issued` --connect requests sent since the daemon
    counted `before` it did not serve: all of them when it has exited."""
    after = daemon.served(spawner)
    if before is None or after is None:
        return issued
    return max(0, issued - (after - before))


def teardown(prep):
    if prep is not None and prep.daemon is not None:
        prep.daemon.stop()
        prep.daemon = None


class SetupClock:
    """Times set-ups, each in a fresh directory under `rundir`."""

    def __init__(self, wl, seed, tools, rundir, spawner):
        self.args = (wl, seed, tools)
        self.rundir, self.spawner = rundir, spawner
        self.times = []

    def setup(self):
        t0 = time.perf_counter()
        prep = setup(*self.args, os.path.join(self.rundir, "setup%d" % len(self.times)), self.spawner)
        self.times.append(time.perf_counter() - t0)
        return prep

    def again(self):
        """One more timed set-up, discarded at once; the current directory
        is kept."""
        cwd = os.getcwd()
        prep = self.setup()
        teardown(prep)
        os.chdir(cwd)
        shutil.rmtree(prep.path)


# ---------------------------------------------------------- timed pass


@dataclass
class Record:
    req: W.Request
    round: int
    rc: int
    digest: str
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    timed_out: bool
    trace: str


def closed_loop(wl, seed, seconds, tools, prep, spawners, between_rounds):
    """Each client sends its share of each round, one request at a time;
    rounds continue until they add up to `seconds` and MIN_REQUESTS are
    done. Between two rounds, `between_rounds(seconds of rounds so far)`
    runs while every client waits; its time is in no round."""
    outputs = {}
    records = [[] for _ in range(wl.clients)]
    state = {"round": 0, "stop": False, "error": None}
    daemon_cpu = prep.daemon.cpu_s if prep.daemon else lambda: 0.0
    served0 = prep.daemon.served(spawners[0]) if prep.daemon else None
    start = [(time.perf_counter(), daemon_cpu())]  # (time, daemon CPU) at the current round's start
    rounds = []  # (wall seconds, daemon CPU seconds) per round

    def end_of_round():
        (t0, c0), t1, c1 = start[0], time.perf_counter(), daemon_cpu()
        rounds.append((t1 - t0, c1 - c0))
        state["round"] += 1
        done = state["round"] * len(wl.round)
        if sum(d for d, _ in rounds) >= seconds and done >= MIN_REQUESTS:
            state["stop"] = True
        else:
            between_rounds(sum(d for d, _ in rounds))
            start[0] = (time.perf_counter(), daemon_cpu())

    barrier = threading.Barrier(wl.clients, action=end_of_round)

    def client(c):
        try:
            n = 0
            while not state["stop"]:
                index = state["round"]
                for req in W.round_order(wl, seed, index)[c]:
                    if state["stop"]:
                        return
                    if req.edit:
                        with open(req.design + ".bang", "a") as f:
                            f.write("# edited by client %d\n" % c)
                    trace = "trace-%d-%d.json" % (c, n) if req.verb == "run_trace" else None
                    o = spawners[c].run(W.argv(tools.banger, req, prep.inputs, trace), TIMEOUT_S)
                    digest = hashlib.blake2b(o.stdout, digest_size=16).hexdigest()
                    outputs.setdefault(digest, o.stdout)
                    records[c].append(Record(req, index, o.rc, digest, o.wall_s, o.cpu_s, o.maxrss_kb, o.timed_out, trace))
                    n += 1
                barrier.wait()
        except threading.BrokenBarrierError:
            pass
        except Exception as e:  # noqa: BLE001 - re-raised by the caller
            state["error"] = e
            barrier.abort()

    threads = [threading.Thread(target=client, args=(c,)) for c in range(wl.clients)]
    for t in threads:
        t.start()
    try:
        for t in threads:
            t.join()
    finally:
        # On SIGTERM the clients must stop before the daemon does.
        state["stop"] = True
        barrier.abort()
        for t in threads:
            t.join()
    if state["error"] is not None:
        raise state["error"]
    daemon_rss = prep.daemon.hwm_kb() if prep.daemon else 0
    flat = [r for rs in records for r in rs]
    missing = 0
    if prep.daemon:
        missing = unserved(prep.daemon, spawners[0], sum(r.req.connect for r in flat), served0)
    return flat, outputs, rounds, daemon_rss, missing


def verify(records, outputs, prep):
    """Checks every record's output; returns one error (or None) per record."""
    verdicts = {}
    errors = []
    for rec in records:
        req, out = rec.req, outputs[rec.digest]
        if rec.timed_out:
            err = "%s: timed out after %.0f s" % (req.kind, TIMEOUT_S)
        elif req.verb == "run_trace":
            # The observed chart differs run to run; the outputs above it must not.
            section = out.split(b"\npredicted (ETF):\n", 1)[0]
            key = (req.kind, rec.rc, section)
            if key not in verdicts:
                verdicts[key] = checks.check_output(req, rec.rc, out, prep.inputs)
            err = verdicts[key] or checks.check_trace_file(rec.trace, W.TASKS[req.design])
        else:
            key = (req.kind, rec.rc, rec.digest)
            if key not in verdicts:
                ref = prep.refs[req.local.kind]
                verdicts[key] = (
                    None
                    if rec.rc == W.expected_rc(req) and out == ref
                    else "%s: exit %d, stdout %s the verified %s output"
                    % (req.kind, rec.rc, "matches" if out == ref else "differs from", "local" if req.connect else "reference")
                )
            err = verdicts[key]
        if rec.trace and os.path.exists(rec.trace):
            os.unlink(rec.trace)
        errors.append(err)
    return errors


def timed_pass(wl, args, tools, rundir, spawners):
    clock = SetupClock(wl, args.seed, tools, rundir, spawners[0])
    prep = clock.setup()  # the run's own
    reps = min(SETUP_MAX_REPS, max(SETUP_REPS, math.ceil(SETUP_BUDGET_S / clock.times[0])))

    def between_rounds(loop_s):
        # The k-th further set-up once k/reps of the loop has passed.
        if len(clock.times) < reps and loop_s >= len(clock.times) * args.seconds / reps:
            clock.again()

    steal0 = cpu_ticks()
    try:
        records, outputs, rounds, daemon_rss, missing = closed_loop(
            wl, args.seed, args.seconds, tools, prep, spawners, between_rounds
        )
        while len(clock.times) < reps:
            clock.again()
    finally:
        teardown(prep)
    setup_s = statistics.median(clock.times)
    # Time the hypervisor ran something else on this VM's CPUs: the
    # latencies rise with it, so it is recorded beside them.
    steal1 = cpu_ticks()
    steal_pct = 100.0 * (steal1[0] - steal0[0]) / max(1, steal1[1] - steal0[1])
    errors = verify(records, outputs, prep)
    for e in [e for e in errors if e][:5]:
        log("wrong output: " + e)
    if missing:
        log("the daemon did not serve %d --connect requests (they ran locally or failed)" % missing)
    failed = min(len(records), sum(e is not None for e in errors) + missing)
    m = metrics.end_to_end(records, errors, rounds, daemon_rss, setup_s)
    log(
        "%s: %d requests in %d rounds, %.2f s, %d failed (error_rate %.4f), host steal %.1f%%"
        % (wl.name, len(records), len(rounds), sum(d for d, _ in rounds), failed, failed / len(records), steal_pct)
    )
    for kind, ms in metrics.kind_medians(records).items():
        log("  %-28s median %9.3f ms" % (kind, ms))
    return len(records), failed, m, {"setup_reps": len(clock.times), "host_steal_pct": round(steal_pct, 2)}


# ---------------------------------------------------------- traced pass


class Tracer:
    """The in-process replayer (tracer/src/main.rs), fed one request at a time."""

    def __init__(self, program, spans_path, log_path):
        self.spans_path = spans_path
        self.log = open(log_path, "w")
        self.proc = subprocess.Popen(
            [program, spans_path], stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.log, text=True, bufsize=1
        )
        self.n = 0

    def replay(self, group, req, inputs):
        if req.verb == "ping":
            rest = []
        elif req.verb == "exec_counters":
            rest = W.input_args(inputs[req.design])
        else:
            rest = W.argv("banger", req.local, inputs, "replay-trace.json")[3:]
        verb = ("connect:" if req.connect else "") + req.verb
        fields = [str(self.n), group, verb, req.design, "1" if req.edit else "0"] + rest
        self.n += 1
        self.proc.stdin.write("\t".join(fields) + "\n")
        if not self.proc.stdout.readline():
            raise BenchError("tracer exited early (see tracer.log)")

    def finish(self):
        """Ends the replay and returns its spans and counters."""
        self.proc.stdin.close()
        rc = self.proc.wait(timeout=60)
        self.log.close()
        if rc != 0:
            raise BenchError("tracer exited %d (see tracer.log)" % rc)
        with open(self.spans_path) as f:
            return metrics.Replay(f)

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.log.close()


def traced_pass(wl, args, tools, rundir, spawners):
    """Replays one round of the workload in-process, then probes every
    verb on every design both spawned and in-process, interleaved so the
    two sides of cli.unattributed_ms see the same host conditions."""
    spawner = spawners[0]
    local = [W.Request(v, d) for d in wl.probe_designs for v in metrics.PROBE_VERBS]
    served = [W.Request(v, d, connect=True) for d in wl.probe_designs for v in ("check", "gantt_ETF", "run")]
    prep = setup(wl, args.seed, tools, os.path.join(rundir, "traced"), spawner, extra=local)
    attempted, failed = 0, 0
    tracer = None
    try:
        tracer = Tracer(tools.tracer, os.path.join(prep.path, "spans.tsv"), os.path.join(prep.path, "tracer.log"))
        floor = [spawner.run([tools.banger, "help"], TIMEOUT_S) for _ in range(FLOOR_REPS)]
        attempted += len(floor)
        failed += sum(o.rc != 0 for o in floor)
        floor_ms = statistics.median(o.wall_s * 1000 for o in floor)

        rounds = W.round_order(wl, args.seed, 0)
        for i in range(max(map(len, rounds))):
            for rs in rounds:
                if i < len(rs):
                    tracer.replay("replay", rs[i], prep.inputs)
        walls = {}
        for rep in range(PROBE_REPS):
            for req in local:
                o = spawner.run(W.argv(tools.banger, req, prep.inputs, "probe-trace.json"), TIMEOUT_S)
                attempted += 1
                ok = not o.timed_out and o.rc == W.expected_rc(req)
                if req.verb == "run_trace":
                    ok = ok and checks.check_output(req, o.rc, o.stdout, prep.inputs) is None
                else:
                    ok = ok and o.stdout == prep.refs[req.kind]
                failed += not ok
                walls.setdefault((req.verb, req.design), []).append(o.wall_s * 1000)
                tracer.replay("probe", req, prep.inputs)
            for req in served:
                tracer.replay("probe", W.Request(req.verb, req.design, connect=True, edit=rep == 0), prep.inputs)
            for d in wl.probe_designs:
                tracer.replay("probe", W.Request("exec_counters", d), prep.inputs)
        for _ in range(2 * PROBE_REPS):
            tracer.replay("probe", W.Request("ping", "-"), prep.inputs)
        replay = tracer.finish()

        # Peak RSS of a real daemon after it served the probe designs.
        if prep.daemon is None:
            prep.daemon = spawn.Daemon(tools.banger)
            prep.daemon.start(spawner)
        before = prep.daemon.served(spawner)
        wrong = 0
        for req in served:
            o = spawner.run(W.argv(tools.banger, req, prep.inputs), TIMEOUT_S)
            attempted += 1
            wrong += o.rc != 0 or o.stdout != prep.refs[req.local.kind]
        rss_kb = prep.daemon.hwm_kb()
        failed += min(len(served), wrong + unserved(prep.daemon, spawner, len(served), before))
    finally:
        if tracer is not None:
            tracer.kill()
        teardown(prep)

    attempted += len(replay.requests)
    bad = [q for q in replay.requests.values() if not q["ok"]]
    failed += len(bad)
    for q in bad[:5]:
        log("replay failed: %s %s: %s" % (q["verb"], q["design"], q["note"]))
    e2e_ms = {k: statistics.median(v) for k, v in walls.items()}
    m = metrics.layer_metrics(replay, wl.probe_designs, e2e_ms, floor_ms, rss_kb)
    return attempted, failed, m, {}


# ----------------------------------------------------------------- main


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    wl = W.WORKLOADS[args.workload]
    root = os.getcwd()

    def on_signal(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    spawners, rundir = [], None
    try:
        tools = build(root)
        os.makedirs(os.path.join(root, ".bench_tmp"), exist_ok=True)
        rundir = os.path.join(root, ".bench_tmp", "run-%d" % os.getpid())
        shutil.rmtree(rundir, ignore_errors=True)
        os.makedirs(rundir)
        spawners = [spawn.Spawner(tools.spawner, os.path.join(rundir, "stdout-%d" % c)) for c in range(wl.clients)]
        pass_fn = traced_pass if args.trace else timed_pass
        attempted, failed, m, extra = pass_fn(wl, args, tools, rundir, spawners)
        meta = dict(host_meta(tools, args, wl), requests=attempted, **extra)
    except BenchError as e:
        log(str(e))
        return 1
    finally:
        for s in spawners:
            s.close()
        os.chdir(root)
        if rundir:
            shutil.rmtree(rundir, ignore_errors=True)
    print(json.dumps({"perfbench": meta}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in m.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
