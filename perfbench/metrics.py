"""Pure functions from measurements to the reported metrics."""

import math
import statistics

# Verbs the traced pass probes on every error-free design of a workload,
# both as spawned CLI invocations and as an in-process replay; each gets
# a cli.unattributed_ms.<verb> metric.
PROBE_VERBS = ["check", "gantt_ETF", "gantt_MH", "simulate", "run", "run_trace", "run_repeat"]

# Per-layer metrics -> how they aggregate: "span:<name>" is the median
# duration of that span per design, summed over the workload's designs;
# "count:<name>" is a per-design counter summed over designs; "mean:" the
# same counter averaged over designs.
LAYER_METRICS = [
    ("cli.process_floor_ms", "ms", "floor"),
    ("document.parse_ms", "ms", "span:document.parse"),
    ("document.bytes", "bytes", "count:document.bytes"),
    ("taskgraph.flatten_ms", "ms", "span:taskgraph.flatten"),
    ("taskgraph.tasks", "count", "count:taskgraph.tasks"),
    ("taskgraph.arcs", "count", "count:taskgraph.arcs"),
    ("analyze.diagnose_ms", "ms", "span:analyze.diagnose"),
    ("analyze.diagnostics", "count", "count:analyze.diagnostics"),
    ("sched.schedule_ms.ETF", "ms", "span:sched.schedule.ETF"),
    ("sched.schedule_ms.MH", "ms", "span:sched.schedule.MH"),
    ("sched.arrival_probes", "count", "count:sched.arrival_probes"),
    ("sched.slot_searches", "count", "count:sched.slot_searches"),
    ("core.gantt_render_ms", "ms", "span:core.gantt_render"),
    ("sim.simulate_ms", "ms", "span:sim.simulate"),
    ("sim.messages", "count", "count:sim.messages"),
    ("exec.cold_ms", "ms", "span:exec.cold"),
    ("exec.route_ms", "ms", "span:exec.route"),
    ("exec.fire_ms", "ms", "span:exec.fire"),
    ("exec.pinned_traced_ms", "ms", "span:exec.pinned_traced"),
    ("exec.ops", "count", "count:exec.ops"),
    ("exec.utilization", "ratio", "mean:exec.utilization"),
    ("exec.steals", "count", "count:exec.steals"),
    ("exec.inline_tasks", "count", "count:exec.inline_tasks"),
    ("exec.queue_wait_ms", "ms", "count:exec.queue_wait_ms"),
    ("exec.cow_bytes", "bytes", "count:exec.cow_bytes"),
    ("serve.ping_rtt_ms", "ms", "ping"),
    ("serve.warm_rtt_ms", "ms", "span:serve.warm_rtt"),
    ("serve.cold_rtt_ms", "ms", "span:serve.cold_rtt"),
    ("serve.hit_ratio", "ratio", "hit_ratio"),
    ("serve.rss_mb", "MB", "rss"),
] + [("cli.unattributed_ms." + v, "ms", "unattributed:" + v) for v in PROBE_VERBS]


def percentile(values, q):
    """The q-quantile (0 <= q <= 1) by linear interpolation between order
    statistics: rank q * (n - 1) of the sorted values, counted from 0."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(records, errors, rounds, daemon_rss_kb, setup_s):
    """The end-to-end metrics of one timed pass, in BENCHMARK.json units.

    `records` carry each request's round, wall, CPU and peak RSS;
    `errors` holds one verdict per record (None when correct); `rounds`
    is (wall seconds, daemon CPU seconds) per round. Every round has the
    same composition, so throughput and CPU per request are taken per
    round, which tracks the mean request, and the median round is
    reported, which keeps a burst of host noise in one round out of it.
    """
    lat = [r.wall_s * 1000 for r in records]
    per_round = [[0, 0, 0.0] for _ in rounds]  # requests, correct, child CPU
    for rec, err in zip(records, errors):
        row = per_round[rec.round]
        row[0] += 1
        row[1] += err is None
        row[2] += rec.cpu_s
    rps = [ok / wall for (_, ok, _), (wall, _) in zip(per_round, rounds)]
    cpu = [(c + dc) * 1000 / n for (n, _, c), (_, dc) in zip(per_round, rounds)]
    return {
        "setup_s": (setup_s, "s"),
        "latency_p50_ms": (percentile(lat, 0.5), "ms"),
        "latency_p90_ms": (percentile(lat, 0.9), "ms"),
        "requests_per_s": (statistics.median(rps), "1/s"),
        "cpu_ms_per_request": (statistics.median(cpu), "ms"),
        "peak_rss_mb": (max([r.maxrss_kb for r in records] + [daemon_rss_kb]) / 1024, "MB"),
    }


def kind_medians(records):
    """Median wall milliseconds per request kind, fastest first."""
    per = {}
    for r in records:
        per.setdefault(r.req.kind, []).append(r.wall_s * 1000)
    return dict(sorted(((k, statistics.median(v)) for k, v in per.items()), key=lambda kv: kv[1]))


class Replay:
    """Spans and counters recorded by the tracer, grouped per request."""

    def __init__(self, lines):
        self.requests = {}  # id -> {"verb", "design", "ok", "note", "spans": [(name, ms)], "counts": {}}
        for line in lines:
            f = line.rstrip("\n").split("\t")
            if f[0] == "req":
                self.requests[f[1]] = {
                    "group": f[2],
                    "verb": f[3],
                    "design": f[4],
                    "ok": f[5] == "1",
                    "note": f[6] if len(f) > 6 else "",
                    "spans": [],
                    "counts": {},
                }
            elif f[0] == "span":
                # span  req  name  start_ns  end_ns  (all children of the request)
                self.requests[f[1]]["spans"].append((f[2], (int(f[4]) - int(f[3])) / 1e6))
            elif f[0] == "count":
                self.requests[f[1]]["counts"][f[2]] = float(f[3])

    def span_ms(self, name):
        """Median duration of `name` per design."""
        per = {}
        for r in self.requests.values():
            for n, ms in r["spans"]:
                if n == name:
                    per.setdefault(r["design"], []).append(ms)
        return {d: statistics.median(v) for d, v in per.items()}

    def count(self, name):
        """A counter per design (the median where several requests report it)."""
        per = {}
        for r in self.requests.values():
            if name in r["counts"]:
                per.setdefault(r["design"], []).append(r["counts"][name])
        return {d: statistics.median(v) for d, v in per.items()}

    def inprocess_ms(self, verb):
        """Median over the probe requests of (verb, design) of the summed
        layer spans, per design."""
        per = {}
        for r in self.requests.values():
            if r["group"] == "probe" and r["verb"] == verb:
                per.setdefault(r["design"], []).append(sum(ms for _, ms in r["spans"]))
        return {d: statistics.median(v) for d, v in per.items()}


def layer_metrics(replay, designs, e2e_ms, floor_ms, rss_kb):
    """Per-layer metrics for one workload.

    `e2e_ms[(verb, design)]` is the median spawn-to-exit time of the
    probe request; `designs` are the workload's probed designs.
    """
    out = {}
    for name, unit, how in LAYER_METRICS:
        kind, _, arg = how.partition(":")
        if kind == "floor":
            value = floor_ms
        elif kind == "rss":
            value = rss_kb / 1024
        elif kind == "ping":
            value = replay.span_ms("serve.ping_rtt").get("-", 0.0)
        elif kind == "hit_ratio":
            value = replay.count("serve.hit_ratio").get("-", 0.0)
        elif kind == "span":
            value = sum(replay.span_ms(arg).get(d, 0.0) for d in designs)
        elif kind == "count":
            value = sum(replay.count(arg).get(d, 0.0) for d in designs)
        elif kind == "mean":
            vals = replay.count(arg)
            value = statistics.mean(vals.get(d, 0.0) for d in designs)
        else:  # unattributed
            inproc = replay.inprocess_ms(arg)
            value = sum(e2e_ms[(arg, d)] - inproc.get(d, 0.0) for d in designs)
        out[name] = (value, unit)
    return out
