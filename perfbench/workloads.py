"""The four request mixes, their seeded inputs and their seeded order.

A workload is a fixed multiset of request kinds (a "round"). The seed
only permutes each round and generates the input data, so every seed
issues the same composition; a run always completes whole rounds.
"""

import random
from dataclasses import dataclass

from spawn import SOCKET

# Verb -> CLI arguments after the design file. `run_trace` and
# `run_repeat` get their extra arguments from `argv`.
VERBS = {
    "check": ["check"],
    "gantt_ETF": ["gantt"],
    "gantt_MH": ["gantt"],
    "simulate": ["simulate"],
    "run": ["run"],
    "run_trace": ["run"],
    "run_repeat": ["run"],
}
HEURISTIC = {"gantt_ETF": "ETF", "gantt_MH": "MH", "simulate": "ETF", "run_trace": "ETF"}

# Designs copied from examples/projects; the tiled ones are emitted from
# dense_lu by map expansion during set-up.
EXAMPLES = ["lu3", "heat_probe", "matmul", "racy_pipeline", "dense_lu"]
TILES = {"tiled4": 4, "tiled8": 8, "tiled16": 16}
# Flattened task counts: a --trace file must hold a span per task.
TASKS = {"lu3": 11, "heat_probe": 5, "matmul": 4, "dense_lu": 1, "tiled4": 63, "tiled8": 333, "tiled16": 2009}
LU_N = 64  # dense_lu's matrix order

# Firings per `run --repeat` invocation: heat_probe and tiled8 are the
# repeat_run mix; the others only appear in the traced pass's probes.
REPEAT = {
    "lu3": 200,
    "heat_probe": 500,
    "matmul": 200,
    "dense_lu": 3,
    "tiled4": 20,
    "tiled8": 10,
    "tiled16": 3,
}


@dataclass(frozen=True)
class Request:
    verb: str
    design: str
    connect: bool = False  # send through the daemon (`--connect`)
    edit: bool = False  # append a comment to the design file first

    @property
    def kind(self):
        """Key of the request's expected output: edits do not change it."""
        return "%s%s:%s" % ("connect:" if self.connect else "", self.verb, self.design)

    @property
    def local(self):
        return Request(self.verb, self.design)


@dataclass(frozen=True)
class Workload:
    name: str
    round: tuple  # the fixed multiset of Requests, in canonical order
    clients: int = 1

    @property
    def designs(self):
        seen = []
        for r in self.round:
            if r.design not in seen:
                seen.append(r.design)
        return seen

    @property
    def probe_designs(self):
        """Designs the traced pass probes with every verb (error-free ones)."""
        return [d for d in self.designs if d != "racy_pipeline"]


def _small():
    verbs = ["check", "gantt_MH", "gantt_ETF", "simulate", "run"]
    reqs = [Request(v, d) for d in ("lu3", "heat_probe", "matmul") for v in verbs]
    return tuple(reqs + [Request("check", "racy_pipeline")])


def _tiled_lu():
    # The 16x16 rung counts twice: it is where every layer costs tens of
    # ms, and it puts p90 inside one request kind's cluster of latencies
    # rather than on the gap between two kinds.
    verbs = ["check", "gantt_ETF", "gantt_MH", "run", "run_trace"]
    designs = ("dense_lu", "tiled4", "tiled8", "tiled16", "tiled16")
    return tuple(Request(v, d) for d in designs for v in verbs)


def _repeat_run():
    # 3:2 keeps the median inside the heat_probe cluster and p90 inside
    # the tiled8 one, instead of on the gap between them.
    return (Request("run_repeat", "heat_probe"),) * 3 + (Request("run_repeat", "tiled8"),) * 2


def _daemon():
    # Each kind ten times, one of the ten preceded by an edit; the two
    # clients share each round.
    reqs = []
    for d in ("lu3", "heat_probe", "tiled8"):
        for v in ("check", "gantt_ETF", "run"):
            reqs += [Request(v, d, connect=True)] * 9 + [Request(v, d, connect=True, edit=True)]
    return tuple(reqs)


WORKLOADS = {
    "small": Workload("small", _small()),
    "tiled_lu": Workload("tiled_lu", _tiled_lu()),
    "repeat_run": Workload("repeat_run", _repeat_run()),
    "daemon": Workload("daemon", _daemon(), clients=2),
}


def round_order(workload, seed, index):
    """Round `index` of a run: a seeded permutation of the workload's round,
    dealt out to the clients in turn. Returns one request list per client."""
    rng = random.Random("order/%s/%d/%d" % (workload.name, seed, index))
    reqs = list(workload.round)
    rng.shuffle(reqs)
    return [reqs[c :: workload.clients] for c in range(workload.clients)]


def _num(x):
    return repr(float(x))


def _array(vals):
    return "[" + ",".join(_num(v) for v in vals) + "]"


def make_inputs(seed):
    """Input values per design, as `name -> list of floats` (or a float)."""
    rng = random.Random("inputs/%d" % seed)

    def dominant(n):
        # Diagonally dominant, so LU without pivoting is stable.
        m = [round(rng.uniform(-1.0, 1.0), 3) for _ in range(n * n)]
        for i in range(n):
            m[i * n + i] = n + round(rng.uniform(0.0, 1.0), 3)
        return m

    a64 = dominant(LU_N)
    lu3_a = dominant(3)
    ident = [1.0 if i % 7 == 0 else 0.0 for i in range(36)]
    return {
        "lu3": {"A": lu3_a, "b": [round(rng.uniform(-5, 5), 3) for _ in range(3)]},
        "heat_probe": {"left": round(rng.uniform(0, 200), 2), "right": round(rng.uniform(0, 200), 2)},
        "matmul": {"A": ident, "B": [round(rng.uniform(-50, 50), 2) for _ in range(36)]},
        "racy_pipeline": {},
        "dense_lu": {"a": a64},
        "tiled4": {"a": a64},
        "tiled8": {"a": a64},
        "tiled16": {"a": a64},
    }


def input_args(values):
    args = []
    for name, v in values.items():
        args += ["-i", "%s=%s" % (name, _array(v) if isinstance(v, list) else _num(v))]
    return args


def argv(banger, req, inputs, trace_path=None):
    """The full command line of one request."""
    out = [banger]
    if req.connect:
        out += ["--connect", SOCKET]
    out += VERBS[req.verb] + [req.design + ".bang"]
    if req.verb == "run_trace":
        out += ["--trace", trace_path]
    if req.verb == "run_repeat":
        out += ["--repeat", str(REPEAT[req.design])]
    if req.verb in HEURISTIC:
        out += ["-H", HEURISTIC[req.verb]]
    if req.verb.startswith("run"):
        out += input_args(inputs[req.design])
    return out


def expected_rc(req):
    return 1 if req.design == "racy_pipeline" else 0
