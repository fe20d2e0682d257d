"""Output checkers: every request's stdout and exit code is verified.

The numeric references are computed here, independently of banger: an
LU residual for the dense and tiled LU designs, a 3x3 solve for lu3,
identity * B = B for matmul, and a replica of heat_probe's relaxation.
"""

import json
import re

from workloads import expected_rc

_LINE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*) = (.*)$")
_MAKESPAN = re.compile(r"^makespan (\S+), speedup (\S+)x, efficiency")
_SIMULATE = re.compile(r"^ETF: predicted (\S+), achieved (\S+) \(ratio (\S+)\)$")
_SUMMARY = re.compile(r"^(\d+) errors?, (\d+) warnings?$")


def parse_value(text):
    text = text.strip()
    if text.startswith("["):
        body = text[1:-1].strip()
        return [float(x) for x in body.split(",")] if body else []
    return float(text)


def output_values(stdout):
    """`name = value` lines up to the first blank line, as a dict."""
    out = {}
    for line in stdout.decode().split("\n"):
        if not line:
            break
        m = _LINE.match(line)
        if m:
            out[m.group(1)] = parse_value(m.group(2))
    return out


def lu_residual(a, lu, n):
    """max |(L*U - A)[i][j]| for a packed Doolittle factor (unit L)."""
    worst = 0.0
    for i in range(n):
        row = lu[i * n : (i + 1) * n]
        for j in range(n):
            s = 0.0
            for k in range(min(i, j) + 1):
                lik = 1.0 if k == i else row[k]
                s += lik * lu[k * n + j]
            worst = max(worst, abs(s - a[i * n + j]))
    return worst


def solve3(a, b):
    """x with A x = b by Gaussian elimination with partial pivoting."""
    m = [list(a[3 * i : 3 * i + 3]) + [b[i]] for i in range(3)]
    for c in range(3):
        p = max(range(c, 3), key=lambda r: abs(m[r][c]))
        m[c], m[p] = m[p], m[c]
        for r in range(c + 1, 3):
            f = m[r][c] / m[c][c]
            for k in range(c, 4):
                m[r][k] -= f * m[c][k]
    x = [0.0] * 3
    for r in (2, 1, 0):
        x[r] = (m[r][3] - sum(m[r][k] * x[k] for k in range(r + 1, 3))) / m[r][r]
    return x


def heat_summary(left, right):
    """heat_probe's output, with the same floating-point operation order."""
    n = 16
    rod = [0.0] * (n + 1)  # 1-based
    rod[1], rod[n] = left, right
    for i in range(2, n):
        rod[i] = left + (right - left) * (i - 1) / (n - 1)
    h = n // 2
    lower, upper = list(rod), list(rod)
    for _ in range(50):
        for i in range(2, h + 1):
            lower[i] = (lower[i - 1] + lower[i + 1]) / 2
    for _ in range(50):
        for i in range(h + 1, n):
            upper[i] = (upper[i - 1] + upper[i + 1]) / 2
    lo, hi = lower[h], upper[h + 1]
    return [lo, hi, (lo + hi) / 2, abs(lo - hi)]


def check_values(design, values, inputs):
    """None when a run's outputs are right for the design, else why not."""
    inp = inputs[design]
    if design == "lu3":
        x, want = values.get("x"), solve3(inp["A"], inp["b"])
        if not isinstance(x, list) or len(x) != 3:
            return "lu3: no 3-vector x"
        if any(abs(p - q) > 1e-9 * (1 + abs(q)) for p, q in zip(x, want)):
            return "lu3: x = %r, solve gives %r" % (x, want)
    elif design == "heat_probe":
        if values.get("summary") != heat_summary(inp["left"], inp["right"]):
            return "heat_probe: summary %r differs from the relaxation" % values.get("summary")
    elif design == "matmul":
        if values.get("C") != inp["B"]:
            return "matmul: identity * B != B"
    elif design in ("dense_lu", "tiled4", "tiled8", "tiled16"):
        lu, a = values.get("lu"), inp["a"]
        if not isinstance(lu, list) or len(lu) != len(a):
            return "%s: no %d-element lu" % (design, len(a))
        n = int(round(len(a) ** 0.5))
        res = lu_residual(a, lu, n)
        if not res <= 1e-9 * max(abs(v) for v in a):
            return "%s: |LU - A| = %g" % (design, res)
    else:
        return "no value check for %s" % design
    return None


def check_output(req, rc, stdout, inputs):
    """None when one request's exit code and stdout are right, else why not."""
    want_rc = expected_rc(req)
    if rc != want_rc:
        return "%s: exit %d, want %d" % (req.kind, rc, want_rc)
    text = stdout.decode(errors="replace")
    lines = text.rstrip("\n").split("\n")
    if req.verb == "check":
        if req.design == "racy_pipeline":
            return None if "error[B001]" in text else "racy_pipeline: no B001"
        m = _SUMMARY.match(lines[-1])
        if not m or m.group(1) != "0":
            return "%s: no clean diagnostics summary" % req.kind
        return None
    if req.verb.startswith("gantt"):
        m = _MAKESPAN.match(lines[-1])
        if not m or not float(m.group(1)) > 0:
            return "%s: no makespan line" % req.kind
        return None
    if req.verb == "simulate":
        m = _SIMULATE.match(lines[0])
        if not m or not float(m.group(2)) > 0:
            return "%s: no predicted/achieved line" % req.kind
        return None
    if req.verb == "run_trace" and ("\npredicted (ETF):\n" not in text or "\nobserved:\n" not in text):
        return "%s: no predicted/observed charts" % req.kind
    return check_values(req.design, output_values(stdout), inputs)


def check_trace_file(path, tasks):
    """None when a --trace output is Chrome trace JSON with every task."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return "trace %s: %s" % (path, e)
    events = doc.get("traceEvents") if isinstance(doc, dict) else None
    if not isinstance(events, list):
        return "trace %s: no traceEvents" % path
    spans = sum(1 for e in events if e.get("ph") == "X")
    if spans < tasks:
        return "trace %s: %d task spans, want %d" % (path, spans, tasks)
    return None
