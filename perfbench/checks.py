"""Output checks.  None of them asks courant_lab for the answer:

- spectrum tables and point queries: an integer oracle enumerated here with
  numpy, and the documented table format;
- verdicts: the published Courant-sharp table;
- nodal counts: the values the test suite pins;
- critical zeros and chord roots: residuals in an mpmath evaluator of the
  closed-form eigenfunctions written out here;
- every other input: sha256 digests of the outputs of the commit that
  introduced the benchmark (golden.json, written by make_golden.py).
"""

import functools
import hashlib
import json
import math
import os

import numpy as np

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

PUBLISHED_SHARP = {"torus": [1, 2], "equilateral": [1, 2, 4],
                   "right-isosceles": [1, 2], "hemiequilateral": [1, 2]}
THETA_C = 0.3005211737
CSV_HEADER = "normalized,min_index,max_index,multiplicity,ratio"

MP_DIGITS = 30


def _mpmath():
    # imported here so that workers, which only build Output records, do not
    # carry mpmath in their heap
    import mpmath
    mpmath.mp.dps = MP_DIGITS
    return mpmath


class CheckResult:
    """ok: output correct.  known_defect: wrong in the one recorded way (the
    counting_function rounding defect), which counts as a failed op but not
    as an unexpected one."""

    def __init__(self, ok, reason="", known_defect=False):
        self.ok = ok
        self.reason = reason
        self.known_defect = known_defect


PASS = CheckResult(True)


# --- integer spectrum oracle --------------------------------------------------

def eigenvalue_values(domain, limit):
    """Sorted normalized eigenvalues <= limit, with multiplicity."""
    bound = math.isqrt(4 * limit // 3 + 1) + 1
    lo = -bound if domain == "torus" else 1
    r = np.arange(lo, bound + 1, dtype=np.int64)
    m, n = np.meshgrid(r, r, indexing="ij")
    if domain == "right-isosceles":
        vals, ok = m * m + n * n, m > n
    else:
        vals = m * m + m * n + n * n
        ok = {"torus": np.ones_like(m, dtype=bool),
              "equilateral": (m >= 1) & (n >= 1),
              "hemiequilateral": m > n}[domain]
    vals = vals[ok]
    return np.sort(vals[vals <= limit])


@functools.lru_cache(maxsize=None)
def _point_table(domain, kmax):
    return eigenvalue_values(domain, kmax)


def eigenvalue_points(domain, kmax):
    """Distinct normalized eigenvalues <= kmax."""
    return [int(v) for v in np.unique(_point_table(domain, kmax))]


def strict_count(domain, k):
    """Eigenvalues (with multiplicity) strictly below normalized k."""
    return int(np.searchsorted(_point_table(domain, max(int(k), 5000)), k, "left"))


def multiplicity(domain, k):
    vals = _point_table(domain, max(int(k), 5000))
    return int(np.searchsorted(vals, k, "right") - np.searchsorted(vals, k, "left"))


def spectrum_entries(domain, count):
    """(normalized, multiplicity, min_index, max_index) covering `count`
    eigenvalues; the strict count below each entry is min_index - 1."""
    limit = max(16, count)
    while True:
        vals = eigenvalue_values(domain, limit)
        if len(vals) >= count:
            break
        limit = 2 * limit
    distinct, mult = np.unique(vals, return_counts=True)
    entries = []
    index = 1
    for v, k in zip(distinct.tolist(), mult.tolist()):
        entries.append((v, k, index, index + k - 1))
        index += k
        if index > count:
            break
    return entries


def format_ratio(x):
    """Fixed point with 10 significant digits, as the CLI documents."""
    if x == 0.0:
        return "0.000000000"
    decimals = max(0, 9 - int(math.floor(math.log10(abs(x)))))
    return f"{x:.{decimals}f}"


def _ratio(domain, value, min_index):
    # the torus ratio test applies from index 4 on
    if domain == "torus" and min_index < 4:
        return ""
    return format_ratio(value / min_index)


def expected_spectrum(domain, count, fmt):
    rows = [(v, k, lo, hi, _ratio(domain, v, lo))
            for v, k, lo, hi in spectrum_entries(domain, count)]
    if fmt == "json":
        return json.dumps([{"normalized": v, "min_index": lo, "max_index": hi,
                            "multiplicity": k, "ratio": r or None}
                           for v, k, lo, hi, r in rows], indent=2) + "\n"
    lines = [CSV_HEADER] + [f"{v},{lo},{hi},{k},{r}" for v, k, lo, hi, r in rows]
    return "\n".join(lines) + "\n"


# --- independent evaluator of the closed-form eigenfunctions -----------------

def weyl_orbit(m, n):
    """(sign, a, b) for the six images of (m, n) under the A2 reflection group:
    the eigenfunction terms are sign * exp(2 pi i (a s + b t))."""
    return ((+1, m, n), (-1, -m, m + n), (-1, m + n, -n),
            (-1, -n, -m), (+1, n, -(m + n)), (+1, -(m + n), m))


def psi(m, n, theta, s, t):
    mpmath = _mpmath()
    ct, st = mpmath.cos(theta), mpmath.sin(theta)
    acc = mpmath.mpf(0)
    for sign, a, b in weyl_orbit(m, n):
        phi = 2 * mpmath.pi * (a * mpmath.mpf(s) + b * mpmath.mpf(t))
        acc += sign * (ct * mpmath.cos(phi) + st * mpmath.sin(phi))
    return acc


def psi_gradient(m, n, theta, s, t):
    mpmath = _mpmath()
    ct, st = mpmath.cos(theta), mpmath.sin(theta)
    gs = gt = mpmath.mpf(0)
    for sign, a, b in weyl_orbit(m, n):
        phi = 2 * mpmath.pi * (a * mpmath.mpf(s) + b * mpmath.mpf(t))
        d = sign * 2 * mpmath.pi * (st * mpmath.cos(phi) - ct * mpmath.sin(phi))
        gs += a * d
        gt += b * d
    return gs, gt


def gradient_scale(m, n):
    return 2.0 * math.pi * sum(abs(a) + abs(b) for _, a, b in weyl_orbit(m, n))


# --- the same eigenfunction in float64, vectorised, for root scans -------------

SCAN_POINTS = 2000


def psi_samples(m, n, theta, s, t):
    ct, st = math.cos(theta), math.sin(theta)
    acc = np.zeros(np.shape(s))
    for sign, a, b in weyl_orbit(m, n):
        phi = 2.0 * math.pi * (a * s + b * t)
        acc += sign * (ct * np.cos(phi) + st * np.sin(phi))
    return acc


def gradient_samples(m, n, theta, s, t):
    """(len(s), 2) array of the gradient of psi."""
    ct, st = math.cos(theta), math.sin(theta)
    grad = np.zeros((np.size(s), 2))
    for sign, a, b in weyl_orbit(m, n):
        phi = 2.0 * math.pi * (a * s + b * t)
        d = sign * 2.0 * math.pi * (st * np.cos(phi) - ct * np.sin(phi))
        grad[:, 0] += a * d
        grad[:, 1] += b * d
    return grad


def scan_points(lo, hi):
    """SCAN_POINTS cell midpoints of the open interval (lo, hi)."""
    h = (hi - lo) / SCAN_POINTS
    return lo + h * (np.arange(SCAN_POINTS) + 0.5)


def missing_root(xs, ys, roots):
    """The first bracket (x_i, x_i+1) where ys changes sign and no root lies
    within one step of it, or None: a returned root list that drops a simple
    root fails here, while a residual check passes it."""
    h = xs[1] - xs[0]
    roots = np.sort(np.asarray(roots, dtype=float))
    for i in np.nonzero(np.sign(ys[:-1]) * np.sign(ys[1:]) < 0)[0]:
        j = int(np.searchsorted(roots, xs[i] - h))
        if j == len(roots) or roots[j] > xs[i + 1] + h:
            return float(xs[i]), float(xs[i + 1])
    return None


_EDGE_POINT = {"OA": lambda u: (u, u / 2.0), "OB": lambda u: (u / 2.0, u),
               "BA": lambda u: (u / 2.0, 1.0 - u / 2.0)}
_EDGE_RANGE = {"OA": (0.0, 2.0 / 3.0), "OB": (0.0, 2.0 / 3.0),
               "BA": (2.0 / 3.0, 4.0 / 3.0)}


def check_critical_zeros(pair, theta, zeros):
    m, n = pair
    tol = 1e-8 * gradient_scale(m, n)
    for z in zeros:
        edge, u = z["edge"], z["u"]
        if edge not in _EDGE_POINT or z["order"] not in (2, 3):
            return CheckResult(False, f"bad zero record {z}")
        lo, hi = _EDGE_RANGE[edge]
        s, t = _EDGE_POINT[edge](u)
        if not lo < u < hi or abs(s - z["s"]) > 1e-12 or abs(t - z["t"]) > 1e-12:
            return CheckResult(False, f"zero {z} is not on edge {edge}")
        gs, gt = psi_gradient(m, n, theta, z["s"], z["t"])
        resid = math.hypot(float(gs), float(gt))
        if resid > tol:
            return CheckResult(False, f"gradient {resid:.3g} at {edge} u={u!r}")
    # On an edge the gradient keeps one direction and only its signed length
    # varies, so a simple critical zero is a sign change of that length.
    for edge, (lo, hi) in _EDGE_RANGE.items():
        us = scan_points(lo, hi)
        grad = gradient_samples(m, n, theta, *_EDGE_POINT[edge](us))
        direction = np.linalg.svd(grad, full_matrices=False)[2][0]
        gap = missing_root(us, grad @ direction,
                           [z["u"] for z in zeros if z["edge"] == edge])
        if gap is not None:
            return CheckResult(False, f"no critical zero on {edge} in {gap}")
    return PASS


def check_chord_roots(pair, a, theta, roots):
    m, n = pair
    tol = 1e-9 * 6.0 * (abs(math.cos(theta)) + abs(math.sin(theta)))
    if roots != sorted(roots):
        return CheckResult(False, "roots not sorted")
    for u in roots:
        if not a / 3.0 < u < 2.0 * a / 3.0:
            return CheckResult(False, f"root {u!r} outside the chord")
        resid = abs(float(psi(m, n, theta, u, a - u)))
        if resid > tol:
            return CheckResult(False, f"residual {resid:.3g} at u={u!r}")
    us = scan_points(a / 3.0, 2.0 * a / 3.0)
    gap = missing_root(us, psi_samples(m, n, theta, us, a - us), roots)
    if gap is not None:
        return CheckResult(False, f"no root in {gap}")
    return PASS


# --- pinned nodal counts ------------------------------------------------------

def pinned_count(domain, pair, theta):
    """The nodal count the test suite pins for this handle, or None."""
    pair = tuple(pair)
    if domain == "hemiequilateral":
        return {(2, 1): 1, (3, 1): 2}.get(pair)
    if domain == "equilateral" and 0.0 < theta <= math.pi / 6.0 + 1e-12:
        if pair == (1, 3):
            return 3
        if pair == (2, 3) and abs(theta - THETA_C) > 0.01:
            return 3 if theta < THETA_C else 4
    return None


# --- digests -----------------------------------------------------------------

def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


class Output:
    """What a worker reports of one op's output: its digest and exit code,
    and the text itself when it is small (large outputs are checked by
    digest, so they never have to leave the worker)."""

    TEXT_LIMIT = 1 << 16

    def __init__(self, sha256, exit_code, size, text=None):
        self.sha256 = sha256
        self.exit = exit_code
        self.size = size
        self.text = text

    @classmethod
    def of(cls, text, exit_code):
        return cls(digest(text), exit_code, len(text),
                   text if len(text) <= cls.TEXT_LIMIT else None)

    def to_json(self):
        return [self.sha256, self.exit, self.size, self.text]


def _check_digest(key, out):
    want = golden().get(key)
    if want is None:
        return CheckResult(False, "input has no recorded digest")
    if out.exit != want["exit"]:
        return CheckResult(False, f"exit {out.exit}, recorded {want['exit']}")
    if out.sha256 != want["sha256"]:
        return CheckResult(False, "output differs from the recorded digest")
    return PASS


def _argv_value(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _pair_arg(argv):
    return tuple(int(v) for v in _argv_value(argv, "--pair").split(","))


def _check_cli(key, argv, out):
    command = argv[0]
    if command == "spectrum":
        want = expected_spectrum(_argv_value(argv, "--domain"),
                                 int(_argv_value(argv, "--count")),
                                 _argv_value(argv, "--format", "csv"))
        if out.exit != 0 or out.sha256 != digest(want):
            return CheckResult(False, "spectrum table differs from the integer oracle")
        return PASS
    if command == "critical-zeros":
        if out.exit != 0:
            return CheckResult(False, f"exit {out.exit}")
        return check_critical_zeros(_pair_arg(argv), float(_argv_value(argv, "--theta")),
                                    json.loads(out.text))
    if command == "verdict":
        domain = _argv_value(argv, "--domain")
        sharp = json.loads(out.text)["sharp"] if out.exit == 0 else None
        if sharp != PUBLISHED_SHARP[domain]:
            return CheckResult(False, f"sharp {sharp}, published {PUBLISHED_SHARP[domain]}")
    if command == "nodal":
        theta = float(_argv_value(argv, "--theta", "0"))
        want = pinned_count(_argv_value(argv, "--domain"), _pair_arg(argv), theta)
        if want is not None:
            got = json.loads(out.text)["domain_count"] if out.exit == 0 else None
            if got != want:
                return CheckResult(False, f"count {got} (exit {out.exit}), pinned {want}")
    return _check_digest(key, out)


def check(op, key, out):
    """Check one op's Output; key is the op's canonical input text.  An
    output the checks cannot even parse fails its op."""
    try:
        return _check(op, key, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return CheckResult(False, f"unreadable output: {type(exc).__name__}: {exc}")


def _check(op, key, out):
    kind = op["op"]
    if kind == "cli":
        return _check_cli(key, op["argv"], out)
    if kind == "counting_function":
        got, want = int(out.text), strict_count(op["domain"], op["k"])
        if got == want:
            return PASS
        own = multiplicity(op["domain"], op["k"])
        return CheckResult(False, f"N({op['k']}) = {got}, oracle {want}",
                           known_defect=got == want + own)
    if kind == "multiplicity":
        got, want = int(out.text), multiplicity(op["domain"], op["k"])
        return PASS if got == want else CheckResult(False, f"{got}, oracle {want}")
    if kind == "edge_restriction_roots":
        return check_chord_roots(op["pair"], op["a"], op["theta"], json.loads(out.text))
    return _check_digest(key, out)
