"""Seeded op lists for the four workloads.

An op is a JSON-able dict.  CLI ops are {"op": "cli", "argv": [...]} and run
`courant-lab <argv>` in-process; library ops name the function and carry its
generated inputs.  The op list depends only on (workload, seed, seconds):
--seconds sizes it from the nominal per-op costs measured when the benchmark
was written, so a run at that commit lasts about that long, and later commits
run the same list, which makes run_s compare equal work.

Every op list is stratified so that its total cost barely depends on the seed:
seeds move parameters inside fixed strata, never the number of ops of each
kind or domain.  No op repeats another op's input within one list.
"""

import json
import math
import random

from perfbench import checks

DOMAINS = ("torus", "equilateral", "right-isosceles", "hemiequilateral")
TRIANGLES = ("equilateral", "hemiequilateral", "right-isosceles")
SCALE_A2 = 16.0 * math.pi ** 2 / 9.0

# --- verdict -----------------------------------------------------------------
VERDICT_PASS_S = 16.0          # one pass of all four verdicts at this commit
# Passes without the equilateral verdict that go with each full pass.  The
# median op is a right-isosceles or hemiequilateral verdict (0.15-0.35 s,
# 10-20% apart between fresh processes): of a full pass alone it is the mean
# of one of each, whose spread over seeds reached a third of the median.
# With these passes it is the median of seven right-isosceles verdicts.
VERDICT_SHORT_PASSES = 6

# --- gallery -----------------------------------------------------------------
GALLERY_BLOCK_S = 7.0          # one nodal512, nodal1024 and plot512 per triangle
GALLERY_KINDS = (("nodal", "512"), ("nodal", "1024"), ("plot", "512"))
EQ_FAMILIES = ((1, 3), (2, 3))
# theta = j*pi/48, j = 1..8, covers (0, pi/6] and brackets theta_c ~ 0.3005
FAMILY_THETAS = tuple(j * math.pi / 48.0 for j in range(1, 9))
OTHER_THETAS = (math.pi / 10.0, math.pi / 7.0, math.pi / 4.0)
GALLERY_MODES = {
    "equilateral": ((1, 2), (1, 4), (2, 5), (3, 4), (1, 5), (3, 5), (4, 5)),
    "hemiequilateral": ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3),
                        (5, 1), (5, 2), (5, 3)),
    "right-isosceles": ((2, 1), (3, 1), (3, 2), (4, 1), (4, 3), (5, 1),
                        (5, 2), (5, 4), (6, 1)),
}
# each (domain, mode) is used by one op per run, so the pools cap the blocks
GALLERY_MAX_BLOCKS = 3

# --- spectrum ----------------------------------------------------------------
# Each level holds one table per domain, all of the same nominal cost at the
# commit that introduced the benchmark; levels double in cost.  The ops then
# form a clean ladder, so the median and tail ops do not depend on which
# domain a seed happens to put next to them.
SPECTRUM_LEVELS_MS = (37.5, 75.0, 150.0, 300.0, 600.0, 1200.0)
# measured ms per 1000 table rows (mean of CSV and JSON at 1e5 to 2e5 rows)
SPECTRUM_MS_PER_KROW = {"torus": 5.8, "equilateral": 17.6,
                        "right-isosceles": 28.8, "hemiequilateral": 25.6}
SPECTRUM_LADDER_S = 9.5
SPECTRUM_JITTER = 1.03                           # log-uniform in [c/1.03, c*1.03]

# --- queries -----------------------------------------------------------------
QUERIES_BLOCK_S = 0.7
QUERY_K_MAX = 5000
POINTS_PER_BLOCK = 4           # counting_function and multiplicity, per domain
ROOT_OPS_PER_BLOCK = 40        # critical-zeros CLI and edge_restriction_roots


def op_key(op) -> str:
    """Canonical text of an op's input, used for uniqueness and digests."""
    return json.dumps(op, sort_keys=True)


def _cli(*argv):
    return {"op": "cli", "argv": list(argv)}


def _pair(mode):
    return f"{mode[0]},{mode[1]}"


def _gallery_op(kind, res, domain, mode, theta):
    argv = [kind, "--domain", domain, "--pair", _pair(mode), "--resolution", res]
    if domain == "equilateral":
        argv += ["--theta", repr(theta)]
    return _cli(*argv)


def _blocks(seconds, block_s):
    return max(1, round(seconds / block_s))


# ---------------------------------------------------------------------------

def verdict_passes(seed, seconds):
    """One list of ops per pass; each pass runs in a fresh process because the
    domains repeat from pass to pass.  Each full pass (all four domains) comes
    with VERDICT_SHORT_PASSES passes over the three domains other than the
    equilateral one, whose sweep takes 95% of a full pass."""
    rng = random.Random(f"verdict/{seed}")
    short = [d for d in DOMAINS if d != "equilateral"]
    passes = []
    for _ in range(_blocks(seconds, VERDICT_PASS_S)):
        for domains in [DOMAINS] + [short] * VERDICT_SHORT_PASSES:
            order = list(domains)
            rng.shuffle(order)
            passes.append([_cli("verdict", "--domain", d) for d in order])
    rng.shuffle(passes)
    return passes


def gallery_ops(seed, seconds):
    rng = random.Random(f"gallery/{seed}")
    blocks = min(_blocks(seconds, GALLERY_BLOCK_S), GALLERY_MAX_BLOCKS)
    ops = []
    for domain in TRIANGLES:
        need = 3 * blocks
        if domain == "equilateral":
            modes = list(EQ_FAMILIES) + rng.sample(GALLERY_MODES[domain], need - 2)
        else:
            modes = rng.sample(GALLERY_MODES[domain], need)
        rng.shuffle(modes)
        for i, mode in enumerate(modes):
            kind, res = GALLERY_KINDS[i % 3]
            thetas = FAMILY_THETAS if mode in EQ_FAMILIES else OTHER_THETAS
            ops.append(_gallery_op(kind, res, domain, mode, rng.choice(thetas)))
    rng.shuffle(ops)
    return ops


def gallery_pool():
    """Every gallery op any seed can draw."""
    ops = []
    for domain in TRIANGLES:
        modes = GALLERY_MODES[domain]
        if domain == "equilateral":
            modes = EQ_FAMILIES + modes
        for mode in modes:
            if domain != "equilateral":
                thetas = (0.0,)
            elif mode in EQ_FAMILIES:
                thetas = FAMILY_THETAS
            else:
                thetas = OTHER_THETAS
            for theta in thetas:
                for kind, res in GALLERY_KINDS:
                    ops.append(_gallery_op(kind, res, domain, mode, theta))
    return ops


def spectrum_ops(seed, seconds):
    """Per ladder: one table per (domain, level), CSV and JSON in a fixed
    checkerboard.  Counts run from about 1.3e3 to 2e5 (the torus, the
    cheapest domain, reaches 2e5); the seed moves each count within a narrow
    log-uniform bin and shuffles the order.

    In the first ladder the torus counts are not moved: whether the torus
    enumeration needs a second, 2.25x larger pass flips from one count to the
    next, so moved counts made run_s and peak_rss_mb depend on the seed by up
    to 25%.  At the fixed counts two of the six torus tables take that pass.
    """
    rng = random.Random(f"spectrum/{seed}")
    seen = set()
    ops = []
    for ladder in range(_blocks(seconds, SPECTRUM_LADDER_S)):
        for i, level_ms in enumerate(SPECTRUM_LEVELS_MS):
            for j, domain in enumerate(DOMAINS):
                rows = 1000.0 * level_ms / SPECTRUM_MS_PER_KROW[domain]
                fmt = ("csv", "json")[(i + j) % 2]
                fixed = domain == "torus" and ladder == 0
                while True:
                    shift = 0.0 if fixed else rng.uniform(-1.0, 1.0)
                    count = round(rows * SPECTRUM_JITTER ** shift)
                    op = _cli("spectrum", "--domain", domain, "--count", str(count),
                              "--format", fmt)
                    if op_key(op) not in seen:
                        break
                seen.add(op_key(op))
                ops.append(op)
    rng.shuffle(ops)
    return ops


def queries_fixed_ops():
    """Ops whose inputs are few: each appears once in every queries run."""
    ops = []
    for d in DOMAINS:
        for fmt in ("csv", "json"):
            ops.append(_cli("screen", "--domain", d, "--format", fmt))
    for pair in EQ_FAMILIES:
        ops.append(_cli("fixed-points", "--pair", _pair(pair)))
        for which in ("C", "S"):
            ops.append({"op": "median_critical_zeros", "pair": list(pair),
                        "which": which})
    ops.append(_cli("bifurcation"))
    return ops


def _stratified(rng, values, n):
    """n draws without replacement, one from each of n equal strata."""
    if n > len(values):
        raise ValueError(f"{n} draws from a pool of {len(values)}")
    edges = [round(i * len(values) / n) for i in range(n + 1)]
    return [values[rng.randrange(edges[i], edges[i + 1])] for i in range(n)]


def physical_lambda(domain, k):
    return k * (1.0 if domain == "right-isosceles" else SCALE_A2)


def queries_ops(seed, seconds):
    rng = random.Random(f"queries/{seed}")
    blocks = _blocks(seconds, QUERIES_BLOCK_S)
    ops = queries_fixed_ops()
    for domain in DOMAINS:
        points = [k for k in checks.eigenvalue_points(domain, QUERY_K_MAX) if k >= 1]
        for k in _stratified(rng, points, POINTS_PER_BLOCK * blocks):
            ops.append({"op": "counting_function", "domain": domain, "k": k,
                        "lam": physical_lambda(domain, k)})
        for k in _stratified(rng, points, POINTS_PER_BLOCK * blocks):
            ops.append({"op": "multiplicity", "domain": domain, "k": k})
    for _ in range(ROOT_OPS_PER_BLOCK * blocks):
        pair = rng.choice(EQ_FAMILIES)
        theta = rng.uniform(1e-3, math.pi / 6.0)
        ops.append(_cli("critical-zeros", "--pair", _pair(pair), "--theta",
                        repr(theta)))
        ops.append({"op": "edge_restriction_roots", "pair": list(rng.choice(EQ_FAMILIES)),
                    "a": rng.uniform(0.05, 0.95), "theta": rng.uniform(0.0, math.pi)})
    rng.shuffle(ops)
    return ops


def op_lists(workload, seed, seconds):
    """The run's ops as a list of process batches: each batch runs in one
    fresh worker process."""
    if workload == "verdict":
        return verdict_passes(seed, seconds)
    builders = {"gallery": gallery_ops, "spectrum": spectrum_ops,
                "queries": queries_ops}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}")
    return [builders[workload](seed, seconds)]


# Warm-up inputs, none of which any op list can contain.
WARMUP = {
    "verdict": [_cli("nodal", "--domain", "hemiequilateral", "--pair", "2,1",
                     "--resolution", "64"),
                _cli("screen", "--domain", "torus", "--format", "json")],
    "gallery": [_cli("nodal", "--domain", "right-isosceles", "--pair", "7,1",
                     "--resolution", "64"),
                _cli("plot", "--domain", "equilateral", "--pair", "1,3",
                     "--theta", "pi/6", "--resolution", "64")],
    "spectrum": [_cli("spectrum", "--domain", "torus", "--count", "100"),
                 _cli("spectrum", "--domain", "equilateral", "--count", "100",
                      "--format", "json")],
    "queries": [{"op": "counting_function", "domain": "torus", "k": 5001.5,
                 "lam": 5001.5 * SCALE_A2},
                {"op": "multiplicity", "domain": "equilateral", "k": 6007},
                _cli("critical-zeros", "--pair", "2,3", "--theta", "pi/6"),
                {"op": "edge_restriction_roots", "pair": [1, 3], "a": 0.5,
                 "theta": 0.0}],
}


def digest_inputs():
    """Every drawable op that is checked against a recorded digest."""
    ops = list(gallery_pool())
    ops += queries_fixed_ops()
    ops += [_cli("verdict", "--domain", d) for d in DOMAINS]
    return ops
