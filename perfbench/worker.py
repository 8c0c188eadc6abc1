"""One benchmark worker process: runs a batch of ops in-process and times
each on the host reference's virtual clock.  Outputs are reported by digest,
and by text when small; the parent checks them, so neither the time nor the
memory of the checks falls on the worker.

Reads a JSON spec on stdin:
    {"ops": [...], "warmup": [...], "trace": bool, "box_cells": bool}
and writes one JSON result document on stdout.  Run as
`python3 -m perfbench.worker` with `src` on PYTHONPATH.
"""

import contextlib
import gc
import importlib
import io
import json
import os
import pkgutil
import platform
import resource
import sys
import time
import traceback

import numpy as np
import scipy

from perfbench.checks import Output
from perfbench.hostref import HostReference, op_factors
from perfbench.tracer import Tracer

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "COURANT_LAB_THREADS")


def import_library():
    """Import every courant_lab module, so that lazily imported ones can be
    hooked and their import cost stays out of the ops."""
    import courant_lab
    modules = {}
    for info in pkgutil.iter_modules(courant_lab.__path__):
        modules[info.name] = importlib.import_module(f"courant_lab.{info.name}")
    return modules


class Executor:
    def __init__(self, modules):
        self.mod = modules

    def run(self, op):
        """(output text, exit code) of one op."""
        kind = op["op"]
        if kind == "cli":
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                try:
                    code = self.mod["cli_report"].main(list(op["argv"]))
                except SystemExit as exc:
                    code = exc.code
            return buf.getvalue(), code
        domain_kind = self.mod["alcove_geometry"].DomainKind
        if kind == "counting_function":
            result = self.mod["lattice_spectrum"].counting_function(
                domain_kind(op["domain"]), op["lam"])
            return str(result), 0
        if kind == "multiplicity":
            result = self.mod["lattice_spectrum"].multiplicity(
                domain_kind(op["domain"]), op["k"])
            return str(result), 0
        if kind == "median_critical_zeros":
            zeros = self.mod["nodal_analysis"].median_critical_zeros(
                tuple(op["pair"]), op["which"])
            return json.dumps([[z.edge_or_median, z.parameter_u, z.order,
                                z.location.s, z.location.t] for z in zeros]), 0
        if kind == "edge_restriction_roots":
            roots = self.mod["nodal_analysis"].edge_restriction_roots(
                tuple(op["pair"]), op["a"], op["theta"])
            return json.dumps([float(u) for u in roots]), 0
        raise ValueError(f"unknown op {kind!r}")


def machine_info():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "platform": platform.platform(),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def run_batch(spec):
    executor = Executor(import_library())
    for op in spec["warmup"]:
        executor.run(op)
    host = HostReference()
    host.kernel_ms()                       # first call pays numpy set-up
    # what is alive now (library, benchmark, warm-up leftovers) is moved out
    # of the collector's reach, so that collections during the ops traverse
    # only what the ops allocate, as in a fresh CLI process
    gc.collect()
    gc.freeze()
    tracer = None
    if spec["trace"]:
        tracer = Tracer(host.clock)
        tracer.install(box_cells=spec.get("box_cells", False))
    latencies, windows, outputs, errors = [], [], [], {}
    for _ in range(5):
        host.sample()
    host.start()
    try:
        for i, op in enumerate(spec["ops"]):
            if tracer is not None:
                tracer.op = i
            t0, w0 = host.clock(), time.perf_counter()
            try:
                text, code = executor.run(op)
            except Exception:  # an op that raises is a failed op, not a crash
                text, code = None, None
                errors[i] = traceback.format_exc(limit=3)
            latencies.append(host.clock() - t0)
            windows.append((w0, time.perf_counter()))
            outputs.append(None if text is None else Output.of(text, code).to_json())
    finally:
        host.stop()
    factors = op_factors(windows, host.sample_times, host.samples_ms)
    out = {"latencies_s": latencies,
           "adjusted_s": [t * f for t, f in zip(latencies, factors)],
           "outputs": outputs, "errors": errors, "ref_ms": host.samples_ms,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "machine": machine_info()}
    if tracer is not None:
        tracer.uninstall()
        out["layer_totals"] = tracer.layer_totals(factors)
        out["missing_hooks"] = tracer.missing
        out["missing_layers"] = tracer.missing_layers()
    return out


def main():
    spec = json.load(sys.stdin)
    result = run_batch(spec)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
