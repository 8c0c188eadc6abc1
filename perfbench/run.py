"""courant-lab benchmark.

    python3 perfbench/run.py --workload <verdict|gallery|spectrum|queries>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout: the library is imported from ./src.  With
--trace 0 the last stdout line is a JSON object with the end-to-end metrics;
with --trace 1 it carries the per-layer metrics of a traced run, which follows
an untraced run of the same ops so that the tracing overhead can be given.
The lines before it are a readable report.  See perfbench/NOTES.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(BENCH_DIR))

from perfbench import checks, hostref, tracer, workloads  # noqa: E402

WORKLOADS = ("verdict", "gallery", "spectrum", "queries")
SETUP_PROCESSES = 6
WORKER_TIMEOUT_S = 150
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
              "COURANT_LAB_THREADS": "1"}
END_TO_END_UNITS = {"run_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "peak_rss_mb": "MB", "setup_s": "s"}

SETUP_SCRIPT = """
import json, time
t0 = time.perf_counter()
import courant_lab.cli_report
courant_lab.cli_report.build_parser()
setup = time.perf_counter() - t0
from perfbench.hostref import HostReference
host = HostReference()
host.kernel_ms()
print(json.dumps({"setup_s": setup, "ref_ms": [host.kernel_ms() for _ in range(9)]}))
"""


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"),
                                         os.path.dirname(BENCH_DIR)])
    return env


def measure_setup():
    """(adjusted, raw) median import-and-parser time over fresh processes.
    Each process's time is host-adjusted by the reference samples it took
    right after the import; the median is taken over the adjusted times."""
    adjusted, raw = [], []
    for _ in range(SETUP_PROCESSES):
        proc = subprocess.run([sys.executable, "-c", SETUP_SCRIPT], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"set-up process failed:\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(result["setup_s"])
        adjusted.append(result["setup_s"] * hostref.adjustment_factor(result["ref_ms"]))
    return statistics.median(adjusted), statistics.median(raw)


def run_worker(ops, warmup, trace, box_cells=False):
    spec = json.dumps({"ops": ops, "warmup": warmup, "trace": trace,
                       "box_cells": box_cells})
    proc = subprocess.run([sys.executable, "-m", "perfbench.worker"], cwd=ROOT,
                          env=child_env(), input=spec, capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_ops(workload, batches, trace, box_cells=False):
    """Run every batch in its own fresh worker, check the outputs and pool
    the results."""
    results = [run_worker(ops, workloads.WARMUP[workload], trace, box_cells)
               for ops in batches]
    refs = [r for res in results for r in res["ref_ms"]]
    failures, bytes_out, i = [], 0, 0
    for ops, res in zip(batches, results):
        for j, (op, out) in enumerate(zip(ops, res["outputs"])):
            if out is None:
                failures.append({"op": i + j, "reason": res["errors"][str(j)]})
                continue
            out = checks.Output(*out)
            bytes_out += out.size
            result = checks.check(op, workloads.op_key(op), out)
            if not result.ok:
                failures.append({"op": i + j, "reason": result.reason,
                                 "known_defect": result.known_defect})
        i += len(ops)
    pooled = {
        "latencies_s": [x for res in results for x in res["latencies_s"]],
        "adjusted_s": [x for res in results for x in res["adjusted_s"]],
        "failures": failures,
        "known_defects": sum(1 for f in failures if f.get("known_defect")),
        "bytes_out": bytes_out,
        "peak_rss_mb": max(res["peak_rss_mb"] for res in results),
        "ref_ms": refs,
        "factor": hostref.adjustment_factor(refs),
        "machine": results[0]["machine"],
    }
    if trace:
        pooled["layer_totals"] = tracer.sum_totals(r["layer_totals"] for r in results)
        pooled["missing_hooks"] = sorted({h for r in results for h in r["missing_hooks"]})
        pooled["missing_layers"] = sorted({h for r in results for h in r["missing_layers"]})
    return pooled


def end_to_end(pooled):
    """(adjusted metrics, raw values, tail label)."""
    metrics, raw = {}, {}
    for out, lat in ((metrics, pooled["adjusted_s"]), (raw, pooled["latencies_s"])):
        tail_s, tail_label = hostref.tail(lat)
        out["run_s"] = sum(lat)
        out["op_p50_ms"] = hostref.quantile(lat, 0.5) * 1e3
        out["op_tail_ms"] = tail_s * 1e3
    metrics["peak_rss_mb"] = pooled["peak_rss_mb"]
    return metrics, raw, tail_label


def report_common(args, pooled, attempted):
    m = pooled["machine"]
    print(f"courant-lab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"machine: nproc={m['nproc']} python={m['python']} numpy={m['numpy']} "
          f"scipy={m['scipy']} platform={m['platform']}")
    print("threads: " + " ".join(f"{k}={v}" for k, v in m["threads"].items()))
    refs = pooled["ref_ms"]
    print(f"host reference: median {statistics.median(refs):.3f} ms "
          f"(nominal {hostref.NOMINAL_REF_MS}), spread {hostref.spread(refs):.3f}, "
          f"{len(refs)} samples, run-level factor x{pooled['factor']:.4f}")
    failed = len(pooled["failures"])
    known = pooled["known_defects"]
    print(f"ops: attempted {attempted}, failed {failed} "
          f"({known} on the known counting_function rounding defect, "
          f"share {known / attempted:.4f})")
    for f in pooled["failures"][:10]:
        print(f"  failed op {f['op']}: {f['reason'].strip()}")


def result_line(pooled, attempted, metrics, units):
    unexpected = [f for f in pooled["failures"] if not f.get("known_defect")]
    return json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(pooled["failures"]),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "courant_lab", "__init__.py")):
        print("error: run from the root of a courant-lab checkout "
              "(src/courant_lab not found)", file=sys.stderr)
        return 2

    batches = workloads.op_lists(args.workload, args.seed, args.seconds)
    attempted = sum(len(b) for b in batches)
    try:
        if not args.trace:
            setup_s, setup_raw = measure_setup()
            pooled = run_ops(args.workload, batches, False)
            metrics, raw, tail_label = end_to_end(pooled)
            metrics["setup_s"] = setup_s
            report_common(args, pooled, attempted)
            notes = {name: f"raw {value:.6g}" for name, value in raw.items()}
            notes["op_tail_ms"] += f", {tail_label}"
            notes["peak_rss_mb"] = "max over worker processes"
            notes["setup_s"] = (f"raw {setup_raw:.6g}, median of {SETUP_PROCESSES} "
                                "fresh processes")
            for name, value in metrics.items():
                extra = notes[name]
                print(f"  {name:<12} {value:12.6g} {END_TO_END_UNITS[name]:<3} ({extra})")
            print(result_line(pooled, attempted, metrics, END_TO_END_UNITS))
            return 0

        untraced = run_ops(args.workload, batches, False)
        traced = run_ops(args.workload, batches, True)
        totals = traced["layer_totals"]
        box_key = "lattice_spectrum.enumerate.box_cells"
        if totals["lattice_spectrum.enumerate.calls"]:
            # counted in a pass of its own: the per-cell counter would
            # inflate the enumeration self times of the traced pass
            counted = run_ops(args.workload, batches, True, box_cells=True)
            totals[box_key] = counted["layer_totals"][box_key]
            traced["missing_hooks"] = sorted(set(traced["missing_hooks"])
                                             | set(counted["missing_hooks"]))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    layers = tracer.per_layer_metrics(totals)
    layers["cli_report.bytes_out"] = traced["bytes_out"]
    base_run = sum(untraced["adjusted_s"])
    traced_run = sum(traced["adjusted_s"])
    layers["host.ref_ms_p50"] = statistics.median(traced["ref_ms"])
    layers["host.ref_spread"] = hostref.spread(traced["ref_ms"])
    layers["host.raw_run_s"] = sum(traced["latencies_s"])
    layers["tracing.overhead_ratio"] = traced_run / base_run - 1.0
    layers["tracing.missing_hooks"] = len(traced["missing_hooks"])
    report_common(args, traced, attempted)
    print(f"untraced run_s {base_run:.6g} s, traced run_s {traced_run:.6g} s")
    print("missing hooks: " + (", ".join(traced["missing_hooks"]) or "none"))
    print("missing layers: " + (", ".join(traced["missing_layers"]) or "none"))
    units = {name: tracer.unit_of(name) for name in layers}
    for name, value in layers.items():
        print(f"  {name:<42} {value:14.6g} {units[name]}")
    print(result_line(traced, attempted, layers, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
