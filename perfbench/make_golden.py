"""Record the sha256 digest and exit code of every digest-checked input that
any seed can draw (workloads.digest_inputs) into perfbench/golden.json.

    PYTHONPATH=src python3 -m perfbench.make_golden

Run it only at a commit whose outputs are trusted: the digests are the
reference that later commits' outputs are checked against.
"""

import json
import sys

from perfbench import checks, workloads
from perfbench.worker import Executor, import_library


def main():
    executor = Executor(import_library())
    golden = {}
    inputs = workloads.digest_inputs()
    for i, op in enumerate(inputs):
        text, code = executor.run(op)
        golden[workloads.op_key(op)] = {"sha256": checks.digest(text), "exit": code}
        print(f"{i + 1}/{len(inputs)} exit {code} {workloads.op_key(op)}",
              file=sys.stderr)
    with open(checks.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
