"""Time one set-up of the benchmark in a fresh process.

    python3 perfbench/setup_child.py WORKLOAD SEED [--known-defects]

Prints the seconds spent importing `algebroid.cli` (which builds the
catalog) into an interpreter that has imported nothing else yet, plus
making and writing the workload's first round of inputs, and then the
median time of five runs of the reference loop (refloop.py) in ns.
run.py starts this several times, one process after another, before it
times any call, and reports the median of the scaled times as `setup_s`.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

t0 = time.perf_counter()
import algebroid.cli  # noqa: E402

import_s = time.perf_counter() - t0

# the benchmark's own modules are imported outside the timed spans
import shutil  # noqa: E402

import refloop  # noqa: E402
from run import WORK, load_json  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv):
    if not os.path.abspath(algebroid.__file__).startswith(SRC + os.sep):
        print(f"algebroid was imported from outside {SRC}", file=sys.stderr)
        return 2
    name, seed = argv[0], int(argv[1])
    answers = load_json("known_answers.json")
    workdir = WORK / f"setup-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    t1 = time.perf_counter()
    workdir.mkdir(parents=True)
    workload = WORKLOADS[name](algebroid, answers, workdir, seed, "--known-defects" in argv)
    workload.round(0)
    seconds = import_s + time.perf_counter() - t1
    loops = sorted(refloop.loop_ns() for _ in range(5))
    print(seconds, loops[2])
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
