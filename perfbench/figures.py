"""Traced breakdown of three single calls, to check figures quoted in
ROADMAP.md against the benchmark's tracer.

    python3 perfbench/figures.py

1. `check --catalog courant-standard-3`: time in witness search against
   the whole call.
2. `check --catalog courant-standard-2`: how often the capability matrix
   builds each operator for the one structure.
3. `cohomology --degree 2 --coefficients self` on a dimension-5 algebra:
   coboundary-matrix assembly against exact rank.
"""

from __future__ import annotations

from inputs import kv_bases
from run import WORK, invoke, load_program
from tracer import Tracer


def traced(package, argv):
    tracer = Tracer()
    tracer.install()
    tracer.begin_call(1)
    try:
        rc, _, err, ns = invoke(package, argv)
    finally:
        tracer.end_call()
        tracer.uninstall()
    if rc not in (0, 1):
        raise RuntimeError(f"{argv}: exit {rc}: {err}")
    total, _, count = tracer.layer_times()
    return tracer, total, count, ns / 1e9


def main():
    package = load_program()

    _, total, count, call_s = traced(package, ["check", "--catalog", "courant-standard-3"])
    fw = total["funmodel.find_witness"] / 1e9
    print(f"courant-standard-3 check: {call_s:.2f} s traced, find_witness {fw:.2f} s "
          f"({fw / call_s:.0%}) over {count['funmodel.find_witness']} searches")

    tracer, total, count, call_s = traced(package, ["check", "--catalog", "courant-standard-2"])
    builds = ", ".join(f"{name} x{n}" for name, n in tracer.builds.most_common() if n > 1)
    print(f"courant-standard-2 check: {count['structures.op_build']} operator builds, "
          f"{len(tracer.distinct)} distinct; rebuilt: {builds}")

    A, form = kv_bases(package)["vinberg-83+zero-2"]
    path = WORK / "figures.txt"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(package.fileformat.serialize_kvalgebra(A, form), encoding="utf-8")
    tracer, total, count, call_s = traced(
        package, ["cohomology", str(path), "--degree", "2", "--coefficients", "self"]
    )
    rank = tracer.time_inside("exactmath.rank", "kvfin.cohomology_summary") / 1e9
    build = total["kvfin.cohomology_summary"] / 1e9 - rank
    print(f"d=5 self H^2 (vinberg-83+zero-2): {call_s:.2f} s traced, matrix build "
          f"{build:.2f} s, rank {rank:.2f} s over {count['exactmath.rank']} ranks")


if __name__ == "__main__":
    main()
