"""Benchmark runner for algebroid.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from its
`src/` directory. One caller makes every call through the in-process
entry point `algebroid.cli.run`, in a closed loop, from this one process.

Set-up (importing `algebroid.cli`, which builds the catalog, then making
and writing the first round of inputs) is timed in several fresh
processes, one after another, before any call is timed; the median is
reported. The run then measures the whole number of cycles of rounds of
calls closest to `--seconds` of call time (untraced: at least 100
calls, and call time scaled to the reference speed), and checks
every output against the known answers (known_answers.json) and, for
recorded seeds, against the sha256 digests of the outputs at the
baseline commit (digests.json). Times are scaled to a reference machine
speed, measured by a fixed loop run between calls (refloop.py); the
readable report also gives them as measured.

With `--trace 0` the last line of output is a JSON object with the
end-to-end metrics; with `--trace 1` each round is run once untraced and
once traced, and the JSON object holds the per-layer metrics. Earlier
lines give a readable report with the sample count of every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refloop
from tracer import PACKAGE, ImportTimer, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 7
# untraced runs make enough calls that ten lie beyond the 90th percentile
MIN_CALLS = 100


class SetupError(RuntimeError):
    pass


def load_program(import_timer=None):
    """Import `algebroid.cli` afresh from the checkout's `src/`."""
    src = ROOT / "src"
    if not (src / PACKAGE / "cli.py").is_file():
        raise SetupError(f"no {PACKAGE} sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    with import_timer or contextlib.nullcontext():
        importlib.import_module(PACKAGE + ".cli")
    package = sys.modules[PACKAGE]
    if not Path(package.__file__).resolve().is_relative_to(src):
        raise SetupError(f"{PACKAGE} was imported from outside {src}")
    return package


def invoke(package, argv):
    """One call through `cli.run`; returns (exit code, stdout, stderr, ns)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter_ns()
    rc = package.cli.run(argv, out, err)
    t1 = time.perf_counter_ns()
    return rc, out.getvalue(), err.getvalue(), t1 - t0


def digest(rc: int, out: str, err: str) -> str:
    return hashlib.sha256(f"{rc}\n{out}\n{err}".encode("utf-8")).hexdigest()[:12]


def load_json(name: str) -> dict:
    with open(HERE / name, encoding="utf-8") as fh:
        return json.load(fh)


def setup_times(workload_cls, seed, known_defects):
    """Time SETUP_REPEATS set-ups, each in a fresh process (setup_child.py),
    one after another; returns their times in seconds, scaled to the
    reference speed, and as measured."""
    argv = [sys.executable, str(HERE / "setup_child.py"), workload_cls.name, str(seed)]
    if known_defects:
        argv.append("--known-defects")
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        if child.returncode != 0:
            raise SetupError(f"set-up process exited {child.returncode}: "
                             f"{child.stderr.strip()[-500:]}")
        seconds, loop_ns = child.stdout.split()
        raw.append(float(seconds))
        scaled.append(float(seconds) * refloop.REFERENCE_NS / int(loop_ns))
    return scaled, raw


def setup(workload_cls, seed, known_defects, import_timer=None):
    """Set up once in this process; returns the program, workload and
    first round of calls."""
    answers = load_json("known_answers.json")
    workdir = WORK / workload_cls.name
    shutil.rmtree(workdir, ignore_errors=True)
    package = load_program(import_timer)
    workdir.mkdir(parents=True)
    workload = workload_cls(package, answers, workdir, seed, known_defects)
    return package, workload, workload.round(0)


class Results:
    def __init__(self, expected_digests):
        self.expected = expected_digests or {}
        self.attempted = 0
        self.failures = []
        self.raw = []  # call times in ns
        self.latencies = []  # the same, scaled to the reference speed

    def record(self, round_index, position, call, rc, out, err, reason=None):
        self.attempted += 1
        if reason is None:
            try:
                reason = call.check(rc, out, err)
            except Exception as exc:  # noqa: BLE001 - a malformed output fails the call
                reason = f"check raised {type(exc).__name__}: {exc}"
        want = self.expected.get(str(round_index))
        if reason is None and want is not None and position < len(want):
            if digest(rc, out, err) != want[position]:
                reason = "output bytes differ from the recorded digest"
        if reason is not None:
            self.failures.append(f"{call.label}: {reason} ({' '.join(call.argv)})")


def run_round(package, index, calls, results, tracer=None):
    """Make one round of calls. Untraced, each call's time is recorded,
    raw and scaled to the reference speed (refloop.py). With a tracer,
    each call runs once untraced and once traced; returns the untraced
    and traced call time."""
    plain_ns = traced_ns = 0
    before = refloop.loop_ns() if tracer is None else 0
    for position, call in enumerate(calls):
        rc, out, err, ns = invoke(package, call.argv)
        if tracer is None:
            after = refloop.loop_ns()
            results.raw.append(ns)
            results.latencies.append(refloop.scaled(ns, before, after))
            before = after
            results.record(index, position, call, rc, out, err)
            continue
        plain_ns += ns
        tracer.begin_call(tracer.call_id + 1)
        try:
            traced = invoke(package, call.argv)
        finally:
            tracer.end_call()
        traced_ns += traced[3]
        same = traced[:3] == (rc, out, err)
        results.record(index, position, call, rc, out, err,
                       None if same else "traced output differs from untraced")
    return plain_ns, traced_ns


def run_rounds(package, workload, calls, seconds, results, tracer=None, min_calls=0):
    """Measure the whole number of cycles of rounds that best fills
    `seconds`, and at least `min_calls` calls; returns the untraced and
    traced call time, and the number of rounds. Untraced, the clock is
    the call time scaled to the reference speed, so that the calls a run
    makes do not depend on how fast the machine happens to be."""
    plain_ns = traced_ns = 0
    start = time.perf_counter()
    index = 0
    while True:
        plain, traced = run_round(package, index, calls, results, tracer)
        plain_ns += plain
        traced_ns += traced
        index += 1
        if index % workload.CYCLE == 0:
            # stop at the whole number of cycles nearest to `seconds`
            if tracer is None:
                elapsed = sum(results.latencies) / 1e9
            else:
                elapsed = time.perf_counter() - start
            cycles = index // workload.CYCLE
            if results.attempted >= min_calls and elapsed + elapsed / cycles / 2 >= seconds:
                return plain_ns, traced_ns, index
        calls = workload.round(index)


def _timings(ns):
    """p50 and p90 in ms, and calls per second, of call times in ns."""
    ms = [t / 1e6 for t in ns]
    return statistics.median(ms), statistics.quantiles(ms, n=10)[-1], len(ms) / (sum(ms) / 1e3)


def end_to_end(results, setups):
    n = len(results.latencies)
    p50, p90, rate = _timings(results.latencies)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "latency_ms.p50": (p50, "ms", n),
        "latency_ms.p90": (p90, "ms", n),
        "calls_per_s": (rate, "1/s", n),
        "peak_rss_mb": (rss_kb / 1024, "MB", 1),
        "setup_s": (statistics.median(setups), "s", len(setups)),
    }


def per_layer(tracer, rounds, plain_ns, traced_ns, catalog_s):
    """Per-layer metrics, as totals per round of calls."""
    total, self_time, count = tracer.layer_times()
    c = tracer.counts
    per = 1.0 / rounds
    s = lambda layer: total[layer] / 1e9 * per  # noqa: E731
    metrics = {}

    def put(name, value, unit, layer=None):
        if layer is not None and layer in tracer.absent:
            return
        metrics[name] = (value, unit, rounds)

    fw, ob = "funmodel.find_witness", "structures.op_build"
    put(f"{fw}.s", s(fw), "s", fw)
    put(f"{fw}.calls", count[fw] * per, "count", fw)
    put(f"{fw}.candidates", c[f"{fw}.candidates"] * per, "count", fw)
    put(f"{fw}.hit_ratio", count[fw] / c[f"{fw}.candidates"] if c[f"{fw}.candidates"] else 0.0,
        "ratio", fw)
    distinct = len(tracer.distinct)
    put(f"{ob}.s", s(ob), "s", ob)
    put(f"{ob}.calls", count[ob] * per, "count", ob)
    put(f"{ob}.distinct", distinct * per, "count", ob)
    put(f"{ob}.distinct_ratio", distinct / count[ob] if count[ob] else 0.0, "ratio", ob)
    put(f"{ob}.terms", c[f"{ob}.terms"] * per, "count", ob)
    for layer in ("funmodel.MultiDiffOp.compose", "funmodel.MultiDiffOp.apply",
                  "exactmath.parse_poly", "exactmath.rank", "structures.direct_eval"):
        put(f"{layer}.s", s(layer), "s", layer)
        put(f"{layer}.calls", count[layer] * per, "count", layer)
    for layer in ("funmodel.MultiDiffOp.bind", "exactmath.Poly.mul", "exactmath.Poly.add",
                  "exactmath.Poly.diff_multi", "kvfin.fin_coboundary"):
        put(f"{layer}.calls", c[layer] * per, "count", layer)
    for layer in ("kvfin.cohomology_summary", "kvfin.clan_classify",
                  "kvfin.exactness_witness", "exactmath.solve_linear",
                  "fileformat.parse_document", "fileformat.serialize_document"):
        put(f"{layer}.s", s(layer), "s", layer)
    cs = "kvfin.cohomology_summary"
    rank_inside = tracer.time_inside("exactmath.rank", cs) / 1e9 * per
    put("kvfin.coboundary_build.s", s(cs) - rank_inside, "s", cs)
    put("exactmath.rank.cells", c["exactmath.rank.cells"] * per, "count", "exactmath.rank")
    put("exactmath.rank.nonzeros", c["exactmath.rank.nonzeros"] * per, "count", "exactmath.rank")
    put("fileformat.parse_document.bytes", c["fileformat.parse_document.bytes"] * per, "B",
        "fileformat.parse_document")
    cp = "checkers.check_profile"
    put(f"{cp}.self_s", self_time[cp] / 1e9 * per, "s", cp)
    put("checkers.axioms", c["checkers.axioms"] * per, "count", cp)
    put("checkers.axioms_failed", c["checkers.axioms_failed"] * per, "count", cp)
    put("cli.run.self_s", self_time["cli.run"] / 1e9 * per, "s", "cli.run")
    put("catalog.import_s", catalog_s, "s")
    put("trace.overhead_frac", traced_ns / plain_ns - 1.0, "ratio")
    return metrics


def report(workload, seed, trace, rounds, results, metrics, raw):
    failed = len(results.failures)
    mode = "traced" if trace else "untraced"
    print(f"# {workload} seed {seed} ({mode}): {rounds} rounds, "
          f"{results.attempted} calls attempted, {failed} failed")
    if not trace:
        frac = failed / results.attempted
        print(f"#   {'fail_frac':34s} {frac:14.6g} ratio  (n={results.attempted})")
    for name, (value, unit, n) in metrics.items():
        unscaled = f"  as measured {raw[name]:.6g}" if name in raw else ""
        print(f"#   {name:34s} {value:14.6g} {unit:6s} (n={n}){unscaled}")
    for line in results.failures[:20]:
        print(f"# FAILED {line}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": results.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--known-defects", action="store_true",
        help="also run the calls that hit known defects (files: profiles whose "
        "requirements are missing, which exit 3 where 2 is due)",
    )
    args = parser.parse_args(argv)

    cls = WORKLOADS[args.workload]
    timer = ImportTimer() if args.trace else None
    try:
        package, workload, calls = setup(cls, args.seed, args.known_defects, timer)
        setups = ([], []) if args.trace else setup_times(cls, args.seed, args.known_defects)
    except (SetupError, ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 2
    expected = load_json("digests.json").get(args.workload, {}).get(str(args.seed))
    results = Results(expected)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    try:
        plain_ns, traced_ns, rounds = run_rounds(
            package, workload, calls, args.seconds, results, tracer,
            0 if args.trace else MIN_CALLS,
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
    raw = {}
    if tracer is None:
        metrics = end_to_end(results, setups[0])
        raw = dict(zip(("latency_ms.p50", "latency_ms.p90", "calls_per_s"),
                       _timings(results.raw)))
        raw["setup_s"] = statistics.median(setups[1])
    else:
        catalog_s = timer.self_s.get(PACKAGE + ".catalog", 0.0)
        metrics = per_layer(tracer, rounds, plain_ns, traced_ns, catalog_s)
        tracer.write_spans(WORK / f"spans-{args.workload}-{args.seed}.tsv.gz")
    report(args.workload, args.seed, args.trace, rounds, results, metrics, raw)
    return 0


if __name__ == "__main__":
    sys.exit(main())
