"""popverify benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload token-verify --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload negative-control      # must exit 1
    python3 bench/run.py --smoke                          # all workloads, tiny sizes

One client in one process and one thread runs the workload's operations
back to back (a closed loop) in whole iterations that fit in
``--seconds``, at least two.  Every answer is checked against the
benchmark's own reference.  The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a span-traced run with
``--trace 1``.  The exit code is 0 only when every answer is right (and,
traced, every count matches the determinism record).  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
EXPECTED_COUNTS = Path(__file__).resolve().parent / "expected_counts.json"

# A run times at least this many untraced iterations, so that wall_s
# never rests on one sample.
MIN_ITERATIONS = 2
# Set-up runs SETUP_MIN_REPS times before the first iteration, then
# again before every iteration until SETUP_ROUND_SECONDS of it have
# passed (at most SETUP_MAX_REPS times a round).  setup_s is the median
# over all of them, so that it samples the whole run, as wall_s does,
# and a set-up of a millisecond still reads steadily.
SETUP_MIN_REPS = 5
SETUP_ROUND_SECONDS = 0.1
SETUP_MAX_REPS = 200

# Per-layer metrics read off the spans of one traced iteration, as
# (layer, quantity, unit).  ``self_s`` excludes child spans.
ITERATION_METRICS = (
    ("models.compile_rules", "calls", "count"),
    ("models.compile_rules", "self_s", "s"),
    ("models.compile_rules", "rules", "count"),
    ("verifier.explore", "calls", "count"),
    ("verifier.explore", "self_s", "s"),
    ("verifier.explore", "nodes", "count"),
    ("verifier.explore", "edges", "count"),
    ("verifier.explore", "max_nodes", "count"),
    ("verifier.label_stability", "self_s", "s"),
    ("verifier.verdict", "calls", "count"),
    ("verifier.verdict", "self_s", "s"),
    ("verifier.sweep", "self_s", "s"),
    ("verifier.sweep", "inputs", "count"),
    ("verifier.sweep", "budget_failures", "count"),
    ("verifier.fair_run", "self_s", "s"),
    ("verifier.fair_run", "steps", "count"),
    ("verifier.minimal_unstable", "self_s", "s"),
    ("verifier.minimal_unstable", "unstable", "count"),
    ("verifier.minimal_unstable", "minimal", "count"),
    ("protofile.parse", "self_s", "s"),
    ("semilinear.parse_predicate", "self_s", "s"),
    ("cli.main", "self_s", "s"),
)
# (metric, unit, layer, numerator, denominator) with the rate taken over
# the layer's own time.
RATE_METRICS = (
    ("verifier.explore.nodes_per_s", "1/s", "verifier.explore", "nodes", "self_s"),
    ("verifier.explore.edges_per_s", "1/s", "verifier.explore", "edges", "self_s"),
    ("verifier.fair_run.steps_per_s", "1/s", "verifier.fair_run", "steps", "self_s"),
    ("protofile.parse.bytes_per_s", "B/s", "protofile.parse", "bytes", "self_s"),
)
# Layers timed during set-up, read off the spans of each set-up run.
SETUP_METRICS = (
    ("protofile.emit", "self_s", "s"),
    ("transforms.two_way_to_queued_tokens", "self_s", "s"),
    ("protocols.build", "self_s", "s"),
)
# Counts that must repeat exactly, besides the ``count`` metrics above.
EXTRA_COUNTS = (("protofile.parse", "states"),)


def import_program() -> None:
    """Put the checkout's ``src`` first on the path; the benchmark never
    measures an installed copy."""
    if not (SRC / "popverify" / "__init__.py").is_file():
        sys.exit(f"error: no popverify sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import popverify

    if Path(popverify.__file__).resolve().parent != SRC / "popverify":
        sys.exit(f"error: imported popverify from {popverify.__file__}, not {SRC}")


@contextlib.contextmanager
def _phase(rec, name: str):
    """Run a block untraced, or traced below a root span ``name``."""
    if rec is None:
        yield
        return
    with rec.installed(), rec.span(name):
        yield


def _no_span(name: str):
    return contextlib.nullcontext()


def measure(wl, seed: int, seconds: float, rec, workdir: Path) -> dict:
    """Run whole iterations of the workload for as long as the next one
    is expected to end within ``seconds`` (at least MIN_ITERATIONS),
    setting up before each.  With a recorder, iterations alternate untraced and
    traced, so that the tracing overhead is measured in the same run."""
    build_span = rec.span if rec is not None else _no_span
    setup_s: list = []

    def set_up(min_reps: int):
        spent, reps = 0.0, 0
        while reps < min_reps or (spent < SETUP_ROUND_SECONDS and reps < SETUP_MAX_REPS):
            with _phase(rec, "bench.setup"):
                t0 = time.perf_counter()
                state = wl.setup(seed, workdir, build_span)
                setup_s.append(time.perf_counter() - t0)
            spent += setup_s[-1]
            reps += 1
        return state

    walls: dict = {False: [], True: []}
    attempted, failures = 0, []
    traced = False
    start = time.perf_counter()
    state = set_up(SETUP_MIN_REPS)
    while True:
        gc.collect()
        with _phase(rec if traced else None, "bench.iteration"):
            t0 = time.perf_counter()
            try:
                outcome = wl.run(state)
            except Exception as exc:  # a raising operation is a failed one
                traceback.print_exc()
                walls[traced].append(time.perf_counter() - t0)
                attempted += 1
                failures.append(f"{wl.name} raised {exc!r}")
                break
            walls[traced].append(time.perf_counter() - t0)
        n, bad = wl.check(state, outcome)
        attempted += n
        failures.extend(bad)
        del outcome
        last = walls[traced][-1]
        traced = rec is not None and not traced
        # Stop before an iteration that would end past ``seconds``, once
        # there are MIN_ITERATIONS untraced ones (or, traced, one of each).
        enough = walls[True] if rec is not None else len(walls[False]) >= MIN_ITERATIONS
        if enough and time.perf_counter() - start + last > seconds:
            break
        state = set_up(1)
    return {"setup_s": setup_s, "walls": walls, "attempted": attempted, "failures": failures}


def end_to_end(m: dict) -> dict:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "wall_s": (statistics.median(m["walls"][False]), "s"),
        "setup_s": (statistics.median(m["setup_s"]), "s"),
        "peak_rss_mb": (rss, "MB"),
    }


def _quantity(layers: dict, layer: str, key: str):
    return layers[layer][key] if layer in layers else 0


def _counts(layers: dict) -> dict:
    keys = [(l, q) for l, q, unit in ITERATION_METRICS if unit == "count"]
    return {f"{l}.{q}": int(_quantity(layers, l, q)) for l, q in keys + list(EXTRA_COUNTS)}


def _recorded(rec, root: int, key: str):
    """A determinism-record entry: ``layer.count`` over the iteration, or
    ``layer.count@input`` inside the verdict for that input."""
    if "@" not in key:
        layer, count = key.rsplit(".", 1)
        return int(_quantity(rec.layers(root), layer, count))
    metric, at = key.split("@", 1)
    layer, count = metric.rsplit(".", 1)
    found = [c.get(count) for p, c in rec.children_attrs(root, "verifier.verdict", layer)
             if p.get("input") == at]
    return found[0] if len(found) == 1 else found


def per_layer(rec, m: dict, record: dict) -> tuple:
    """(metrics, determinism failures) from the spans of the traced run."""
    iterations = rec.roots("bench.iteration")
    per_iter = [rec.layers(root) for root in iterations]
    out = {}
    for layer, q, unit in ITERATION_METRICS:
        values = [_quantity(layers, layer, q) for layers in per_iter]
        value = statistics.median(values)
        out[f"{layer}.{q}"] = (int(value) if unit == "count" else value, unit)
    for name, unit, layer, num, den in RATE_METRICS:
        values = [
            _quantity(layers, layer, num) / _quantity(layers, layer, den)
            if _quantity(layers, layer, den) else 0.0
            for layers in per_iter
        ]
        out[name] = (statistics.median(values), unit)
    setups = [rec.layers(root) for root in rec.roots("bench.setup")]
    for layer, q, unit in SETUP_METRICS:
        out[f"{layer}.{q}"] = (statistics.median(_quantity(l, layer, q) for l in setups), unit)
    traced, plain = statistics.median(m["walls"][True]), statistics.median(m["walls"][False])
    out["trace.overhead"] = (traced / plain - 1, "ratio")

    problems = []
    counts = [_counts(layers) for layers in per_iter]
    for later in counts[1:]:
        diff = {k: (counts[0][k], v) for k, v in later.items() if v != counts[0][k]}
        if diff:
            problems.append(f"counts differ between iterations: {diff}")
    for key, want in record.items():
        got = _recorded(rec, iterations[0], key)
        if got != want:
            problems.append(f"determinism record: {key} is {got}, expected {want}")
    return out, problems


def _report(metrics: dict, out=sys.stderr) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:14.6g} {unit}", file=out)


def run_one(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> tuple:
    """(result object, failure messages) for one workload run."""
    import spans
    import workloads

    wl = workloads.WORKLOADS[name](smoke=smoke)
    rec = spans.Recorder() if trace else None
    if rec is None:
        spans.resolve_targets()
    record = {} if smoke or not trace else _load(EXPECTED_COUNTS).get(name, {})
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{name}-") as tmp:
        m = measure(wl, seed, seconds, rec, Path(tmp))
    failures = list(m["failures"])
    if rec is None:
        metrics = end_to_end(m)
        problems = []
    else:
        metrics, problems = per_layer(rec, m, record)
        rec.write(OUT / f"trace-{name}-seed{seed}.json")
    print(f"{name}: seed {seed}, {'traced' if trace else 'untraced'}, iterations "
          f"{len(m['walls'][False])} untraced + {len(m['walls'][True])} traced, "
          f"set-up {len(m['setup_s'])}x", file=sys.stderr)
    for traced, walls in m["walls"].items():
        if walls:
            print(f"  {'traced' if traced else 'untraced'} iteration seconds: "
                  + " ".join(f"{w:.3f}" for w in walls), file=sys.stderr)
    _report(metrics)
    for line in (failures + problems)[:20]:
        print(f"  FAIL {line}", file=sys.stderr)
    result = {
        "correct": not failures and not problems,
        "attempted": m["attempted"],
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, failures + problems


def _load(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def smoke() -> int:
    """Every workload at tiny sizes, untraced and traced, plus the
    negative control, which must fail first at {a:2}."""
    ok = True
    for name in ("token-verify", "cli-sweep", "fair-sim", "analyze"):
        for trace in (False, True):
            result, _ = run_one(name, seed=0, seconds=0, trace=trace, smoke=True)
            ok &= result["correct"]
    result, failures = run_one("negative-control", seed=0, seconds=0, trace=False, smoke=True)
    control = bool(failures) and failures[0].startswith("mismatch at {a:2}:")
    print(f"negative control {'reports' if control else 'MISSES'} its mismatch at {{a:2}}",
          file=sys.stderr)
    print("smoke: " + ("pass" if ok and control else "FAIL"))
    return 0 if ok and control else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=["token-verify", "cli-sweep", "fair-sim", "analyze",
                                           "negative-control"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload once at tiny sizes, then the negative control")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    import_program()
    if args.smoke:
        return smoke()
    result, _ = run_one(args.workload, args.seed, args.seconds, bool(args.trace), False)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
