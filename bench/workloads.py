"""The benchmark's workloads and their independent correctness checks.

Each workload builds its protocols and predicate files in ``setup``
(timed as ``setup_s``), runs the program in ``run`` (timed as
``wall_s``), and judges the outcome in ``check`` against the
benchmark's own Python predicates or checked-in expected results, never
against the ``ok`` flags the program reports.  The seed only reorders
the entries of the emitted protocol files and picks the simulation
seeds; every order must give the same answers.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

from popverify import cli, protocols, protofile, semilinear, transforms, verifier
from popverify.multiset import Multiset

HERE = Path(__file__).resolve().parent
EXPECTED_ANALYZE = HERE / "expected_analyze.json"

STABLY_COMPUTES = "stably computes {}"

# ---------------------------------------------------------------------------
# Inputs, rendering and protocol files, independent of the program's code.


def inputs_upto(alphabet, max_n: int) -> list:
    """Every input over ``alphabet`` with 1..max_n agents, as dicts."""
    out = []

    def fill(prefix: dict, rest: list, left: int):
        if not rest:
            if sum(prefix.values()) >= 1:
                out.append({s: n for s, n in prefix.items() if n})
            return
        for n in range(left + 1):
            fill({**prefix, rest[0]: n}, rest[1:], left - n)

    fill({}, sorted(alphabet), max_n)
    return out


def render(counts: dict) -> str:
    """``{a:1, b:2}``: the multiset rendering the program's records use."""
    return "{" + ", ".join(f"{e}:{n}" for e, n in sorted(counts.items()) if n) + "}"


_ORDER_FREE = ("[states]", "[messages]", "[delta]", "[output]")


def shuffle_entries(text: str, rng: random.Random) -> str:
    """Reorder the entries inside the order-free sections of a protocol
    file; the file still describes the same protocol."""
    out: list = []
    entries: list = []
    section = None

    def flush():
        rng.shuffle(entries)
        out.extend(entries)
        entries.clear()

    for line in text.splitlines():
        if not line or line.startswith("["):
            flush()
            if line:
                section = line
            out.append(line)
        elif section in _ORDER_FREE:
            entries.append(line)
        else:
            out.append(line)
    flush()
    return "\n".join(out) + "\n"


def write_protocol(spec, path: Path, rng: random.Random) -> Path:
    path.write_text(shuffle_entries(protofile.emit(spec), rng))
    return path


# ---------------------------------------------------------------------------
# Reference predicates.


def modulo(v: dict, r: int, m: int):
    return lambda x: int(sum(c * x.get(s, 0) for s, c in v.items()) % m == r)


def at_least(v: dict, r: int):
    return lambda x: int(sum(c * x.get(s, 0) for s, c in v.items()) >= r)


def power_of_two(x: dict) -> int:
    n = x.get("a", 0)
    return int(n > 0 and n & (n - 1) == 0)


def one_c_and_more_a(x: dict) -> int:
    return int(x.get("c", 0) == 1 and x.get("a", 0) > x.get("b", 0))


# ---------------------------------------------------------------------------
# Workloads.


class Workload:
    name = ""

    def __init__(self, smoke: bool):
        self.smoke = smoke

    def setup(self, seed: int, workdir: Path, build_span):
        raise NotImplementedError

    def run(self, state):
        raise NotImplementedError

    def check(self, state, outcome) -> tuple:
        """(operations attempted, list of failure descriptions)."""
        raise NotImplementedError


def _check_verdicts(expected: dict, got: list) -> tuple:
    """Compare (input rendering, verdict text, error) triples against the
    reference values of every input that should have been decided."""
    failures = []
    seen = set()
    extra = 0
    for key, text, error in got:
        if key not in expected or key in seen:
            failures.append(f"unexpected verdict for {key}")
            extra += 1
            continue
        seen.add(key)
        want = STABLY_COMPUTES.format(expected[key])
        if error is not None or text != want:
            failures.append(f"mismatch at {key}: expected {want!r}, got {error or text!r}")
    failures.extend(f"no verdict for {key}" for key in expected if key not in seen)
    return len(expected) + extra, failures


def _report_verdicts(report) -> list:
    return [
        (render(dict(e.input.items())), str(e.verdict) if e.verdict else None, e.error)
        for e in report.entries
    ]


class TokenVerify(Workload):
    """Few huge graphs from a huge rule set under send/receive semantics:
    the criterion-5 token-metered simulation, swept under its promise."""

    name = "token-verify"
    PREDICATE = "(and (count c 1) (not (count c 2)) (ge (v (a 1) (b -1)) 1))"

    def setup(self, seed, workdir, build_span):
        with build_span("protocols.build"):
            towers = [
                protocols.build_simple_threshold("c", k, ("a", "b", "c")) for k in (1, 2)
            ]
            avg = protocols.build_threshold_avg(
                protocols.ThresholdParams({"a": 1, "b": -1, "c": 0}, 1)
            )
            src = protocols.product(
                towers + [avg],
                lambda bits: bits[0] and not bits[1] and bits[2],
                name="one_c_and_more_a",
            )
        target, _ = transforms.two_way_to_queued_tokens(src, "c", 2)
        rng = random.Random(seed)
        max_n = 3 if self.smoke else 4
        expected = {
            render(x): one_c_and_more_a(x)
            for x in inputs_upto("abc", max_n)
            if x.get("c", 0) == 1
        }
        return {
            "proto": write_protocol(target, workdir / "tokens.proto", rng),
            "max_n": max_n,
            "expected": expected,
        }

    def run(self, state):
        spec = protofile.parse(state["proto"].read_text())
        psi = semilinear.parse_predicate(self.PREDICATE)
        return verifier.sweep(spec, psi, max_n=state["max_n"], promise=lambda x: x["c"] == 1)

    def check(self, state, report):
        return _check_verdicts(state["expected"], _report_verdicts(report))


class CliSweep(Workload):
    """Many small graphs through ``popverify verify --format records``."""

    name = "cli-sweep"

    # (file stem, builder, predicate file, reference, max n, smoke max n)
    CASES = (
        ("modulo", lambda: protocols.build_modulo(
            protocols.ModuloParams({"a": 1, "b": 2, "c": 3}, 1, 5)),
         "(mod (v (a 1) (b 2) (c 3)) 1 5)", modulo({"a": 1, "b": 2, "c": 3}, 1, 5), 9, 4),
        ("tower", lambda: protocols.build_simple_threshold("a", 4, ("a", "b", "c")),
         "(count a 4)", at_least({"a": 1}, 4), 11, 5),
        ("avg", lambda: protocols.build_threshold_avg(
            protocols.ThresholdParams({"a": 2, "b": -1, "c": 1}, 2)),
         "(ge (v (a 2) (b -1) (c 1)) 2)", at_least({"a": 2, "b": -1, "c": 1}, 2), 10, 4),
        ("detect", lambda: protocols.detect("a", ("a", "b")),
         "(count a 1)", at_least({"a": 1}, 1), 5, 3),
        ("dt-modulo", lambda: protocols.build_delayed_transmission(
            protocols.ModuloParams({"a": 1, "b": 1}, 1, 3)),
         "(mod (v (a 1) (b 1)) 1 3)", modulo({"a": 1, "b": 1}, 1, 3), 5, 3),
    )

    def setup(self, seed, workdir, build_span):
        rng = random.Random(seed)
        with build_span("protocols.build"):
            specs = [build() for _, build, *_ in self.CASES]
        runs = []
        for (stem, _, pred, ref, max_n, smoke_n), spec in zip(self.CASES, specs):
            n = smoke_n if self.smoke else max_n
            pred_path = workdir / f"{stem}.pred"
            pred_path.write_text(pred + "\n")
            argv = [
                "verify",
                "--protocol", str(write_protocol(spec, workdir / f"{stem}.proto", rng)),
                "--predicate", str(pred_path),
                "--max-n", str(n),
                "--format", "records",
            ]
            expected = {render(x): ref(x) for x in inputs_upto(spec.inputs, n)}
            runs.append((stem, argv, expected))
        return runs

    def run(self, runs):
        out = []
        for _, argv, _ in runs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            out.append((code, buf.getvalue()))
        return out

    def check(self, runs, outcome):
        attempted, failures = 0, []
        for (stem, _, expected), (code, text) in zip(runs, outcome):
            got = []
            for line in text.splitlines():
                rec = json.loads(line)
                got.append((rec["input"], rec["verdict"], rec.get("error")))
            n, bad = _check_verdicts(expected, got)
            if code != 0 and not bad:
                bad = [f"{stem}: exit code {code} with every verdict right"] * n
            attempted += n
            failures.extend(f"{stem}: {b}" for b in bad)
        return attempted, failures


class FairSim(Workload):
    """Random fair executions, two seeds per input."""

    name = "fair-sim"

    PROTOCOLS = {
        "parity": lambda: protocols.build_modulo(protocols.ModuloParams({"a": 1}, 1, 2)),
        "avg": lambda: protocols.build_threshold_avg(
            protocols.ThresholdParams({"a": 1, "b": -1}, 1)),
    }
    # (protocol, input, smoke input, reference)
    CASES = (
        ("parity", {"a": 61}, {"a": 11}, modulo({"a": 1}, 1, 2)),
        ("parity", {"a": 80}, {"a": 12}, modulo({"a": 1}, 1, 2)),
        ("avg", {"a": 20, "b": 18}, {"a": 4, "b": 3}, at_least({"a": 1, "b": -1}, 1)),
    )
    RUNS_PER_INPUT = 2

    def setup(self, seed, workdir, build_span):
        rng = random.Random(seed)
        with build_span("protocols.build"):
            specs = {stem: build() for stem, build in self.PROTOCOLS.items()}
        paths = {stem: write_protocol(spec, workdir / f"{stem}.proto", rng)
                 for stem, spec in specs.items()}
        runs = []
        for stem, x, smoke_x, ref in self.CASES:
            x = smoke_x if self.smoke else x
            for _ in range(self.RUNS_PER_INPUT):
                runs.append((paths[stem], x, rng.randrange(2**31), ref(x)))
        return runs

    def run(self, runs):
        specs = {}
        traces = []
        for path, x, seed, _ in runs:
            if path not in specs:
                specs[path] = protofile.parse(path.read_text())
            traces.append(verifier.fair_run(specs[path], Multiset(x), seed=seed))
        return traces

    def check(self, runs, traces):
        failures = []
        for (path, x, seed, want), t in zip(runs, traces):
            if not t.converged or t.output != want:
                got = f"output {t.output}" if t.converged else "no convergence"
                failures.append(f"{path.stem} {render(x)} seed {seed}: expected {want}, got {got}")
        return len(runs), failures


class Analyze(Workload):
    """Minimal unstable configurations: many tiny explores from arbitrary
    configurations plus the minimality loop."""

    name = "analyze"

    # (case, builder, size bound, smoke size bound, transit cap)
    CASES = (
        ("modulo_a1_b2_r1_m5", lambda: protocols.build_modulo(
            protocols.ModuloParams({"a": 1, "b": 2}, 1, 5)), 6, 3, None),
        ("tower_a4_ab", lambda: protocols.build_simple_threshold("a", 4, ("a", "b")),
         7, 4, None),
        ("dt_modulo_1_2", lambda: protocols.build_delayed_transmission(
            protocols.ModuloParams({"a": 1}, 1, 2)), 5, 3, 2),
        ("detect_a_ab", lambda: protocols.detect("a", ("a", "b")), 4, 3, 2),
    )

    def setup(self, seed, workdir, build_span):
        rng = random.Random(seed)
        with build_span("protocols.build"):
            specs = [build() for _, build, *_ in self.CASES]
        expected = load_expected_analyze()
        runs = []
        for (case, _, size, smoke_size, cap), spec in zip(self.CASES, specs):
            size = smoke_size if self.smoke else size
            runs.append((
                case,
                write_protocol(spec, workdir / f"{case}.proto", rng),
                size,
                cap,
                expected[(case, size, cap)],
            ))
        return runs

    def run(self, runs):
        out = []
        for _, path, size, cap, _ in runs:
            spec = protofile.parse(path.read_text())
            out.append(verifier.minimal_unstable(spec, size, transit_cap=cap))
        return out

    def check(self, runs, analyses):
        failures = []
        for (case, _, size, cap, want), got in zip(runs, analyses):
            basis = sorted(render(dict(c.items())) for c in got.minimal)
            if basis != want["minimal"] or got.truncation_k != want["truncation_k"]:
                failures.append(
                    f"{case} size {size} cap {cap}: expected basis {want['minimal']} "
                    f"k={want['truncation_k']}, got {basis} k={got.truncation_k}"
                )
        return len(runs), failures


def load_expected_analyze() -> dict:
    with open(EXPECTED_ANALYZE) as fh:
        rows = json.load(fh)
    return {(r["case"], r["size_bound"], r["transit_cap"]): r for r in rows}


class NegativeControl(Workload):
    """Parity swept against the power-of-two predicate up to n=6: the
    checks must report a mismatch, first at {a:2}."""

    name = "negative-control"

    def setup(self, seed, workdir, build_span):
        with build_span("protocols.build"):
            parity = protocols.build_modulo(protocols.ModuloParams({"a": 1}, 1, 2))
        return parity, {render(x): power_of_two(x) for x in inputs_upto("a", 6)}

    def run(self, state):
        return verifier.sweep(state[0], lambda x: bool(power_of_two(dict(x.items()))), max_n=6)

    def check(self, state, report):
        return _check_verdicts(state[1], _report_verdicts(report))


WORKLOADS = {w.name: w for w in (TokenVerify, CliSweep, FairSim, Analyze, NegativeControl)}
