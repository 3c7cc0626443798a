"""The golden corpus: outputs that a refactor must leave unchanged.

``write_protocols`` writes the protocol files, through the command line
wherever it has a subcommand.  ``GENERATORS`` regenerate each group of
outputs from them, and the test compares each group with the values
stored in ``tests/golden/<group>.json``:

- ``build``: the SHA-256 of each protocol file that CI builds or
  transforms, plus ``detect``, a product, the cycle and split protocols
  and two abstract specs, and the SHA-256 of the rendered
  ``RuleSet.rules`` of each, which pins the order of the rules as well
  as their contents
- ``verify``: exit code and ``--format records`` output of CI's three
  ``verify`` runs and of one failing input of each kind, so witnesses
  are pinned
- ``simulate``: exit code, length, last line and SHA-256 of the stdout
  of seeds 0-9 on fixed inputs
- ``analyze``: exit code and output of the four benchmark analyze cases
  at their benchmark sizes

A change that is meant to alter one of these outputs re-records the
corpus with ``PYTHONPATH=src python tests/golden/record.py`` and names
each changed entry and its reason in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

import popverify as pv
from popverify import protofile
from popverify.cli import main
from popverify.models import compile_rules
from test_cli import SPLIT
from test_verifier import cycle

GOLDEN = Path(__file__).parent / "golden"

WIDE = ",".join(f"s{i}" for i in range(1200))

# File stem -> the command line that writes it, as CI runs them, and the
# protocol files of the analyze cases.
BUILDS = {
    "threshold": ["build", "threshold", "--sigma", "a", "--k", "3", "--alphabet", "a,b"],
    "modulo": ["build", "modulo", "--coeffs", "a=1,b=2", "--r", "1", "--m", "3"],
    "avg": ["build", "avg-threshold", "--coeffs", "a=1,b=-1", "--r", "1"],
    "dt": ["build", "delayed-modulo", "--coeffs", "a=1,b=1", "--r", "1", "--m", "3"],
    "delayed-threshold": [
        "build", "delayed-threshold", "--sigma", "a", "--k", "2", "--alphabet", "a,b"
    ],
    "presence": ["build", "presence", "--sigma", "b", "--alphabet", "a,b"],
    "parity": ["build", "modulo", "--coeffs", "a=1", "--r", "1", "--m", "2"],
    "tower": ["build", "threshold", "--sigma", "a", "--k", "2", "--alphabet", "a,b"],
    "wide": ["build", "threshold", "--sigma", "s0", "--k", "1", "--alphabet", WIDE],
    "queued": ["transform", "--kind", "queued", "--in", "avg"],
    "tokens": ["transform", "--kind", "tokens", "--sigma-tok", "b", "--k", "2", "--in", "avg"],
    "mirrored": ["transform", "--kind", "mirrors", "--in", "tower"],
    "unmirrored": ["transform", "--kind", "unmirrors", "--in", "mirrored"],
    "modulo_a1_b2_r1_m5": ["build", "modulo", "--coeffs", "a=1,b=2", "--r", "1", "--m", "5"],
    "tower_a4_ab": ["build", "threshold", "--sigma", "a", "--k", "4", "--alphabet", "a,b"],
    "dt_modulo_1_2": ["build", "delayed-modulo", "--coeffs", "a=1", "--r", "1", "--m", "2"],
    "detect_a_ab": ["build", "presence", "--sigma", "a", "--alphabet", "a,b"],
}

# An empty LHS, and a three-element LHS with a repeated, a no-op and a
# second distinct rule, in an order that sorting would change.
SPAWN = """[model]
kind abstract
[states]
x y
[inputs]
x
[delta]
rule {y:1} -> {x:1}
rule {} -> {y:1}
rule {} -> {}
rule {} -> {x:1, y:1}
[output]
x -> 0
y -> 1
"""
TRIPLE = """[model]
kind abstract
[states]
x y z
[inputs]
x y
[delta]
rule {x:2, y:1} -> {z:3}
rule {x:1} -> {y:1}
rule {x:2, y:1} -> {x:2, y:1}
rule {x:2, y:1} -> {y:1, z:1}
rule {x:2, y:1} -> {z:3}
rule {x:1, z:1} -> {y:2}
[output]
x -> 0
y -> 0
z -> 1
"""


def library_specs() -> dict:
    """Protocols without a ``build`` subcommand, by file stem."""
    towers = [pv.build_simple_threshold("c", k, ("a", "b", "c")) for k in (1, 2)]
    avg = pv.build_threshold_avg(pv.Threshold({"a": 1, "b": -1, "c": 0}, 1))
    return {
        "detect": pv.detect("a", ("a", "b")),
        "product": pv.product(
            towers + [avg], lambda bits: bits[0] and not bits[1] and bits[2], name="one_c"
        ),
        "cycle": cycle(),
        "split": protofile.parse(SPLIT),
        "spawn": protofile.parse(SPAWN),
        "triple": protofile.parse(TRIPLE),
    }


PREDICATES = {
    "parity": "(mod (v (a 1)) 1 2)",
    "avg": "(ge (v (a 1) (b -1)) 1)",
    "dt": "(mod (v (a 1) (b 1)) 1 3)",
    "split": "(count a 1)",
    "cycle": "(count a 1)",
    "tower3": "(count a 3)",
}

# Record name -> (protocol stem, predicate stem, max n, extra options).
# The first three are CI's runs; then one failing input of each kind.
VERIFY = {
    "parity": ("parity", "parity", 4, []),
    "tokens": ("tokens", "avg", 3, []),
    "dt": ("dt", "dt", 4, []),
    "not-well-specified": ("split", "split", 2, []),
    "diverges": ("cycle", "cycle", 2, []),
    "budget-exceeded": ("threshold", "tower3", 4, ["--budget", "2"]),
}

# Case name -> (protocol stem, input, extra options); each runs seeds 0-9.
SIMULATE = {
    "parity-61": ("parity", "{a:61}", []),
    "parity-80": ("parity", "{a:80}", []),
    "avg-20-18": ("avg", "{a:20,b:18}", []),
    "tower3-3": ("threshold", "{a:3}", []),
    "dt-2-2": ("dt", "{a:2,b:2}", []),
    "dt-2-2-cap2": ("dt", "{a:2,b:2}", ["--transit-cap", "2"]),
    "dt-2-2-cap1": ("dt", "{a:2,b:2}", ["--transit-cap", "1"]),
    "cycle-40": ("cycle", "{a:40}", []),
}

# The benchmark's analyze cases: (protocol stem, size bound, transit cap).
ANALYZE = {
    "modulo_a1_b2_r1_m5": ("modulo_a1_b2_r1_m5", 6, None),
    "tower_a4_ab": ("tower_a4_ab", 7, None),
    "dt_modulo_1_2": ("dt_modulo_1_2", 5, 2),
    "detect_a_ab": ("detect_a_ab", 4, 2),
}


def run(*argv) -> tuple:
    """Exit code and stdout of the command line; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([str(a) for a in argv])
    return code, out.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def write_protocols(workdir: Path) -> dict:
    """Write every protocol file into ``workdir``; stem -> path."""
    paths = {}
    for stem, argv in BUILDS.items():
        if argv[0] == "transform":
            i = argv.index("--in") + 1
            argv = argv[:i] + [paths[argv[i]]] + argv[i + 1 :]
        paths[stem] = workdir / f"{stem}.proto"
        code, _ = run(*argv, "--out", paths[stem])
        assert code == 0, argv
    for stem, spec in library_specs().items():
        paths[stem] = workdir / f"{stem}.proto"
        paths[stem].write_text(protofile.emit(spec))
    for stem, text in PREDICATES.items():
        paths[stem + ".pred"] = workdir / f"{stem}.pred"
        paths[stem + ".pred"].write_text(text + "\n")
    return paths


def build_group(paths: dict) -> dict:
    out = {}
    for stem, path in paths.items():
        if stem.endswith(".pred"):
            continue
        text = path.read_text()
        rules = compile_rules(protofile.parse(text)).rules
        out[stem] = {
            "emit": sha256(text),
            "rules": sha256("".join(f"{lhs} -> {rhs}\n" for lhs, rhs in rules)),
        }
    return out


def verify_group(paths: dict) -> dict:
    out = {}
    for name, (proto, pred, max_n, extra) in VERIFY.items():
        code, text = run(
            "verify", "--protocol", paths[proto], "--predicate", paths[pred + ".pred"],
            "--max-n", max_n, "--format", "records", *extra,
        )
        out[name] = {"exit": code, "records": [json.loads(line) for line in text.splitlines()]}
    return out


def simulate_group(paths: dict) -> dict:
    out = {}
    for name, (proto, x, extra) in SIMULATE.items():
        for seed in range(10):
            code, text = run(
                "simulate", "--protocol", paths[proto], "--input", x, "--seed", seed, *extra
            )
            lines = text.splitlines()
            out[f"{name}/seed{seed}"] = {
                "exit": code,
                "lines": len(lines),
                "last": lines[-1],
                "sha256": sha256(text),
            }
    return out


def analyze_group(paths: dict) -> dict:
    out = {}
    for name, (proto, size, cap) in ANALYZE.items():
        extra = [] if cap is None else ["--transit-cap", cap]
        code, text = run("analyze", "--protocol", paths[proto], "--size-bound", size, *extra)
        out[name] = {"exit": code, "output": text.splitlines()}
    return out


GENERATORS = {
    "build": build_group,
    "verify": verify_group,
    "simulate": simulate_group,
    "analyze": analyze_group,
}


def load(group: str) -> dict:
    return json.loads((GOLDEN / f"{group}.json").read_text())


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    return write_protocols(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("group", GENERATORS)
def test_outputs_match_the_golden_corpus(group, paths):
    got, want = GENERATORS[group](paths), load(group)
    assert sorted(got) == sorted(want)
    changed = [name for name in want if got[name] != want[name]]
    assert not changed, {name: (want[name], got[name]) for name in changed}
