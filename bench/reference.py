"""Naive reference for the analyze workload, and the expected file it checks.

A configuration is unstable iff some configuration reachable from it
(itself included) has a different or undefined output.  Reachability is
a plain breadth-first search that applies ``RuleSet.rules`` one at a
time under the same transit cap; it shares no code with
``verifier.explore`` or ``verifier.label_stability``.

    python3 bench/reference.py           # check expected_analyze.json
    python3 bench/reference.py --write   # (re)create it

Either way the program's ``minimal_unstable`` must agree with the
reference before anything is written.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import deque
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _rules(ruleset) -> list:
    return [(dict(lhs.items()), dict(rhs.items())) for lhs, rhs in ruleset.rules]


def _apply(c: dict, lhs: dict, rhs: dict):
    if any(c.get(e, 0) < n for e, n in lhs.items()):
        return None
    out = dict(c)
    for e, n in lhs.items():
        out[e] -= n
    for e, n in rhs.items():
        out[e] = out.get(e, 0) + n
    return {e: n for e, n in out.items() if n}


def _output(c: dict, output: dict):
    bits = {output[e] for e in c if e in output}
    return bits.pop() if len(bits) == 1 else None


def is_unstable(c: dict, rules: list, output: dict, messages, cap) -> bool:
    b = _output(c, output)
    if b is None:
        return True
    seen = {tuple(sorted(c.items()))}
    queue = deque([c])
    while queue:
        for lhs, rhs in rules:
            d = _apply(queue[0], lhs, rhs)
            if d is None or (cap is not None and any(d.get(m, 0) > cap for m in messages)):
                continue
            key = tuple(sorted(d.items()))
            if key in seen:
                continue
            if _output(d, output) != b:
                return True
            seen.add(key)
            queue.append(d)
        queue.popleft()
    return False


def configurations(states, messages, size_bound: int) -> list:
    """Every configuration with 1..size_bound elements and at least one
    agent state."""
    from workloads import inputs_upto

    return [c for c in inputs_upto(sorted(states) + sorted(messages), size_bound)
            if any(e in states for e in c)]


def minimal_unstable(spec, ruleset, size_bound: int, cap) -> dict:
    from workloads import render

    output = {q: spec.output[q] for q in spec.states}
    rules = _rules(ruleset)
    unstable = [c for c in configurations(spec.states, spec.messages, size_bound)
                if is_unstable(c, rules, output, spec.messages, cap)]

    def below(d, c):
        return d != c and all(c.get(e, 0) >= n for e, n in d.items())

    minimal = [c for c in unstable if not any(below(d, c) for d in unstable)]
    k = max((n for c in minimal for n in c.values()), default=1)
    return {"minimal": sorted(render(c) for c in minimal), "truncation_k": max(k, 1)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="naive reference for the analyze workload")
    ap.add_argument("--write", action="store_true", help="(re)create expected_analyze.json")
    args = ap.parse_args(argv)

    import run

    run.import_program()
    import workloads
    from popverify import models, verifier

    rows, ok = [], True
    for case, build, size, smoke_size, cap in workloads.Analyze.CASES:
        spec = build()
        for bound in (smoke_size, size):
            ref = minimal_unstable(spec, models.compile_rules(spec), bound, cap)
            got = verifier.minimal_unstable(spec, bound, transit_cap=cap)
            basis = sorted(workloads.render(dict(c.items())) for c in got.minimal)
            agree = basis == ref["minimal"] and got.truncation_k == ref["truncation_k"]
            ok &= agree
            print(f"{case} size {bound} cap {cap}: {len(ref['minimal'])} minimal, "
                  f"k={ref['truncation_k']}, program {'agrees' if agree else 'DISAGREES'}")
            rows.append({"case": case, "size_bound": bound, "transit_cap": cap, **ref})
    if not ok:
        return 1
    if args.write:
        with open(workloads.EXPECTED_ANALYZE, "w") as fh:
            json.dump(rows, fh, indent=1)
            fh.write("\n")
        return 0
    expected = workloads.load_expected_analyze()
    stale = [r["case"] for r in rows
             if expected.get((r["case"], r["size_bound"], r["transit_cap"])) != r]
    print("expected_analyze.json " + ("matches" if not stale else f"differs for {stale}"))
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
