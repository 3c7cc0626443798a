"""End-to-end acceptance checks, one test per criterion.

Each test prints exactly one "criterion N ...: PASS/FAIL" line directly
to the terminal (bypassing capture) so the run leaves a readable
scorecard next to the usual pytest report.
"""

import random
import sys
from contextlib import contextmanager

import popverify as pv
from helpers import avg_active_value, truncate
from popverify.models import ModelKind, compile_rules, validate_model
from popverify.multiset import Multiset
from popverify.semilinear import And, LinearSet, Modulo, Or, SemilinearSet, Threshold


@contextmanager
def scored(n, label):
    try:
        yield
    except BaseException:
        print(f"criterion {n} ({label}): FAIL", file=sys.__stdout__)
        raise
    print(f"criterion {n} ({label}): PASS", file=sys.__stdout__)


def active_sum(c):
    return sum(n * v for q, n in c.items() if (v := avg_active_value(q)) is not None)


def test_criterion_01_threshold_tower():
    with scored(1, "threshold tower sweeps clean"):
        for k in (1, 2, 3):
            p = pv.build_simple_threshold("a", k, ("a", "b"))
            r = pv.sweep(p, pv.simple_threshold("a", k), max_n=5)
            assert r.clean, r.summary()


def test_criterion_02_modulo_protocol():
    with scored(2, "modulo protocol sweeps clean"):
        parity = pv.build_modulo(pv.Modulo({"a": 1}, 1, 2))
        r = pv.sweep(parity, Modulo({"a": 1}, 1, 2), max_n=6)
        assert r.clean, r.summary()
        p = pv.build_modulo(pv.Modulo({"a": 1, "b": 2}, 0, 3))
        r = pv.sweep(p, Modulo({"a": 1, "b": 2}, 0, 3), max_n=5)
        assert r.clean, r.summary()


def test_criterion_03_averaging_threshold():
    with scored(3, "averaging threshold and active-sum invariant"):
        p = pv.build_threshold_avg(pv.Threshold({"a": 1, "b": -1}, 1))
        r = pv.sweep(p, Threshold({"a": 1, "b": -1}, 1), max_n=5)
        assert r.clean, r.summary()
        traces = 0
        for x in pv.enumerate_inputs(("a", "b"), 5):
            expected_sum = x["a"] - x["b"]
            for seed in range(5):
                trace = pv.fair_run(p, x, seed=seed)
                assert all(active_sum(c) == expected_sum for c in trace.configs), x
                traces += 1
        assert traces >= 100


def test_criterion_04_queued_simulation():
    with scored(4, "queued transmission simulation agrees"):
        sources = [
            pv.build_modulo(pv.Modulo({"a": 1}, 1, 2)),
            pv.build_simple_threshold("a", 2, ("a", "b")),
        ]
        for src in sources:
            target, _ = pv.two_way_to_queued(src)
            for x in pv.enumerate_inputs(src.inputs, 4):
                vs = pv.verdict(src, x)
                vt = pv.verdict(target, x, transit_cap=len(x))
                assert (vs.status, vs.value) == (vt.status, vt.value), (src.name, x)


def test_criterion_05_token_simulation():
    with scored(5, "token-metered simulation agrees under promise"):
        towers = [
            pv.build_simple_threshold("c", 1, ("a", "b", "c")),
            pv.build_simple_threshold("c", 2, ("a", "b", "c")),
        ]
        avg = pv.build_threshold_avg(pv.Threshold({"a": 1, "b": -1, "c": 0}, 1))
        src = pv.product(
            towers + [avg],
            lambda bits: bits[0] and not bits[1] and bits[2],
            name="one_c_and_more_a",
        )
        target, _ = pv.two_way_to_queued_tokens(src, "c", 2)
        assert validate_model(target, ModelKind.DELAYED_TRANSMISSION) == []

        def psi(x):
            return x["c"] == 1 and x["a"] > x["b"]

        for x in pv.enumerate_inputs(("a", "b", "c"), 4):
            if x["c"] != 1:
                continue
            vt = pv.verdict(target, x)
            assert vt.stable and vt.value == int(psi(x)), x


def test_criterion_06_mirror_transforms():
    with scored(6, "mirror transforms preserve verdicts"):
        src = pv.build_simple_threshold("a", 2, ("a", "b"))
        mirrored = pv.io_add_mirrors(src)
        back = pv.io_remove_mirrors(mirrored)
        for x in pv.enumerate_inputs(src.inputs, 4):
            if len(x) < 3:
                continue
            vs = pv.verdict(src, x)
            vm = pv.verdict(mirrored, x)
            vb = pv.verdict(back, x)
            assert vs.stable and vm.stable and vb.stable, x
            assert vs.value == vm.value == vb.value, x


def test_criterion_07_truncation_lemmas():
    with scored(7, "truncation lemma property suites"):
        rng = random.Random(2024)
        elems = list("pqrs")

        def rand_config(max_count=8):
            return Multiset({e: rng.randint(0, max_count) for e in elems})

        # Truncation respects inclusion.
        for _ in range(1000):
            k = rng.randint(1, 4)
            c = rand_config()
            d = c + rand_config(3)
            assert truncate(c, k) <= truncate(d, k)

        # Equal truncates stay equal under addition.
        for _ in range(1000):
            k = rng.randint(1, 4)
            base = {e: rng.randint(0, k) for e in elems}
            c = Multiset(
                {e: n + (rng.randint(0, 5) if n == k else 0) for e, n in base.items()}
            )
            c2 = Multiset(
                {e: n + (rng.randint(0, 5) if n == k else 0) for e, n in base.items()}
            )
            assert truncate(c, k) == truncate(c2, k)
            d = rand_config(4)
            assert truncate(c + d, k) == truncate(c2 + d, k)

        protocols = [
            pv.build_simple_threshold("a", 2, ("a", "b")),
            pv.build_modulo(pv.Modulo({"a": 1}, 1, 2)),
        ]
        for p in protocols:
            analysis = pv.minimal_unstable(p, 4)
            rs = compile_rules(p)

            def label(c):
                return pv.label_stability(pv.explore(rs, rs.encode(c)))[0][0]

            unstable = set(analysis.unstable)
            configs = list(pv.enumerate_configs(p, 4))

            # Unstable configurations are upward closed (within the bound).
            for _ in range(1000):
                c = rng.choice(list(unstable))
                d = rng.choice(configs)
                if c <= d:
                    assert d in unstable, (c, d)

            # Truncating at the empirical constant preserves the label.
            k = analysis.truncation_k
            for _ in range(1000):
                c = rng.choice(configs)
                assert label(c) == label(truncate(c, k)), c


def test_criterion_08_semilinear_engine():
    with scored(8, "semilinear set matches quantifier-free formula"):
        # Set defined by the quantifier-free formula
        #   (x odd and x <= 2y+1) or (x even and y = 2).
        S = SemilinearSet(
            (
                LinearSet(("x", "y"), (1, 0), ((2, 1), (0, 1))),
                LinearSet(("x", "y"), (0, 2), ((2, 0),)),
            )
        )
        formula = Or(
            And(Modulo({"x": 1}, 1, 2), Threshold({"y": 2, "x": -1}, -1)),
            And(
                Modulo({"x": 1}, 0, 2),
                Threshold({"y": 1}, 2),
                Threshold({"y": -1}, -2),
            ),
        )
        member = pv.Member(S)
        ok, cex = pv.brute_equivalent(member, formula, ("x", "y"), 9)
        assert ok, f"disagree at {cex}"

        # Randomized membership against bounded enumeration.
        rng = random.Random(11)
        for _ in range(500):
            dim = rng.randint(1, 3)
            syms = tuple("uvw"[:dim])
            base = tuple(rng.randint(0, 3) for _ in range(dim))
            periods = tuple(
                p
                for p in (
                    tuple(rng.randint(0, 3) for _ in range(dim))
                    for _ in range(rng.randint(0, 3))
                )
                if any(p)
            )
            L = LinearSet(syms, base, periods)
            x = tuple(rng.randint(0, 8) for _ in range(dim))
            assert L.member(x) == _enumeration_member(L, x), (L, x)


def _enumeration_member(L, x):
    import itertools

    res = [a - b for a, b in zip(x, L.base)]
    if any(n < 0 for n in res):
        return False
    bounds = [
        min(r // pi for r, pi in zip(res, p) if pi) for p in L.periods
    ]
    for ks in itertools.product(*(range(b + 1) for b in bounds)):
        if all(
            r == sum(k * p[i] for k, p in zip(ks, L.periods))
            for i, r in enumerate(res)
        ):
            return True
    return False


def test_criterion_09_delayed_observation_ceiling():
    with scored(9, "delayed observation computes presence but not counting"):
        presence = pv.detect("a", ("a", "b"))
        r = pv.sweep(presence, pv.simple_threshold("a", 1), max_n=4)
        assert r.clean, r.summary()

        # Counting to two fails under self-delivery: an agent advances on
        # its own message.
        tower2 = pv.as_delayed_observation(pv.build_simple_threshold("a", 2, ("a", "b")))
        r = pv.sweep(tower2, pv.simple_threshold("a", 2), max_n=4)
        assert r.mismatches, r.summary()
        assert any(e.input == Multiset({"a": 1}) for e in r.mismatches)


def test_criterion_10_local_fairness():
    with scored(10, "set union converges under local fairness"):
        alphabet = ("a", "b", "c")
        union = pv.build_set_union(alphabet)
        for x in pv.enumerate_inputs(alphabet, 5):
            result = pv.local_fair_run(union, x)
            full = frozenset(x.support)
            assert set(result.states) == {full}, x
            assert result.rounds <= len(alphabet), x
            assert result.output == 1


def test_criterion_11_negative_control():
    with scored(11, "mismatch reporting on a non-semilinear predicate"):
        parity = pv.build_modulo(pv.Modulo({"a": 1}, 1, 2))

        def power_of_two(x):
            n = x["a"]
            return n > 0 and n & (n - 1) == 0

        r = pv.sweep(parity, power_of_two, max_n=6)
        assert r.mismatches, r.summary()
        first = r.mismatches[0]
        # The first disagreement between parity and the power-of-two
        # predicate, computed independently of the sweep.
        expected = next(
            n
            for n in range(1, 7)
            if (n % 2 == 1) != power_of_two(Multiset({"a": n}))
        )
        assert expected == 2
        assert first.input == Multiset({"a": expected})
        assert first.expected == 1 and first.verdict.value == 0
        assert "mismatch at {a:2}" in r.summary()
