import dataclasses
import itertools

import pytest

import popverify as pv
from helpers import avg_active_value
from popverify import protofile
from popverify.models import ModelKind, compile_rules, initial_config, validate_model
from popverify.multiset import Multiset
from popverify.protocols import AlphabetMismatch, KindMismatch


def test_threshold_params_validate():
    with pytest.raises(ValueError):
        pv.Modulo({"a": 1}, 0, 0)
    assert pv.Modulo({"a": 1}, 5, 3).r == 2
    with pytest.raises(ValueError):
        pv.build_threshold_avg(pv.Threshold({"a": 1}, -1))
    with pytest.raises(ValueError):
        pv.build_delayed_transmission(pv.simple_threshold("a", 0), ("a",))


def test_threshold_avg_rejects_empty_coefficients():
    with pytest.raises(ValueError, match="coefficient vector"):
        pv.build_threshold_avg(pv.Threshold({}, 0))


def test_delayed_transmission_rejects_non_simple_threshold():
    for pred in (pv.Threshold({"a": 2}, 1), pv.Threshold({"a": 1, "b": 1}, 1)):
        with pytest.raises(ValueError):
            pv.build_delayed_transmission(pred, ("a", "b"))


def test_tower_shape():
    p = pv.build_simple_threshold("a", 2, ("a", "b"))
    assert p.kind is ModelKind.IMMEDIATE_OBSERVATION
    assert validate_model(p) == []
    assert p.states == frozenset({"0", "1", "2"})
    assert p.iota == {"a": "1", "b": "0"}
    # Top level floods, the frozen bottom never moves.
    assert p.delta[("2", "0")] == ("2", "2")
    assert p.delta[("1", "1")] == ("1", "2")
    assert p.delta[("0", "1")] == ("0", "1")
    with pytest.raises(ValueError):
        pv.build_simple_threshold("z", 2, ("a",))


def test_tower_verdicts():
    p = pv.build_simple_threshold("a", 3, ("a", "b"))
    assert pv.verdict(p, Multiset({"a": 3})).value == 1
    assert pv.verdict(p, Multiset({"a": 2, "b": 2})).value == 0


def test_modulo_is_immediate_transmission():
    p = pv.build_modulo(pv.Modulo({"a": 1, "b": 2}, 0, 3))
    assert p.kind is ModelKind.IMMEDIATE_TRANSMISSION
    assert validate_model(p) == []
    for x, want in [({"a": 3}, 1), ({"a": 1, "b": 1}, 1), ({"a": 2, "b": 1}, 0)]:
        assert pv.verdict(p, Multiset(x)).value == want, x


def reference_modulo(pred):
    """The active/passive modulo protocol written out case by case, as
    ``build_modulo`` once built it."""
    v, r, m = dict(pred.v), pred.r, pred.m
    out = lambda d: int(d % m == r)
    states = [f"A{d}" for d in range(m)] + ["P0", "P1"]
    delta = {}
    for q1 in states:
        for q2 in states:
            u = avg_active_value(q1)
            if u is None:
                delta[(q1, q2)] = (q1, q2)
                continue
            w = avg_active_value(q2)
            if w is None:
                delta[(q1, q2)] = (f"P{out(u)}", f"A{u}")
            else:
                delta[(q1, q2)] = (f"P{out(u)}", f"A{(u + w) % m}")
    output = {f"A{d}": out(d) for d in range(m)}
    output.update({"P0": 0, "P1": 1})
    return pv.ProtocolSpec(
        name=f"modulo_{r}_{m}",
        kind=ModelKind.IMMEDIATE_TRANSMISSION,
        states=frozenset(states),
        inputs=tuple(v),
        delta=delta,
        iota={s: f"A{v[s] % m}" for s in v},
        output=output,
    )


def test_modulo_is_delayed_transmission_delivered_at_once():
    coefficients = [
        {"a": 1},
        {"a": 0},
        {"a": -2, "b": 3},
        {"b": 0, "a": -1},
        {"a": 1, "b": 2, "c": 3},
    ]
    for v, r, m in itertools.product(coefficients, [-4, 0, 1, 2, 7], [1, 2, 3, 5]):
        pred = pv.Modulo(v, r, m)
        p, ref = pv.build_modulo(pred), reference_modulo(pred)
        assert p == ref, pred
        assert protofile.emit(p) == protofile.emit(ref), pred


def test_averaging_verdicts_and_range():
    p = pv.build_threshold_avg(pv.Threshold({"a": 1, "b": -1}, 1))
    assert p.kind is ModelKind.TWO_WAY
    assert validate_model(p) == []
    assert pv.verdict(p, Multiset({"a": 2, "b": 1})).value == 1
    assert pv.verdict(p, Multiset({"a": 2, "b": 2})).value == 0


def test_avg_active_value():
    assert avg_active_value("A-3") == -3
    assert avg_active_value("A2") == 2
    assert avg_active_value("P1") is None


def test_averaging_active_sum_invariant_per_rule():
    p = pv.build_threshold_avg(pv.Threshold({"a": 1, "b": -1}, 2))

    def active_sum(states):
        return sum(v for q in states if (v := avg_active_value(q)) is not None)

    for (q1, q2), (r1, r2) in p.delta.items():
        # Active agents are conserved or merge while conserving the sum.
        if avg_active_value(q1) is not None or avg_active_value(q2) is not None:
            assert active_sum((q1, q2)) == active_sum((r1, r2)), (q1, q2)


def test_delayed_transmission_modulo():
    p = pv.build_delayed_transmission(pv.Modulo({"a": 1}, 1, 2))
    assert p.kind is ModelKind.DELAYED_TRANSMISSION
    assert validate_model(p) == []
    for n, want in [(1, 1), (2, 0), (3, 1)]:
        assert pv.verdict(p, Multiset({"a": n})).value == want


def test_delayed_transmission_threshold():
    p = pv.build_delayed_transmission(
        pv.simple_threshold("a", 2), alphabet=("a", "b")
    )
    assert validate_model(p) == []
    assert pv.verdict(p, Multiset({"a": 2, "b": 1})).value == 1
    assert pv.verdict(p, Multiset({"a": 1, "b": 2})).value == 0
    with pytest.raises(ValueError):
        pv.build_delayed_transmission(pv.simple_threshold("a", 2))


def test_as_delayed_observation_shape():
    p = pv.as_delayed_observation(pv.build_simple_threshold("a", 1, ("a", "b")))
    assert p.kind is ModelKind.DELAYED_OBSERVATION
    assert validate_model(p) == []
    # Senders never change state.
    assert all(p.send[q][1] == q for q in p.states)


def test_product_pairwise():
    t1 = pv.build_simple_threshold("a", 1, ("a", "b"))
    t2 = pv.build_simple_threshold("b", 1, ("a", "b"))
    both = pv.product([t1, t2], lambda bits: bits[0] and bits[1], name="both")
    assert both.kind is ModelKind.IMMEDIATE_OBSERVATION
    assert validate_model(both) == []
    assert pv.verdict(both, Multiset({"a": 1, "b": 1})).value == 1
    assert pv.verdict(both, Multiset({"a": 2})).value == 0


def test_product_generalizes_kind():
    io = pv.build_simple_threshold("a", 1, ("a", "b"))
    tw = pv.build_threshold_avg(pv.Threshold({"a": 1, "b": 0}, 2))
    combined = pv.product([io, tw], lambda bits: bits[0] or bits[1])
    assert combined.kind is ModelKind.TWO_WAY


def test_product_rejections():
    t1 = pv.build_simple_threshold("a", 1, ("a",))
    t2 = pv.build_simple_threshold("b", 1, ("a", "b"))
    with pytest.raises(AlphabetMismatch):
        pv.product([t1, t2], lambda bits: bits[0])
    dt = pv.build_delayed_transmission(pv.Modulo({"a": 1}, 1, 2))
    io = pv.build_simple_threshold("a", 1, ("a",))
    with pytest.raises(KindMismatch):
        pv.product([io, dt], lambda bits: bits[0])
    with pytest.raises(ValueError):
        pv.product([], lambda bits: 1)
    abstract = pv.ProtocolSpec(
        name="abstract",
        kind=ModelKind.ABSTRACT,
        states=frozenset({"x", "y"}),
        inputs=("x",),
        iota={},
        output={"x": 0, "y": 1},
        rules=((Multiset({"x": 2}), Multiset({"y": 1})),),
    )
    for components in ([abstract], [abstract, abstract]):
        with pytest.raises(KindMismatch) as exc:
            pv.product(components, lambda bits: bits[0])
        assert str(exc.value) == (
            "product takes pairwise or send/receive components, not abstract ones"
        )


def test_product_of_queued_components_receives_where_all_do():
    # Both receive tables are partial, so the product receives a combined
    # message only where each component receives its part.
    left = pv.ProtocolSpec(
        name="left",
        kind=ModelKind.QUEUED_TRANSMISSION,
        states=frozenset({"p", "q"}),
        messages=frozenset({"m", "n"}),
        inputs=("a",),
        send={"p": ("m", "q"), "q": ("n", "q")},
        recv={("p", "m"): "q", ("q", "n"): "p"},
        iota={"a": "p"},
        output={"p": 0, "q": 1},
    )
    right = pv.ProtocolSpec(
        name="right",
        kind=ModelKind.QUEUED_TRANSMISSION,
        states=frozenset({"r", "s"}),
        messages=frozenset({"k"}),
        inputs=("a",),
        send={"r": ("k", "s"), "s": ("k", "s")},
        recv={("s", "k"): "r"},
        iota={"a": "r"},
        output={"r": 0, "s": 1},
    )
    both = pv.product([left, right], lambda bits: bits[0] and bits[1])
    assert both.kind is ModelKind.QUEUED_TRANSMISSION
    assert both.mirrors is True
    assert both.recv == {("p|s", "m|k"): "q|r", ("q|s", "n|k"): "p|r"}
    assert both.send["p|r"] == ("m|k", "q|s")
    assert validate_model(both) == []
    assert protofile.parse(protofile.emit(both)) == both


def test_product_keeps_self_interactions():
    # A lone agent of the mirrored tower k=2 meets itself and climbs to
    # the top, so {a:1} stably computes 1; so must a product of two.
    m = dataclasses.replace(pv.build_simple_threshold("a", 2, ("a",)), mirrors=True)
    x = Multiset({"a": 1})
    assert pv.verdict(m, x).value == 1
    both = pv.product([m, m], lambda bits: bits[0])
    assert both.mirrors
    assert pv.verdict(both, x).value == 1
    plain = pv.build_simple_threshold("a", 2, ("a",))
    assert not pv.product([plain, plain], lambda bits: bits[0]).mirrors
    with pytest.raises(KindMismatch, match="self-interactions"):
        pv.product([m, plain], lambda bits: bits[0])


def test_presence_detector():
    p = pv.detect("b", ("a", "b"))
    assert p.kind is ModelKind.DELAYED_OBSERVATION
    assert validate_model(p) == []
    assert pv.verdict(p, Multiset({"a": 1, "b": 1})).value == 1
    assert pv.verdict(p, Multiset({"a": 2})).value == 0


def test_set_union_protocol():
    u = pv.build_set_union(("a", "b"), table=lambda s: int("b" in s))
    assert u.initial_state("a") == frozenset({"a"})
    assert u.receive(frozenset({"a"}), frozenset({"b"})) == frozenset({"a", "b"})
    assert u.output(frozenset({"a"})) == 0
    assert u.output(frozenset({"a", "b"})) == 1
    with pytest.raises(ValueError):
        u.initial_state("z")


def test_builders_compile_and_embed():
    p = pv.build_modulo(pv.Modulo({"a": 1}, 1, 2))
    rs = compile_rules(p)
    assert rs.output_code(rs.encode(initial_config(p, Multiset({"a": 1})))) == 1
