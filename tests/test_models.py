import dataclasses

import pytest

import popverify as pv
from helpers import with_kind
from popverify.models import (
    EmptyInput,
    InvalidModel,
    ModelKind,
    ProtocolSpec,
    compile_rules,
    generalize_kind,
    initial_config,
    specialization_chain,
    validate_model,
)
from popverify.multiset import Multiset


def tower(k=2):
    return pv.build_simple_threshold("a", k, ("a", "b"))


def parity():
    return pv.build_modulo(pv.Modulo({"a": 1}, 1, 2))


def averaging():
    return pv.build_threshold_avg(pv.Threshold({"a": 1, "b": -1}, 1))


def successors(rs, c):
    """All configurations one rule application away from ``c``."""
    return {rs.decode(code) for code in rs.successor_codes(rs.encode(c))}


def test_kind_families():
    assert ModelKind.TWO_WAY.is_pairwise
    assert ModelKind.DELAYED_OBSERVATION.is_send_receive
    assert not ModelKind.ABSTRACT.is_pairwise


def test_mirrors_is_settled_from_the_kind():
    # A spec made without ``mirrors`` gets the kind's value: send/receive
    # kinds self-deliver, the others do not.
    def made(kind):
        return ProtocolSpec(
            name="x", kind=kind, states=frozenset(), inputs=(), iota={}, output={}
        )

    assert made(ModelKind.QUEUED_TRANSMISSION).mirrors is True
    assert made(ModelKind.IMMEDIATE_OBSERVATION).mirrors is False
    for kind in ModelKind:
        assert made(kind).mirrors is kind.is_send_receive, kind


def test_generalize_kind():
    assert (
        generalize_kind(ModelKind.IMMEDIATE_OBSERVATION, ModelKind.TWO_WAY)
        is ModelKind.TWO_WAY
    )
    assert (
        generalize_kind(ModelKind.DELAYED_OBSERVATION, ModelKind.DELAYED_TRANSMISSION)
        is ModelKind.DELAYED_TRANSMISSION
    )
    with pytest.raises(ValueError):
        generalize_kind(ModelKind.TWO_WAY, ModelKind.DELAYED_OBSERVATION)


def test_tower_validates_as_observation():
    assert validate_model(tower()) == []
    assert specialization_chain(tower()) == [
        ModelKind.IMMEDIATE_OBSERVATION,
        ModelKind.IMMEDIATE_TRANSMISSION,
        ModelKind.TWO_WAY,
    ]


def test_averaging_is_not_one_way():
    p = averaging()
    assert validate_model(p) == []
    bad = validate_model(p, ModelKind.IMMEDIATE_TRANSMISSION)
    assert any("initiator" in msg for msg in bad)
    assert specialization_chain(p) == [ModelKind.TWO_WAY]


def test_parity_is_immediate_transmission():
    chain = specialization_chain(parity())
    assert chain[0] is ModelKind.IMMEDIATE_TRANSMISSION


def test_validate_reports_partial_delta():
    p = tower()
    delta = dict(p.delta)
    del delta[("0", "0")]
    broken = ProtocolSpec(
        name="broken",
        kind=p.kind,
        states=p.states,
        inputs=p.inputs,
        delta=delta,
        iota=p.iota,
        output=p.output,
    )
    assert any("delta undefined" in msg for msg in validate_model(broken))


def test_validate_requires_total_recv_for_delayed():
    p = pv.build_delayed_transmission(pv.Modulo({"a": 1}, 1, 2))
    assert validate_model(p) == []
    recv = dict(p.recv)
    key = next(iter(recv))
    del recv[key]
    broken = ProtocolSpec(
        name="broken",
        kind=p.kind,
        states=p.states,
        messages=p.messages,
        inputs=p.inputs,
        send=p.send,
        recv=recv,
        iota=p.iota,
        output=p.output,
    )
    assert any("recv not total" in msg for msg in validate_model(broken))
    # Queued transmission permits the same partial table.
    assert validate_model(broken, ModelKind.QUEUED_TRANSMISSION) == []
    # An undeclared entry in place of the missing one keeps the entry
    # count, but the table is still not total.
    ghost = dataclasses.replace(broken, recv={**recv, ("ghost", key[1]): key[0]})
    assert len(ghost.recv) == len(p.states) * len(p.messages)
    bad = validate_model(ghost)
    assert f"recv not total: undefined at {key!r}" in bad
    assert any("over undeclared symbols" in msg for msg in bad)


def test_validate_rejects_message_outputs():
    p = pv.build_delayed_transmission(pv.Modulo({"a": 1}, 1, 2))
    tagged = dataclasses.replace(p, output={**p.output, "mA1": 0})
    for kind in ModelKind:
        flagged = "output given for 'mA1'" in "; ".join(validate_model(tagged, kind))
        assert flagged == (kind is not ModelKind.ABSTRACT), kind
    with pytest.raises(InvalidModel):
        compile_rules(tagged)


def test_validate_rejects_send_receive_without_self_delivery():
    p = pv.build_delayed_transmission(pv.Modulo({"a": 1}, 1, 2))
    assert validate_model(dataclasses.replace(p, mirrors=True)) == []
    unmirrored = dataclasses.replace(p, mirrors=False)
    for kind in ModelKind:
        flagged = "mirrors cannot be false" in "; ".join(validate_model(unmirrored, kind))
        assert flagged == kind.is_send_receive, kind
    assert specialization_chain(unmirrored) == []
    with pytest.raises(InvalidModel, match="always self-delivers"):
        compile_rules(unmirrored)


def delayed():
    return pv.build_delayed_transmission(pv.Modulo({"a": 1}, 1, 2))


def abstract(rules):
    return ProtocolSpec(
        name="abstract",
        kind=ModelKind.ABSTRACT,
        states=frozenset({"x", "y"}),
        inputs=("x",),
        iota={},
        output={"x": 0, "y": 1},
        rules=rules,
    )


def changed(build, table, key, value):
    """``build()`` with ``table[key]`` set to ``value``, or dropped when
    ``value`` is None."""

    def make():
        p = build()
        entries = {k: v for k, v in getattr(p, table).items() if k != key}
        if value is not None:
            entries[key] = value
        return dataclasses.replace(p, **{table: entries})

    return make


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: dataclasses.replace(tower(), messages=frozenset({"0"})),
         "states and messages overlap: ['0']"),
        (changed(tower, "iota", "b", None), "iota undefined for input 'b'"),
        (changed(tower, "iota", "a", "9"), "iota('a') = '9' is not a state"),
        (changed(tower, "output", "0", None), "output undefined for state '0'"),
        (changed(tower, "output", "0", 2), "output('0') = 2 is not a bit"),
        (lambda: abstract(((Multiset({"x": 2}), Multiset({"z": 1})),)),
         "rule {x:2} -> {z:1} uses undeclared elements ['z']"),
        (changed(tower, "delta", ("0", "0"), ("0", "9")),
         "delta('0', '0') leaves the state set"),
        (lambda: dataclasses.replace(delayed(), send=None),
         "delayed-transmission spec has no send table"),
        (changed(delayed, "send", "P0", None), "send undefined for state 'P0'"),
        (changed(delayed, "send", "P0", ("m9", "P0")),
         "send('P0') emits undeclared message 'm9'"),
        (changed(delayed, "send", "P0", ("mP", "Q9")), "send('P0') leaves the state set"),
        (changed(delayed, "recv", ("P0", "mP"), "Q9"), "recv('P0', 'mP') leaves the state set"),
    ],
)
def test_validate_model_names_each_violation(make, message):
    p = make()
    assert validate_model(p) == [message]
    with pytest.raises(InvalidModel) as exc:
        compile_rules(p)
    assert str(exc.value) == message


def test_encode_rejects_a_foreign_element():
    with pytest.raises(ValueError) as exc:
        compile_rules(tower()).encode(Multiset({"z": 1}))
    assert str(exc.value) == "'z' is not an element of the protocol"


def test_with_kind_rejects_invalid_retag():
    with pytest.raises(InvalidModel):
        with_kind(averaging(), ModelKind.IMMEDIATE_OBSERVATION)
    assert with_kind(tower(), ModelKind.TWO_WAY).kind is ModelKind.TWO_WAY


def test_compile_rules_pairwise():
    rs = compile_rules(tower(2))
    # Only non-trivial table entries become rules.
    assert (Multiset(["1", "1"]), Multiset(["1", "2"])) in rs.rules
    assert all(lhs != rhs for lhs, rhs in rs.rules)
    assert not rs.message_ids


def test_compile_rules_send_receive():
    p = pv.build_delayed_transmission(pv.Modulo({"a": 1}, 1, 2))
    rs = compile_rules(p)
    assert (Multiset(["A1"]), Multiset(["P1", "mA1"])) in rs.rules
    assert (Multiset(["P0", "mA1"]), Multiset(["A1"])) in rs.rules
    assert {rs.names[m] for m in rs.message_ids} == p.messages


def test_successors_match_linear_scan():
    rs = compile_rules(averaging())
    for c in (Multiset({"A1": 3}), Multiset({"A1": 1, "A-1": 1, "P0": 1})):
        linear = {c - lhs + rhs for lhs, rhs in rs.rules if lhs <= c}
        assert successors(rs, c) == linear


def test_successors_preserve_agent_count():
    p = pv.build_delayed_transmission(pv.Modulo({"a": 1}, 1, 2))
    rs = compile_rules(p)

    def agents(c):
        return sum(n for e, n in c.items() if e in p.states)

    c = Multiset({"A1": 2, "P0": 1})
    for nxt in successors(rs, c):
        assert agents(nxt) == agents(c)


def test_mirror_self_rules():
    p = with_kind(tower(2), ModelKind.IMMEDIATE_OBSERVATION, mirrors=True)
    rs = compile_rules(p)
    assert (Multiset(["1"]), Multiset(["2"])) in rs.rules


def test_initial_config():
    p = parity()
    assert initial_config(p, Multiset({"a": 3})) == Multiset({"A1": 3})
    with pytest.raises(EmptyInput):
        initial_config(p, Multiset())
    with pytest.raises(ValueError):
        initial_config(p, Multiset({"z": 1}))


def test_output_of():
    rs = compile_rules(parity())
    assert rs.output_code(rs.encode(Multiset({"P1": 2, "A1": 1}))) == 1
    assert rs.output_code(rs.encode(Multiset({"P1": 1, "P0": 1}))) is None


def test_abstract_rules():
    rules = ((Multiset(["x", "x"]), Multiset(["y"])),)
    p = ProtocolSpec(
        name="merge",
        kind=ModelKind.ABSTRACT,
        states=frozenset({"x", "y"}),
        inputs=("x",),
        iota={},
        output={"x": 0, "y": 1},
        rules=rules,
    )
    assert validate_model(p) == []
    rs = compile_rules(p)
    assert successors(rs, Multiset({"x": 2})) == {Multiset({"y": 1})}
    assert initial_config(p, Multiset({"x": 2})) == Multiset({"x": 2})


@pytest.mark.parametrize("lhs", [["x", "x"], ["x", "x", "x"]])
def test_abstract_table_fills_on_demand(lhs):
    # An LHS of three elements is found by scanning the LHS keys; it is
    # built on the first lookup all the same.
    p = ProtocolSpec(
        name="merge",
        kind=ModelKind.ABSTRACT,
        states=frozenset({"x", "y"}),
        inputs=("x",),
        iota={},
        output={"x": 0, "y": 1},
        rules=((Multiset(lhs), Multiset(["y"])),),
    )
    rs = compile_rules(p)
    assert dict(rs.table) == {}
    assert bool(rs.scan_keys) == (len(lhs) > 2)
    c = Multiset({"x": 3})
    assert successors(rs, c) == {c - Multiset(lhs) + Multiset(["y"])}
    assert rs.table[(rs.ids["x"],) * len(lhs)]


def test_abstract_key_repeating_two_elements_needs_both_counts():
    # {x:2, y:2} fires only when both counts reach 2, whichever one is
    # short, and on the plan that the support {x, y} keeps.
    p = ProtocolSpec(
        name="pairs",
        kind=ModelKind.ABSTRACT,
        states=frozenset({"x", "y", "z"}),
        inputs=("x", "y"),
        iota={},
        output={"x": 0, "y": 0, "z": 1},
        rules=((Multiset({"x": 2, "y": 2}), Multiset({"z": 4})),),
    )
    rs = compile_rules(p)
    for x, y in [(2, 1), (1, 2), (3, 1), (2, 2), (3, 3)]:
        c = Multiset({"x": x, "y": y})
        want = {c - Multiset({"x": 2, "y": 2}) + Multiset({"z": 4})} if min(x, y) >= 2 else set()
        assert successors(rs, c) == want, c
    assert len(rs.plans) == 1


def test_rule_sets_keep_one_plan_per_expanded_support():
    # Whatever its size, a rule set keeps the plan of each support that
    # explore expanded, and no other.
    p = parity()
    rs = compile_rules(p)
    assert len(rs.names) == 4
    g = pv.explore(rs, rs.encode(initial_config(p, Multiset({"a": 5}))))
    assert rs.plans.keys() == {code[::2] for code in g.nodes}
    assert len(rs.plans) > 1
    # The tokens target of the averaging protocol, as CI builds it.
    target, _ = pv.two_way_to_queued_tokens(averaging(), "b", 2)
    rs = compile_rules(target)
    assert len(rs.names) == 130
    root = rs.encode(initial_config(target, Multiset({"a": 2, "b": 1})))
    g = pv.explore(rs, root, transit_cap=3)
    assert rs.plans.keys() == {code[::2] for code in g.nodes}
    assert len(rs.plans) > 1
    # An abstract spec with a three-element LHS scans its keys, and keeps
    # plans too: {x:5} -> {x:2, y:1} -> {x:1, y:2} -> {y:3}.
    p = ProtocolSpec(
        name="merge",
        kind=ModelKind.ABSTRACT,
        states=frozenset({"x", "y"}),
        inputs=("x",),
        iota={},
        output={"x": 0, "y": 1},
        rules=(
            (Multiset({"x": 3}), Multiset({"y": 1})),
            (Multiset({"x": 1, "y": 1}), Multiset({"y": 2})),
        ),
    )
    rs = compile_rules(p)
    assert rs.scan_keys
    g = pv.explore(rs, rs.encode(Multiset({"x": 5})))
    assert len(g.nodes) == 4
    assert rs.plans.keys() == {code[::2] for code in g.nodes}
    assert len(rs.plans) == 3
