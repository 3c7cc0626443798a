import dataclasses

import pytest

import popverify as pv
from helpers import token_count
from popverify.models import InvalidModel, ModelKind, compile_rules, validate_model
from popverify.multiset import Multiset
from popverify.transforms import NULL


def averaging():
    return pv.build_threshold_avg(pv.Threshold({"a": 1, "b": -1}, 1))


def tower():
    return pv.build_simple_threshold("a", 2, ("a", "b"))


def all_inputs(alphabet, max_n):
    return list(pv.enumerate_inputs(alphabet, max_n))


def test_queued_target_validates():
    target, cert = pv.two_way_to_queued(averaging())
    assert target.kind is ModelKind.QUEUED_TRANSMISSION
    assert validate_model(target) == []
    assert NULL in target.messages
    assert cert.source.name == averaging().name


def test_queued_receipt_refused_at_capacity():
    target, _ = pv.two_way_to_queued(averaging())
    pair = next(q for q in target.states if q.startswith("D."))
    real = next(m for m in target.messages if m != NULL)
    assert (pair, real) not in target.recv
    assert target.recv[(pair, NULL)] == pair


def test_queued_verdicts_agree():
    src = averaging()
    target, _ = pv.two_way_to_queued(src)
    for x in all_inputs(src.inputs, 3):
        vs = pv.verdict(src, x)
        vt = pv.verdict(target, x, transit_cap=len(x))
        assert vs.status == vt.status and vs.value == vt.value, x


def test_queued_projection_preserves_agents():
    src = averaging()
    target, cert = pv.two_way_to_queued(src)
    x = Multiset({"a": 2, "b": 1})
    rs = compile_rules(target)
    g = pv.explore(rs, rs.encode(pv.initial_config(target, x)), transit_cap=len(x))
    for c in map(rs.decode, g.nodes):
        # Held plus in-transit simulated states account for every agent.
        assert len(cert.project(c)) == len(x)


def test_tokens_requires_sane_parameters():
    with pytest.raises(ValueError):
        pv.two_way_to_queued_tokens(averaging(), "z", 2)
    with pytest.raises(ValueError):
        pv.two_way_to_queued_tokens(averaging(), "a", 1)
    with pytest.raises(InvalidModel):
        pv.two_way_to_queued(
            pv.build_delayed_transmission(pv.Modulo({"a": 1}, 1, 2))
        )


def test_tokens_target_is_delayed_transmission():
    target, _ = pv.two_way_to_queued_tokens(averaging(), "a", 2)
    assert target.kind is ModelKind.DELAYED_TRANSMISSION
    # Total receive table is what distinguishes delayed from queued.
    assert validate_model(target, ModelKind.DELAYED_TRANSMISSION) == []


def test_tokens_verdicts_agree_under_promise():
    src = averaging()
    target, _ = pv.two_way_to_queued_tokens(src, "a", 2)
    for x in all_inputs(src.inputs, 3):
        if x["a"] != 1:
            continue
        vs = pv.verdict(src, x)
        vt = pv.verdict(target, x)
        assert vs.status == vt.status and vs.value == vt.value, x


def test_token_conservation():
    src = averaging()
    target, _ = pv.two_way_to_queued_tokens(src, "a", 2)
    x = Multiset({"a": 1, "b": 2})
    c0 = pv.initial_config(target, x)
    assert token_count(c0) == 1
    rs = compile_rules(target)
    g = pv.explore(rs, rs.encode(c0), transit_cap=len(x))
    assert all(token_count(rs.decode(c)) == 1 for c in g.nodes)


def test_add_mirrors_shape():
    mir = pv.io_add_mirrors(tower())
    assert mir.mirrors
    assert validate_model(mir) == []
    assert len(mir.states) == 2 * len(tower().states)
    with pytest.raises(InvalidModel):
        pv.io_add_mirrors(mir)  # already mirrored
    with pytest.raises(InvalidModel):
        pv.io_add_mirrors(averaging())  # not immediate observation


def test_add_mirrors_self_step_is_primation_flip():
    mir = pv.io_add_mirrors(tower())
    rs = compile_rules(mir)
    # A lone agent can only toggle its primed copy, never advance.
    unary = {lhs.support[0]: rhs.support[0] for lhs, rhs in rs.rules if len(lhs) == 1}
    assert unary == {q: q + "'" if not q.endswith("'") else q[:-1] for q in mir.states}


def test_remove_mirrors_round_trip_verdicts():
    src = tower()
    mir = pv.io_add_mirrors(src)
    back = pv.io_remove_mirrors(mir)
    assert not back.mirrors
    assert validate_model(back) == []
    with pytest.raises(InvalidModel):
        pv.io_remove_mirrors(src)  # no self-interactions to remove
    for x in all_inputs(src.inputs, 4):
        if len(x) < 3:
            continue  # the construction assumes at least three agents
        vs = pv.verdict(src, x)
        vm = pv.verdict(mir, x)
        vb = pv.verdict(back, x)
        assert vs.value == vm.value == vb.value, x
        assert vs.stable and vm.stable and vb.stable


@pytest.mark.parametrize(
    "transform",
    [pv.two_way_to_queued, lambda p: pv.two_way_to_queued_tokens(p, "a", 2)],
    ids=["queued", "tokens"],
)
def test_two_way_transforms_refuse_a_mirrored_source(transform):
    # A lone agent of the mirrored tower k=2 meets itself and climbs to the
    # top, which neither simulation can do, so both refuse the source.
    m = dataclasses.replace(pv.build_simple_threshold("a", 2, ("a",)), mirrors=True)
    assert pv.verdict(m, Multiset({"a": 1})).value == 1
    with pytest.raises(InvalidModel, match="self-interactions"):
        transform(m)
