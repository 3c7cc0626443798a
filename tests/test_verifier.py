import pytest

import popverify as pv
from popverify import verifier
from popverify.models import compile_rules, initial_config
from popverify.multiset import Multiset
from popverify.semilinear import Modulo, simple_threshold
from popverify.verifier import (
    STABLE1,
    UNSTABLE,
    BudgetExceeded,
    enumerate_configs,
    enumerate_inputs,
    label_stability,
)
from test_differential import reference_fair_run


def tower(k=2):
    return pv.build_simple_threshold("a", k, ("a", "b"))


def parity():
    return pv.build_modulo(pv.Modulo({"a": 1}, 1, 2))


def test_explore_tower_graph():
    p = tower(2)
    rs = compile_rules(p)
    g = pv.explore(rs, rs.encode(initial_config(p, Multiset({"a": 2}))))
    assert set(map(rs.decode, g.nodes)) == {
        Multiset({"1": 2}),
        Multiset({"1": 1, "2": 1}),
        Multiset({"2": 2}),
    }
    assert rs.decode(g.nodes[0]) == Multiset({"1": 2})


def test_explore_rejects_empty_root():
    rs = compile_rules(tower())
    with pytest.raises(ValueError):
        pv.explore(rs, rs.encode(Multiset()))


def test_label_stability_tower():
    p = tower(2)
    rs = compile_rules(p)
    g = pv.explore(rs, rs.encode(initial_config(p, Multiset({"a": 2}))))
    labels, _ = label_stability(g)
    by_node = dict(zip(map(rs.decode, g.nodes), labels))
    assert by_node[Multiset({"2": 2})] == STABLE1
    assert by_node[Multiset({"1": 2})] is UNSTABLE
    assert by_node[Multiset({"1": 1, "2": 1})] is UNSTABLE


def test_budget_exceeded():
    p = tower(3)
    with pytest.raises(BudgetExceeded):
        rs = compile_rules(p)
        pv.explore(rs, rs.encode(initial_config(p, Multiset({"a": 4}))), node_budget=2)
    r = pv.sweep(p, simple_threshold("a", 3), max_n=3, node_budget=2)
    assert r.budget_failures and not r.clean


def test_transit_cap_bounds_messages():
    p = pv.build_delayed_transmission(pv.Modulo({"a": 1}, 1, 2))
    rs = compile_rules(p)
    g = pv.explore(rs, rs.encode(initial_config(p, Multiset({"a": 2}))), transit_cap=2)
    for c in map(rs.decode, g.nodes):
        assert all(c[m] <= 2 for m in p.messages)


def test_verdict_statuses():
    v = pv.verdict(parity(), Multiset({"a": 3}))
    assert v.stable and v.value == 1 and str(v) == "stably computes 1"

    # Output undefined forever: mixed frozen outputs diverge.
    p = pv.ProtocolSpec(
        name="frozen",
        kind=pv.ModelKind.TWO_WAY,
        states=frozenset({"x", "y"}),
        inputs=("a", "b"),
        delta={(q1, q2): (q1, q2) for q1 in "xy" for q2 in "xy"},
        iota={"a": "x", "b": "y"},
        output={"x": 0, "y": 1},
    )
    v = pv.verdict(p, Multiset({"a": 1, "b": 1}))
    assert v.status == pv.Verdict.DIVERGES
    assert v.witness is not None

    # Input-dependent dead ends in both outputs: not well-specified.
    q = pv.ProtocolSpec(
        name="coinflip",
        kind=pv.ModelKind.TWO_WAY,
        states=frozenset({"s", "0", "1"}),
        inputs=("a",),
        delta={
            ("s", "s"): ("0", "0"),
            ("s", "0"): ("1", "1"),
            ("s", "1"): ("1", "1"),
            ("0", "s"): ("1", "1"),
            ("1", "s"): ("1", "1"),
            ("0", "0"): ("0", "0"),
            ("0", "1"): ("1", "1"),
            ("1", "0"): ("1", "1"),
            ("1", "1"): ("1", "1"),
        },
        iota={"a": "s"},
        output={"s": 0, "0": 0, "1": 1},
    )
    v = pv.verdict(q, Multiset({"a": 4}))
    assert v.status == pv.Verdict.NOT_WELL_SPECIFIED
    assert v.witness is not None and v.witness[0] == Multiset({"s": 4})


def token_target():
    """The criterion-5 target: 3,724 states, 31 messages, a total receive table."""
    towers = [pv.build_simple_threshold("c", k, ("a", "b", "c")) for k in (1, 2)]
    avg = pv.build_threshold_avg(pv.Threshold({"a": 1, "b": -1, "c": 0}, 1))
    src = pv.product(
        towers + [avg], lambda bits: bits[0] and not bits[1] and bits[2], name="one_c"
    )
    return pv.two_way_to_queued_tokens(src, "c", 2)[0]


def test_token_target_builds_only_the_rules_that_fire():
    target = token_target()
    rs = compile_rules(target)
    v = pv.verdict(target, Multiset({"a": 1, "b": 1, "c": 1}), ruleset=rs)
    assert v.stable and v.value == 0
    assert sum(map(len, rs.table.values())) < 2000
    assert len(rs.rules) == 119_168


def test_token_target_sweep_looks_up_only_keys_that_can_hold_a_rule(monkeypatch):
    # A send/receive rule consumes one state, or one state and one
    # message, so no other key is looked up; here every key holds a rule.
    made = []

    def recording(spec):
        made.append(compile_rules(spec))
        return made[-1]

    monkeypatch.setattr(verifier, "compile_rules", recording)
    report = pv.sweep(token_target(), lambda x: x["a"] > x["b"], 3, promise=lambda x: x["c"] == 1)
    assert report.clean and len(report.entries) == 6
    (rs,) = made
    assert rs.table and all(rs.table.values())
    for key in rs.table:
        assert len(key) <= 2 and sum(e not in rs.message_ids for e in key) == 1, key


def recursive_inputs(alphabet, max_n):
    """The documented order by definition: by size, then lexicographically
    by count vector over the sorted alphabet."""
    symbols = sorted(alphabet)

    def compositions(total, slots):
        if slots == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in compositions(total - head, slots - 1):
                yield (head,) + rest

    for n in range(1, max_n + 1):
        for counts in compositions(n, len(symbols)):
            yield Multiset(dict(zip(symbols, counts)))


def test_enumerate_inputs_order():
    xs = list(enumerate_inputs(("b", "a"), 2))
    assert xs[0] == Multiset({"b": 1})
    assert xs[1] == Multiset({"a": 1})
    assert len(xs) == 2 + 3
    assert all(len(x) <= 2 for x in xs)
    for k in range(1, 6):
        alphabet = [chr(ord("z") - i) for i in range(k)]
        for max_n in range(6):
            assert list(enumerate_inputs(alphabet, max_n)) == list(
                recursive_inputs(alphabet, max_n)
            ), (k, max_n)
    # An alphabet wider than the interpreter's recursion limit; the count
    # vector (0, ..., 0, 1) comes first.
    alphabet = [f"s{i}" for i in range(1200)]
    xs = list(enumerate_inputs(alphabet, 1))
    assert xs == [Multiset({s: 1}) for s in sorted(alphabet, reverse=True)]


def test_enumerate_inputs_rejects_empty_alphabet():
    # An empty alphabet has no inputs, so sweeping over one is a usage error.
    with pytest.raises(ValueError, match="input alphabet is empty"):
        list(enumerate_inputs((), 3))
    p = pv.ProtocolSpec(
        name="silent",
        kind=pv.ModelKind.TWO_WAY,
        states=frozenset({"q"}),
        inputs=(),
        iota={},
        output={"q": 0},
        delta={("q", "q"): ("q", "q")},
    )
    with pytest.raises(ValueError, match="input alphabet is empty"):
        pv.sweep(p, lambda x: False, max_n=2)


def test_sweep_clean_and_mismatch():
    r = pv.sweep(tower(2), simple_threshold("a", 2), max_n=4)
    assert r.clean and "all verdicts match" in r.summary()
    r = pv.sweep(tower(2), simple_threshold("a", 3), max_n=4)
    assert r.mismatches
    assert "mismatch at" in r.summary()
    first = r.mismatches[0]
    assert first.input == Multiset({"a": 2}) and first.expected == 0


def test_sweep_promise_filters_inputs():
    r = pv.sweep(
        tower(2),
        simple_threshold("a", 2),
        max_n=3,
        promise=lambda x: x["b"] == 0,
    )
    assert all(e.input["b"] == 0 for e in r.entries)


def test_explore_takes_memo_leaves():
    rs = compile_rules(parity())
    known: dict = {}
    g, summary = verifier._labelled(rs, rs.encode(Multiset({"A1": 2, "P1": 1})), 100, None, known)
    assert label_stability(g)[0][0] is UNSTABLE and not g.leaves
    # Every configuration reached was labelled with the root.
    assert known == dict(zip(g.nodes, summary))
    # A later exploration stops at them and labels as a lone one does.
    c = rs.encode(Multiset({"A0": 2, "P1": 1}))
    g = pv.explore(rs, c, known=known)
    assert g.nodes.index(rs.encode(Multiset({"A0": 1, "P0": 1, "P1": 1}))) in g.leaves
    assert all(known[g.nodes[i]] == s and not g.succ[i] for i, s in g.leaves.items())
    fresh = pv.explore(rs, c)
    full = dict(zip(fresh.nodes, label_stability(fresh)[1]))
    assert sum(map(len, fresh.succ)) > sum(map(len, g.succ))
    assert all(full[code] == s for code, s in zip(g.nodes, label_stability(g)[1]))


def test_enumerate_configs_requires_an_agent():
    p = pv.build_delayed_transmission(pv.Modulo({"a": 1}, 1, 2))
    for c in enumerate_configs(p, 2):
        assert any(e in p.states for e in c.support)


def test_minimal_unstable_tower():
    analysis = pv.minimal_unstable(tower(2), 3)
    assert Multiset({"1": 2}) in analysis.minimal
    # Every unstable configuration dominates a minimal one.
    for c in analysis.unstable:
        assert any(m <= c for m in analysis.minimal)
    assert analysis.truncation_k >= 2


def test_fair_run_converges():
    trace = pv.fair_run(parity(), Multiset({"a": 3}), seed=5)
    assert trace.converged and trace.output == 1
    assert trace.configs[0] == Multiset({"A1": 3})
    assert trace.steps == len(trace.configs) - 1
    # Determinism at fixed seed.
    again = pv.fair_run(parity(), Multiset({"a": 3}), seed=5)
    assert again.configs == trace.configs


def test_fair_run_decodes_only_when_configs_is_read(monkeypatch):
    p, x = parity(), Multiset({"a": 61})
    want = reference_fair_run(p, x, 0, 10_000, None, budget=10**5)
    calls = []
    decode = pv.RuleSet.decode

    def counting(self, code):
        calls.append(code)
        return decode(self, code)

    monkeypatch.setattr(pv.RuleSet, "decode", counting)
    trace = pv.fair_run(p, x)
    steps = trace.steps
    assert calls == []
    configs = trace.configs
    assert len(calls) == steps + 1
    assert (configs, trace.converged, trace.output) == want


def test_fair_run_respects_predicate():
    psi = Modulo({"a": 1}, 1, 2)
    for n in range(1, 5):
        for seed in range(3):
            trace = pv.fair_run(parity(), Multiset({"a": n}), seed=seed)
            assert trace.converged
            assert trace.output == int(psi(Multiset({"a": n})))


def test_fair_run_explores_once_from_the_first_candidate(monkeypatch):
    # The whole graph of {a:200} holds far more than 1,000 configurations;
    # the graph from the first configuration that one step cannot change
    # the output of fits.
    calls = []
    explore = verifier.explore

    def counting(rs, c0, *args, **kwargs):
        calls.append(rs.decode(c0))
        return explore(rs, c0, *args, **kwargs)

    monkeypatch.setattr(verifier, "explore", counting)
    trace = pv.fair_run(parity(), Multiset({"a": 200}), node_budget=1000)
    assert trace.converged and trace.output == 0
    assert len(calls) == 1 and calls[0] in trace.configs
    rs = compile_rules(parity())
    with pytest.raises(BudgetExceeded):
        pv.explore(rs, rs.encode(Multiset({"A1": 200})), node_budget=1000)


def test_fair_run_that_ends_early_explores_nothing(monkeypatch):
    monkeypatch.setattr(verifier, "explore", None)
    trace = pv.fair_run(parity(), Multiset({"a": 200}), max_steps=5)
    assert not trace.converged and trace.output is None and trace.steps == 5


def test_fair_run_checks_the_bounds_of_its_exploration():
    for kwargs, message in (
        ({"node_budget": 0}, "node budget must be at least 1, got 0"),
        ({"transit_cap": 0}, "transit cap must be at least 1, got 0"),
    ):
        with pytest.raises(ValueError, match=message):
            pv.fair_run(parity(), Multiset({"a": 3}), max_steps=0, **kwargs)


def cycle():
    """Two-way A A -> B B -> C C -> A A, mixed pairs unchanged; only C
    outputs 1, so no configuration is stable."""
    states = ("A", "B", "C")
    delta = {(q, r): (q, r) for q in states for r in states}
    delta.update({("A", "A"): ("B", "B"), ("B", "B"): ("C", "C"), ("C", "C"): ("A", "A")})
    return pv.ProtocolSpec(
        name="cycle",
        kind=pv.ModelKind.TWO_WAY,
        states=frozenset(states),
        inputs=("a",),
        iota={"a": "A"},
        output={"A": 0, "B": 0, "C": 1},
        delta=delta,
    )


def test_fair_run_walks_the_explored_graph_after_the_candidate(monkeypatch):
    # {A:40} is a candidate that never converges: the walk after it reads
    # successors from the one exploration's graph, not from the rules.
    calls = []
    nodes = []
    successor_codes = pv.RuleSet.successor_codes
    explore = verifier.explore

    def counting(self, code, transit_cap=None):
        calls.append(code)
        return successor_codes(self, code, transit_cap)

    def sizing(*args, **kwargs):
        g = explore(*args, **kwargs)
        nodes.append(len(g.nodes))
        return g

    monkeypatch.setattr(pv.RuleSet, "successor_codes", counting)
    monkeypatch.setattr(verifier, "explore", sizing)
    trace = pv.fair_run(cycle(), Multiset({"a": 40}), seed=1, max_steps=10_000)
    assert not trace.converged and trace.output is None and trace.steps == 10_000
    assert len(nodes) == 1 and len(calls) <= 1 + nodes[0]


def test_local_fair_run_converges():
    u = pv.build_set_union(("a", "b", "c"))
    r = pv.local_fair_run(u, Multiset({"a": 2, "b": 1}))
    assert r.output == 1
    assert set(r.states) == {frozenset({"a", "b"})}
    assert r.rounds <= 3
    with pytest.raises(ValueError):
        pv.local_fair_run(u, Multiset())


def _minimal_by_definition(unstable):
    return [c for c in unstable if not any(d != c and d <= c for d in unstable)]


@pytest.mark.parametrize(
    "build,bound,cap",
    [
        (lambda: tower(2), 4, None),
        (lambda: tower(3), 4, None),
        (lambda: pv.build_modulo(pv.Modulo({"a": 1, "b": 2}, 0, 3)), 3, None),
        (lambda: pv.build_delayed_transmission(pv.Modulo({"a": 1}, 1, 2)), 3, 2),
        (lambda: pv.detect("a", ("a", "b")), 3, 2),
        # Under cap 1 the unstable set is not upward-closed here:
        # {P1:1, mA1:2} is unstable, {P1:1, mA1:3} is labelled stable.
        (lambda: pv.build_delayed_transmission(pv.Modulo({"a": 1}, 1, 2)), 4, 1),
    ],
)
def test_minimal_unstable_matches_definition(build, bound, cap):
    analysis = pv.minimal_unstable(build(), bound, transit_cap=cap)
    assert analysis.minimal
    assert list(analysis.minimal) == _minimal_by_definition(analysis.unstable)
