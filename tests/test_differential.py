"""Differential tests of the integer-coded explore core.

The reference below is the plain ``Multiset`` algorithm: a breadth-first
search that applies ``RuleSet.rules`` by linear scan, orders successors
by their rendering, and checks the transit cap on every message of a
successor.  Labels come from the definition (a configuration is
stable-b iff every configuration reachable from it has output b), not
from the SCC condensation.  A second verdict reference reads the bottom
SCCs off the transitive closure.  Sweeps and ``minimal_unstable``, which
share a memo of node summaries between explorations, are checked against
lone, memo-free calls.  ``fair_run``, which explores only from the
first configuration whose output one step cannot change, is checked
against a walk on the whole labelled graph.  Hypothesis generates small
pairwise protocols, send/receive protocols of all three kinds and
abstract protocols, abstract ones with LHS of up to four elements, so
that one LHS may hold two elements twice each.  Successors are also
checked on a pairwise product of 25 states and on the 38-element queued
simulation of an averaging protocol, whose receive table is partial.
The on-demand rule table is checked, key by key and rule by rule,
against an eager build that enters every rule up front.
"""

import random
from collections import Counter, deque
from itertools import combinations_with_replacement

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import popverify as pv
from popverify import verifier
from popverify.models import ModelKind, ProtocolSpec, compile_rules, initial_config
from popverify.multiset import Multiset
from popverify.verifier import (
    REACHES0,
    REACHES1,
    STABLE,
    STUCK,
    BudgetExceeded,
    Verdict,
    label_stability,
)

BUDGET = 300

# -- the reference -----------------------------------------------------------


def reference_successors(rs, c: Multiset) -> set:
    return {c - lhs + rhs for lhs, rhs in rs.rules if lhs <= c}


def successors(rs, c: Multiset, transit_cap=None) -> set:
    """The successors from the integer core, decoded; they must come
    distinct and in code order."""
    codes = rs.successor_codes(rs.encode(c), transit_cap)
    assert codes == sorted(set(codes))
    return set(map(rs.decode, codes))


def within_cap(rs, c: Multiset, transit_cap) -> bool:
    return transit_cap is None or all(c[rs.names[m]] <= transit_cap for m in rs.message_ids)


def reference_explore(rs, c0: Multiset, transit_cap=None, node_budget=BUDGET):
    """(nodes, succ, parent) in BFS order."""
    nodes, index, succ, parent = [c0], {c0: 0}, [[]], [None]
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for nxt in sorted(reference_successors(rs, nodes[i]), key=str):
            if not within_cap(rs, nxt, transit_cap):
                continue
            j = index.get(nxt)
            if j is None:
                if len(nodes) >= node_budget:
                    raise BudgetExceeded(node_budget, len(queue) + 1)
                j = len(nodes)
                index[nxt] = j
                nodes.append(nxt)
                succ.append([])
                parent.append(i)
                queue.append(j)
            succ[i].append(j)
    return nodes, succ, parent


def output(p: ProtocolSpec, c: Multiset):
    bits = {p.output[e] for e in c.support if e in p.output}
    return bits.pop() if len(bits) == 1 else None


def reachable(succ: list, i: int) -> set:
    seen, todo = {i}, [i]
    while todo:
        for w in succ[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def reference_labels(p: ProtocolSpec, nodes: list, succ: list) -> list:
    labels = []
    for i in range(len(nodes)):
        bits = {output(p, nodes[j]) for j in reachable(succ, i)}
        labels.append(bits.pop() if len(bits) == 1 and None not in bits else None)
    return labels


def reference_verdict(p: ProtocolSpec, x: Multiset, transit_cap):
    """(status, value, witness path) from the definition of stable computation."""
    rs = compile_rules(p)
    if transit_cap is None and rs.message_ids:
        transit_cap = len(x)
    nodes, succ, parent = reference_explore(rs, initial_config(p, x), transit_cap)
    labels = reference_labels(p, nodes, succ)

    def path_to(i):
        path = []
        while i is not None:
            path.append(nodes[i])
            i = parent[i]
        return path[::-1]

    stable = {b: [i for i, lab in enumerate(labels) if lab == b] for b in (0, 1)}
    if stable[0] and stable[1]:
        return Verdict.NOT_WELL_SPECIFIED, None, path_to(stable[1][0])
    if not stable[0] and not stable[1]:
        return Verdict.DIVERGES, None, path_to(0)
    b = 1 if stable[1] else 0
    for i in range(len(nodes)):
        if not any(labels[j] == b for j in reachable(succ, i)):
            return Verdict.DIVERGES, None, path_to(i)
    return Verdict.STABLY_COMPUTES, b, None


def bottom_scc_verdict(p: ProtocolSpec, nodes: list, succ: list):
    """(status, value) from the bottom SCCs of the transitive closure.

    The protocol stably computes b iff every bottom SCC is stable-b (all
    its members output b); it is not well specified iff there are both
    stable-0 and stable-1 bottom SCCs; otherwise it diverges.
    """
    closure = [reachable(succ, i) for i in range(len(nodes))]
    bottoms = {
        frozenset(closure[i])
        for i in range(len(nodes))
        if all(i in closure[j] for j in closure[i])
    }
    bits = set()
    for scc in bottoms:
        outs = {output(p, nodes[j]) for j in scc}
        bits.add(outs.pop() if len(outs) == 1 else None)
    if bits in ({0}, {1}):
        return Verdict.STABLY_COMPUTES, bits.pop()
    if {0, 1} <= bits:
        return Verdict.NOT_WELL_SPECIFIED, None
    return Verdict.DIVERGES, None


def summary_bits(s: int) -> tuple:
    """(STABLE, REACHES0, REACHES1, STUCK) of a packed summary."""
    return tuple(bool(s & bit) for bit in (STABLE, REACHES0, REACHES1, STUCK))


# -- generated protocols ------------------------------------------------------


@st.composite
def pairwise(draw):
    states = [f"q{i}" for i in range(draw(st.integers(1, 3)))]
    pick = st.sampled_from(states)
    return ProtocolSpec(
        name="pairwise",
        kind=ModelKind.TWO_WAY,
        states=frozenset(states),
        inputs=("x", "y"),
        iota={"x": draw(pick), "y": draw(pick)},
        output={q: draw(st.integers(0, 1)) for q in states},
        delta={(a, b): (draw(pick), draw(pick)) for a in states for b in states},
        mirrors=draw(st.booleans()),
    )


@st.composite
def send_receive(draw):
    kind = draw(st.sampled_from([k for k in ModelKind if k.is_send_receive]))
    states = [f"q{i}" for i in range(draw(st.integers(1, 3)))]
    messages = [f"m{i}" for i in range(draw(st.integers(1, 2)))]
    pick, pick_m = st.sampled_from(states), st.sampled_from(messages)
    # Only queued transmission may leave a receive undefined, and only
    # delayed observation must keep the sender's state.
    total = kind is not ModelKind.QUEUED_TRANSMISSION
    recv = {}
    for q in states:
        for m in messages:
            if total or draw(st.booleans()):
                recv[(q, m)] = draw(pick)
    observe = kind is ModelKind.DELAYED_OBSERVATION
    return ProtocolSpec(
        name="send-receive",
        kind=kind,
        states=frozenset(states),
        messages=frozenset(messages),
        inputs=("x", "y"),
        iota={"x": draw(pick), "y": draw(pick)},
        output={q: draw(st.integers(0, 1)) for q in states},
        send={q: (draw(pick_m), q if observe else draw(pick)) for q in states},
        recv=recv,
    )


@st.composite
def abstract(draw, min_lhs=1):
    states = [f"q{i}" for i in range(draw(st.integers(1, 3)))]
    pick = st.sampled_from(states)
    rules = []
    for _ in range(draw(st.integers(1, 4))):
        lhs = draw(st.lists(pick, min_size=min_lhs, max_size=4))
        # A RHS no larger than a non-empty LHS keeps every reachable space
        # finite; an empty LHS, drawn only for the table test, grows it.
        rhs = draw(st.lists(pick, min_size=1, max_size=max(len(lhs), 1)))
        rules.append((Multiset(lhs), Multiset(rhs)))
    return ProtocolSpec(
        name="abstract",
        kind=ModelKind.ABSTRACT,
        states=frozenset(states),
        inputs=tuple(states[:2]),
        iota={},
        output={q: draw(st.integers(0, 1)) for q in states},
        rules=tuple(rules),
    )


protocols = st.one_of(pairwise(), send_receive(), abstract())


@st.composite
def configuration(draw, p: ProtocolSpec):
    """Any non-empty configuration, messages over the cap included."""
    counts = {e: draw(st.integers(0, 3)) for e in sorted(p.elements)}
    if not any(counts.values()):
        counts[min(p.states)] = 1
    return Multiset(counts)


@st.composite
def input_of(draw, p: ProtocolSpec):
    counts = {s: draw(st.integers(0, 3)) for s in p.inputs}
    if not any(counts.values()):
        counts[p.inputs[0]] = 1
    return Multiset(counts)


caps = st.sampled_from([None, 1, 2])
checked = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# -- the tests ----------------------------------------------------------------


def check_successors_twice(data, rs, c: Multiset, cap=None) -> None:
    """Check the successors of ``c`` and of ``c + c``, in a drawn order,
    on one rule set.  The double has the same support with every count
    at least 2, so the rule set answers the second of the two from the
    plan the first one built."""
    pair = [c, c + c]
    if data.draw(st.booleans()):
        pair.reverse()
    for c in pair:
        assert successors(rs, c, cap) == {
            s for s in reference_successors(rs, c) if within_cap(rs, s, cap)
        }


@checked
@given(st.data(), caps)
def test_successors_match_reference(data, cap):
    # The drawn configuration may itself hold messages over the cap.
    p = data.draw(protocols)
    check_successors_twice(data, compile_rules(p), data.draw(configuration(p)), cap)


# Two five-state towers: 25 states, whose doubled keys fire only where
# the count reaches 2.
TOWERS = pv.product(
    [pv.build_simple_threshold(s, 4, ("a", "b")) for s in "ab"], lambda bits: bits[0], name="towers"
)


@checked
@given(st.data())
def test_tower_product_successors_match_reference(data):
    rs = compile_rules(TOWERS)
    assert len(rs.names) == 25
    check_successors_twice(data, rs, data.draw(configuration(TOWERS)))


# The queued simulation of an averaging protocol: 38 elements, 6 of them
# messages, and receives defined for 67 of the 192 (state, message) pairs.
QUEUED, _ = pv.two_way_to_queued(pv.build_threshold_avg(pv.Threshold({"a": 1, "b": -1}, 1)))


@checked
@given(st.data(), caps)
def test_queued_target_successors_match_reference(data, cap):
    rs = compile_rules(QUEUED)
    assert (len(rs.names), len(rs.message_ids), len(QUEUED.recv)) == (38, 6, 67)
    check_successors_twice(data, rs, data.draw(configuration(QUEUED)), cap)


@checked
@given(st.data(), caps)
def test_explore_and_labels_match_reference(data, cap):
    p = data.draw(protocols)
    rs = compile_rules(p)
    c0 = data.draw(configuration(p))
    try:
        nodes, succ, _ = reference_explore(rs, c0, cap)
    except BudgetExceeded:
        with pytest.raises(BudgetExceeded):
            pv.explore(rs, rs.encode(c0), node_budget=BUDGET, transit_cap=cap)
        return
    g = pv.explore(rs, rs.encode(c0), node_budget=BUDGET, transit_cap=cap)
    decoded = list(map(rs.decode, g.nodes))
    assert decoded[0] == c0
    assert set(decoded) == set(nodes)
    assert len(decoded) == len(nodes)
    assert {(decoded[i], decoded[j]) for i, out in enumerate(g.succ) for j in out} == {
        (nodes[i], nodes[j]) for i, out in enumerate(succ) for j in out
    }
    assert dict(zip(decoded, label_stability(g)[0])) == dict(
        zip(nodes, reference_labels(p, nodes, succ))
    )


@checked
@given(st.data(), caps)
def test_verdict_matches_reference(data, cap):
    p = data.draw(protocols)
    x = data.draw(input_of(p))
    try:
        status, value, ref_path = reference_verdict(p, x, cap)
    except BudgetExceeded:
        with pytest.raises(BudgetExceeded):
            pv.verdict(p, x, node_budget=BUDGET, transit_cap=cap)
        return
    v = pv.verdict(p, x, node_budget=BUDGET, transit_cap=cap)
    assert (v.status, v.value) == (status, value)
    if ref_path is None:
        assert v.witness is None
        return
    # Witness paths may differ from the reference's, but each one is a
    # chain of reference successors from the root, of the same length.
    rs = compile_rules(p)
    if cap is None and rs.message_ids:
        cap = len(x)
    path = v.witness
    assert isinstance(path, tuple) and len(path) == len(ref_path)
    assert path[0] == initial_config(p, x)
    for a, b in zip(path, path[1:]):
        assert b in reference_successors(rs, a) and within_cap(rs, b, cap)


@checked
@given(st.data(), caps)
def test_verdict_matches_bottom_scc_reference(data, cap):
    p = data.draw(protocols)
    x = data.draw(input_of(p))
    rs = compile_rules(p)
    if cap is None and rs.message_ids:
        cap = len(x)
    c0 = initial_config(p, x)
    try:
        nodes, succ, _ = reference_explore(rs, c0, cap)
    except BudgetExceeded:
        with pytest.raises(BudgetExceeded):
            pv.verdict(p, x, node_budget=BUDGET, transit_cap=cap)
        return
    v = pv.verdict(p, x, node_budget=BUDGET, transit_cap=cap)
    assert (v.status, v.value) == bottom_scc_verdict(p, nodes, succ)
    # Each summary bit against its definition on the reference closure.
    labels = reference_labels(p, nodes, succ)
    closure = [reachable(succ, i) for i in range(len(nodes))]
    reaches = [any(labels[j] is not None for j in closure[i]) for i in range(len(nodes))]
    want = {
        nodes[i]: (
            labels[i] is not None,
            any(labels[j] == 0 for j in closure[i]),
            any(labels[j] == 1 for j in closure[i]),
            not all(reaches[j] for j in closure[i]),
        )
        for i in range(len(nodes))
    }
    g = pv.explore(rs, rs.encode(c0), node_budget=BUDGET, transit_cap=cap)
    _, summary = label_stability(g)
    assert dict(zip(map(rs.decode, g.nodes), map(summary_bits, summary))) == want


# -- the memo shared between explorations ----------------------------------------


def fresh_verdict(p, x, cap, node_budget=BUDGET):
    """A lone ``verdict`` call, or None when it exceeds the budget."""
    try:
        return pv.verdict(p, x, node_budget=node_budget, transit_cap=cap)
    except BudgetExceeded:
        return None


@checked
@given(st.data(), caps, st.integers(1, 4))
def test_sweep_matches_fresh_verdicts(data, cap, max_n):
    p = data.draw(protocols)
    report = pv.sweep(p, lambda x: True, max_n, node_budget=BUDGET, transit_cap=cap)
    for e in report.entries:
        fresh = fresh_verdict(p, e.input, cap)
        if fresh is not None:
            # Status, value and witness path alike.
            assert e.error is None and e.verdict == fresh
        else:
            # The memo only removes nodes, so a budget the lone call
            # exceeds may still hold for the sweep, but then the sweep
            # decided a stable verdict without a witness search.
            assert e.error is not None or e.verdict.stable


@checked
@given(st.data(), caps, st.integers(1, 4), st.integers(2, 12))
def test_sweep_after_budget_failure_matches_fresh_verdicts(data, cap, max_n, budget):
    p = data.draw(protocols)
    report = pv.sweep(p, lambda x: True, max_n, node_budget=budget, transit_cap=cap)
    failed = False
    for e in report.entries:
        if e.error is not None:
            failed = True
            assert fresh_verdict(p, e.input, cap, budget) is None
        elif failed:
            # A later verdict read nothing from the failed graph: it
            # equals the lone call with the full budget.
            fresh = fresh_verdict(p, e.input, cap)
            assert fresh is None or e.verdict == fresh


@checked
@given(st.data(), caps, st.integers(2, 3))
def test_minimal_unstable_matches_fresh_labels(data, cap, size_bound):
    p = data.draw(protocols)
    rs = compile_rules(p)
    unstable = []
    for c in pv.enumerate_configs(p, size_bound):
        try:
            g = pv.explore(rs, rs.encode(c), node_budget=BUDGET, transit_cap=cap)
        except BudgetExceeded:
            return
        if label_stability(g)[0][0] is None:
            unstable.append(c)
    # A memo only removes nodes, so every lone exploration fitting the
    # budget means that the shared ones fit it too.
    analysis = pv.minimal_unstable(p, size_bound, node_budget=BUDGET, transit_cap=cap)
    assert analysis.unstable == tuple(unstable)


def test_sweep_explores_a_reached_root_as_one_node(monkeypatch):
    # Under the one-step tower, input {a:1, b:2} starts at {0:2, 1:1} and
    # reaches {0:1, 1:2}, the root of {a:2, b:1}, which comes after it
    # among the inputs of size 3.
    p = pv.build_simple_threshold("a", 1, ("a", "b"))
    root = Multiset({"0": 1, "1": 2})
    sizes = {}
    explore = verifier.explore

    def recording(rs, c0, *args, **kwargs):
        g = explore(rs, c0, *args, **kwargs)
        sizes[rs.decode(c0)] = len(g.nodes)
        return g

    monkeypatch.setattr(verifier, "explore", recording)
    report = pv.sweep(p, lambda x: x["a"] >= 1, max_n=3)
    assert report.clean
    assert sizes[Multiset({"0": 2, "1": 1})] == 3
    assert sizes[root] == 1
    rs = compile_rules(p)
    assert len(explore(rs, rs.encode(root)).nodes) == 2


def test_sweep_explores_a_failing_input_without_leaves_once(monkeypatch):
    # No rule fires.  {y:2} rests at the stable-1 {B:2}; {x:1, y:1}, the
    # next input of size 2, rests at the mixed {A:1, B:1}, which diverges
    # and reaches nothing the memo holds, so its witness needs no second
    # exploration.
    p = ProtocolSpec(
        name="idle",
        kind=ModelKind.TWO_WAY,
        states=frozenset("AB"),
        inputs=("x", "y"),
        iota={"x": "A", "y": "B"},
        output={"A": 0, "B": 1},
        delta={(a, b): (a, b) for a in "AB" for b in "AB"},
    )
    roots: Counter = Counter()
    explore = verifier.explore

    def counting(rs, c0, *args, **kwargs):
        roots[rs.decode(c0)] += 1
        return explore(rs, c0, *args, **kwargs)

    monkeypatch.setattr(verifier, "explore", counting)
    report = pv.sweep(p, lambda x: True, max_n=2)
    mixed = report.entries[3]
    assert mixed.input == Multiset({"x": 1, "y": 1}) and mixed.verdict.status == Verdict.DIVERGES
    assert roots[Multiset({"A": 1, "B": 1})] == 1
    assert sum(roots.values()) == len(report.entries)


# -- fair runs against a walk on the whole graph ------------------------------------


def reference_fair_run(p, x, seed, max_steps, cap):
    """(configs, converged, output) of a walk on the whole labelled graph
    from the initial configuration: the steps choose among ``g.succ``."""
    rs = compile_rules(p)
    if cap is None and rs.message_ids:
        cap = len(x)
    g = pv.explore(rs, rs.encode(initial_config(p, x)), node_budget=BUDGET, transit_cap=cap)
    labels, _ = label_stability(g)
    rng = random.Random(seed)
    i = 0
    configs = [rs.decode(g.nodes[0])]
    for _ in range(max_steps):
        if labels[i] is not None or not g.succ[i]:
            break
        i = rng.choice(g.succ[i])
        configs.append(rs.decode(g.nodes[i]))
    return configs, labels[i] is not None, labels[i]


@checked
@given(st.data(), caps, st.sampled_from([0, 1, 2, 3, 4, 5, 10_000]))
def test_fair_run_matches_walk_on_whole_graph(data, cap, max_steps):
    p = data.draw(protocols)
    x = data.draw(input_of(p))
    for seed in range(4):
        try:
            want = reference_fair_run(p, x, seed, max_steps, cap)
        except BudgetExceeded:
            return
        trace = pv.fair_run(
            p, x, seed=seed, max_steps=max_steps, node_budget=BUDGET, transit_cap=cap
        )
        assert (trace.configs, trace.converged, trace.output) == want


def test_fair_run_walks_on_after_an_unstable_candidate(monkeypatch):
    # No single step changes the output 0 of the initial {1:3}, so the run
    # explores there, but {1:3} is unstable: the walk goes on, reading the
    # labels of that one exploration, until it reaches the stable {3:3}.
    p = pv.build_simple_threshold("a", 3, ("a", "b"))
    x = Multiset({"a": 3})
    calls = []
    explore = verifier.explore

    def counting(rs, root, *args, **kwargs):
        calls.append(rs.decode(root))
        return explore(rs, root, *args, **kwargs)

    monkeypatch.setattr(verifier, "explore", counting)
    trace = pv.fair_run(p, x, seed=0)
    assert calls == [Multiset({"1": 3})] == trace.configs[:1]
    assert trace.converged and trace.output == 1 and trace.steps == 5
    rs = compile_rules(p)
    g = explore(rs, rs.encode(calls[0]))
    labels = dict(zip(map(rs.decode, g.nodes), label_stability(g)[0]))
    assert [labels[c] for c in trace.configs] == [None] * 5 + [1]
    assert (trace.configs, trace.converged, trace.output) == reference_fair_run(
        p, x, 0, 10_000, None
    )


# -- the on-demand rule table against an eager build ------------------------------


def eager_table(p: ProtocolSpec, ids) -> dict:
    """Every rule of ``p`` entered up front, one ``add`` per spec entry:
    no-ops dropped, identical changes under one LHS merged."""
    messages = {ids[m] for m in p.messages} if p.kind.is_send_receive else set()
    table: dict = {}

    def add(lhs, rhs):
        lhs = sorted(ids[e] for e in lhs)
        delta = dict.fromkeys(lhs, 0)
        for e in lhs:
            delta[e] -= 1
        for e in rhs:
            delta[ids[e]] = delta.get(ids[e], 0) + 1
        changes = tuple(sorted([item for item in delta.items() if item[1]], reverse=True))
        if not changes:
            return
        effects = table.setdefault(tuple(lhs), [])
        if changes not in [c for c, _ in effects]:
            produced = tuple((e, k) for e, k in changes if k > 0 and e in messages)
            effects.append((changes, produced))

    def expand(c: Multiset) -> list:
        return [e for e, n in c.items() for _ in range(n)]

    if p.kind.is_pairwise:
        for (q1, q2), (r1, r2) in p.delta.items():
            add((q1, q2), (r1, r2))
        if p.mirrors:
            for q in p.states:
                add((q,), (p.delta[(q, q)][1],))
    elif p.kind.is_send_receive:
        for q, (m, q2) in p.send.items():
            add((q,), (q2, m))
        for (q, m), q2 in p.recv.items():
            add((q, m), (q2,))
    else:
        for lhs, rhs in p.rules:
            add(expand(lhs), expand(rhs))
    return table


def eager_rules(names: tuple, table: dict) -> Counter:
    """The rules of an eager table as a multiset of ``(lhs, rhs)`` pairs."""
    out: Counter = Counter()
    for key, effects in table.items():
        lhs = Counter(names[e] for e in key)
        for changes, _ in effects:
            rhs = lhs.copy()
            for e, k in changes:
                rhs[names[e]] += k
            out[Multiset(lhs), Multiset(rhs)] += 1
    return out


@checked
@given(st.one_of(pairwise(), send_receive(), abstract(min_lhs=0)))
def test_on_demand_table_matches_eager_build(p):
    rs = compile_rules(p)
    ref = eager_table(p, rs.ids)
    before = dict(rs.table)
    assert Counter(rs.rules) == eager_rules(rs.names, ref)
    assert dict(rs.table) == before
    keys = [
        key
        for size in range(5)
        for key in combinations_with_replacement(range(len(rs.names)), size)
    ]
    for key in keys:
        rs.table[key]
    # Keys outside the reference, such as every key of three or four
    # elements in a concrete kind, must give no effects.
    for key in keys:
        assert Counter(rs.table[key]) == Counter(ref.get(key, ())), key
    assert Counter(rs.rules) == eager_rules(rs.names, ref)


@checked
@given(send_receive(), caps, st.integers(1, 3))
def test_send_receive_sweep_looks_up_only_keys_that_can_hold_a_rule(p, cap, max_n):
    # A send/receive rule consumes one state, or one state and one message.
    made = []

    def recording(spec):
        made.append(compile_rules(spec))
        return made[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verifier, "compile_rules", recording)
        pv.sweep(p, lambda x: True, max_n, node_budget=BUDGET, transit_cap=cap)
    (rs,) = made
    assert rs.table
    for key in rs.table:
        assert len(key) <= 2 and sum(e not in rs.message_ids for e in key) == 1, key
