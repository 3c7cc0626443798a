"""Exhaustive finite-population verification of stable computation.

For a fixed input the reachable configuration space is finite (message
kinds are explored under a per-element transit cap), so the fairness
quantifier reduces to graph conditions: a protocol stably computes b on
an input iff some output-stable-b configuration is reachable, none with
the opposite output is, and every reachable configuration can still
reach a stable one.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from operator import sub
from typing import Callable, Iterator, Optional

from .models import ProtocolSpec, RuleSet, compile_rules, initial_config
from .multiset import Multiset
from .protocols import SetUnionProtocol

DEFAULT_NODE_BUDGET = 10**6

STABLE0 = 0
STABLE1 = 1
UNSTABLE = None

# A node's summary packs its label and what its reachable set holds:
# REACHES0 / REACHES1 when a stable-0 / stable-1 node is reachable,
# STUCK when some reachable node reaches no stable node, and STABLE when
# the node itself is stable.  A stable-b node reaches only stable-b
# nodes, so its summary is exactly STABLE | REACHES<b>.
REACHES0 = 1
REACHES1 = 2
STUCK = 4
STABLE = 8
_STABLE_SUMMARY = {STABLE0: STABLE | REACHES0, STABLE1: STABLE | REACHES1, UNSTABLE: 0}
_LABEL = [UNSTABLE] * 16
_LABEL[STABLE | REACHES0] = STABLE0
_LABEL[STABLE | REACHES1] = STABLE1


class BudgetExceeded(RuntimeError):
    def __init__(self, budget: int, frontier: int):
        self.budget = budget
        self.frontier = frontier
        super().__init__(
            f"exploration exceeded the node budget of {budget} "
            f"({frontier} configurations still on the frontier)"
        )


@dataclass
class ReachabilityGraph:
    """Complete successor graph from a root configuration.

    ``nodes`` holds the configuration codes in BFS order, the root
    first; ``ruleset.decode`` renders one as a ``Multiset``.  ``succ[i]``
    lists the indices of node ``i``'s successors in the order that
    ``RuleSet.successor_codes`` gives them, under the cap the graph was
    explored with.  ``leaves`` maps the index of every node that
    ``explore`` took from its memo to the memo's summary; those nodes are
    not expanded.
    """

    nodes: list
    succ: list
    ruleset: RuleSet
    leaves: dict = field(default_factory=dict)

    def path_to(self, i: int) -> list:
        """Configurations, decoded, along the BFS tree path from the root
        to node i.  Nodes were expanded in index order, so a node's BFS
        parent, the node that found it, is the first whose ``succ`` lists
        it."""
        parent: dict = {}
        for j, outs in enumerate(self.succ):
            for k in outs:
                parent.setdefault(k, j)
        path = [i]
        while path[-1]:
            path.append(parent[path[-1]])
        return [self.ruleset.decode(self.nodes[j]) for j in reversed(path)]


def _check_bounds(node_budget: int, transit_cap: Optional[int]) -> None:
    if node_budget < 1:
        raise ValueError(f"node budget must be at least 1, got {node_budget}")
    if transit_cap is not None and transit_cap < 1:
        raise ValueError(f"transit cap must be at least 1, got {transit_cap}")


def explore(
    rs: RuleSet,
    root: tuple,
    node_budget: int = DEFAULT_NODE_BUDGET,
    transit_cap: Optional[int] = None,
    known: Optional[Mapping] = None,
) -> ReachabilityGraph:
    """Breadth-first closure of the successor relation from the
    configuration with code ``root`` (``rs.encode`` of a ``Multiset``).

    Each node's successors are ``rs.successor_codes(code, transit_cap)``,
    visited in that order: ``transit_cap`` clamps the count of every
    individual message element, a root over it included, and nothing yet
    marks a graph that lost successors to the cap.

    A reached configuration whose code is in ``known`` (code to summary,
    as ``label_stability`` computes it under the same rules and cap)
    joins the graph as one of its ``leaves`` and is not expanded; it
    counts against ``node_budget``, the configurations behind it do not.
    """
    if not root:
        raise ValueError("cannot explore from an empty configuration")
    _check_bounds(node_budget, transit_cap)
    if known is None:
        known = {}
    codes = [root]
    index = {root: 0}
    succ: list[list[int]] = [[]]
    leaves: dict = {}
    successor_codes = rs.successor_codes
    i = 0
    # The queue is codes[i:], since BFS appends each new node to both.
    while i < len(codes):
        code = codes[i]
        if known and code in known:
            leaves[i] = known[code]
            i += 1
            continue
        outs = succ[i]
        for nxt in successor_codes(code, transit_cap):
            j = index.get(nxt)
            if j is None:
                if len(codes) >= node_budget:
                    frontier = sum(c not in known for c in codes[i:])
                    raise BudgetExceeded(node_budget, frontier)
                j = len(codes)
                index[nxt] = j
                codes.append(nxt)
                succ.append([])
            outs.append(j)
        i += 1
    return ReachabilityGraph(codes, succ, rs, leaves)


def label_stability(g: ReachabilityGraph) -> tuple:
    """Per-node stability labels and packed summaries.

    ``labels[i]`` is 0 or 1 when node ``i`` is stable with that output
    (it and every node reachable from it output that bit), else ``None``
    for unstable.  ``summary[i]`` ORs the bits REACHES0, REACHES1, STUCK
    and STABLE (see their definitions) that hold of node ``i``.  Each of
    ``g.leaves`` keeps the summary ``explore`` took from its memo; that
    is exact, because a labelled node's whole reachable set was labelled
    with it, so no leaf shares a component with an unexpanded node.

    Summaries come from one iterative pass of Tarjan's algorithm, which
    completes each strongly connected component only after every
    component reachable from it.  So when a component completes, its
    members are stable-b iff they all output b and every edge leaving
    the component goes to a stable-b node; otherwise they reach what the
    nodes behind those edges reach, and are stuck when that is no
    stable node or some node behind them is stuck.
    """
    succ, nodes, output = g.succ, g.nodes, g.ruleset.output_code
    n = len(nodes)
    summary = [0] * n
    # Preorder numbers count from 1, so 0 marks an unvisited node.  A
    # visited node is on the Tarjan stack until ``comp`` names the root
    # of its component.
    index = [0] * n
    low = [0] * n
    comp = [-1] * n
    # Leaves, which have no successors in ``g``, enter as visited,
    # completed components of their own.
    for i, s in g.leaves.items():
        summary[i] = s
        index[i], comp[i] = -1, i
    stack: list[int] = []
    counter = 0
    for root in range(n):
        if index[root]:
            continue
        counter += 1
        index[root] = low[root] = counter
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, outs = work[-1]
            for w in outs:
                if not index[w]:
                    counter += 1
                    index[w] = low[w] = counter
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if comp[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] != index[v]:
                    continue
                k = len(stack) - 1
                while stack[k] != v:
                    k -= 1
                members = stack[k:]
                del stack[k:]
                for w in members:
                    comp[w] = v
                bits = {output(nodes[w]) for w in members}
                stable = _STABLE_SUMMARY[bits.pop() if len(bits) == 1 else UNSTABLE]
                behind = 0
                for w in members:
                    for x in succ[w]:
                        if comp[x] != v:
                            s = summary[x]
                            behind |= s
                            if s != stable:
                                stable = 0
                if stable:
                    s = stable
                else:
                    s = behind & (REACHES0 | REACHES1 | STUCK)
                    if not s & (REACHES0 | REACHES1):
                        s = STUCK
                for w in members:
                    summary[w] = s
    return [_LABEL[s] for s in summary], summary


@dataclass(frozen=True)
class Verdict:
    STABLY_COMPUTES = "stably-computes"
    NOT_WELL_SPECIFIED = "not-well-specified"
    DIVERGES = "diverges"

    status: str
    value: Optional[int] = None
    witness: Optional[tuple] = None

    @property
    def stable(self) -> bool:
        return self.status == Verdict.STABLY_COMPUTES

    def __str__(self) -> str:
        if self.stable:
            return f"stably computes {self.value}"
        return self.status


def _labelled(
    rs: RuleSet,
    root: tuple,
    node_budget: int,
    transit_cap: Optional[int],
    known: Optional[dict],
) -> tuple:
    """The graph from the code ``root`` and its node summaries.

    ``known``, when given, maps codes to summaries under the same rules
    and cap: the exploration stops at the configurations in it, and the
    summaries of the new graph are added to it.
    """
    g = explore(rs, root, node_budget=node_budget, transit_cap=transit_cap, known=known)
    _, summary = label_stability(g)
    if known is not None:
        known.update(zip(g.nodes, summary))
    return g, summary


def _start(
    p: ProtocolSpec, x: Multiset, transit_cap: Optional[int], ruleset: Optional[RuleSet] = None
) -> tuple:
    """The rule set of ``p``, the code of the initial configuration of
    input ``x`` and the transit cap for it, which defaults to ``len(x)``
    for specs with messages."""
    rs = ruleset if ruleset is not None else compile_rules(p)
    if transit_cap is None and rs.message_ids:
        transit_cap = len(x)
    return rs, rs.encode(initial_config(p, x)), transit_cap


def verdict(
    p: ProtocolSpec,
    x: Multiset,
    node_budget: int = DEFAULT_NODE_BUDGET,
    transit_cap: Optional[int] = None,
    ruleset: Optional[RuleSet] = None,
    known: Optional[dict] = None,
) -> Verdict:
    """Decide how the protocol behaves on one input.

    Stably computes b iff a stable-b configuration exists, none with the
    opposite output does, and every configuration can reach a stable-b
    one.  All three are read off the root's summary from
    ``label_stability``: REACHES0 and REACHES1 together mean not well
    specified, else STUCK means diverges, else the protocol stably
    computes the one bit reached.  Otherwise the verdict's witness is the
    tuple of configurations on the BFS tree path to the first node in BFS
    order that shows the failure: the first stable-1 node when both bits
    occur, else the first node that reaches no stable node (the root when
    no node is stable).

    ``known``, when given, maps codes to summaries under the same rules
    and cap; the exploration stops at the configurations in it, and the
    summaries of the new graph are added to it.  A failing input whose
    graph took a leaf from ``known`` is explored again without it, so
    the witness is the same BFS-shortest path as in a lone call.
    """
    rs, root, transit_cap = _start(p, x, transit_cap, ruleset)
    g, summary = _labelled(rs, root, node_budget, transit_cap, known)
    s = summary[0]
    if s & REACHES0 and s & REACHES1:
        status, first = Verdict.NOT_WELL_SPECIFIED, STABLE | REACHES1
    elif s & STUCK:
        status, first = Verdict.DIVERGES, STUCK
    else:
        return Verdict(Verdict.STABLY_COMPUTES, value=STABLE1 if s & REACHES1 else STABLE0)
    if g.leaves:
        g, summary = _labelled(rs, root, node_budget, transit_cap, None)
    return Verdict(status, witness=tuple(g.path_to(summary.index(first))))


def enumerate_inputs(alphabet, max_n: int) -> Iterator[Multiset]:
    """All input multisets with 1 <= size <= max_n, ordered by size and
    then lexicographically by count vector over the sorted alphabet.
    Raises ``ValueError`` on an empty alphabet, which has no inputs."""
    symbols = sorted(alphabet)
    if not symbols:
        raise ValueError("the input alphabet is empty")

    for n in range(1, max_n + 1):
        # Stars and bars: the counts are the gaps between nondecreasing
        # cuts of 0..n, and the cuts come in lexicographic order, so the
        # count vectors do too.
        for cuts in combinations_with_replacement(range(n + 1), len(symbols) - 1):
            yield Multiset._from_items(zip(symbols, map(sub, cuts + (n,), (0,) + cuts)))


@dataclass(frozen=True)
class SweepEntry:
    input: Multiset
    expected: int
    verdict: Optional[Verdict]
    ok: bool
    error: Optional[str] = None


@dataclass
class VerificationReport:
    protocol: str
    max_n: int
    transit_cap: Optional[int]
    entries: list = field(default_factory=list)

    @property
    def mismatches(self) -> list:
        return [e for e in self.entries if not e.ok and e.error is None]

    @property
    def budget_failures(self) -> list:
        return [e for e in self.entries if e.error is not None]

    @property
    def clean(self) -> bool:
        return all(e.ok for e in self.entries)

    def summary(self) -> str:
        lines = [
            f"protocol {self.protocol}: {len(self.entries)} inputs up to n={self.max_n}"
            + (f" (transit cap {self.transit_cap})" if self.transit_cap else "")
        ]
        for e in self.mismatches:
            got = str(e.verdict)
            lines.append(f"  mismatch at {e.input}: expected {e.expected}, got {got}")
            if e.verdict and e.verdict.witness:
                lines.append(f"    witness: {' -> '.join(map(str, e.verdict.witness))}")
        for e in self.budget_failures:
            lines.append(f"  budget exceeded at {e.input}: {e.error}")
        if self.clean:
            lines.append("  all verdicts match")
        return "\n".join(lines)


def sweep(
    p: ProtocolSpec,
    psi: Callable[[Multiset], bool],
    max_n: int,
    promise: Optional[Callable[[Multiset], bool]] = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
    transit_cap: Optional[int] = None,
) -> VerificationReport:
    """Verify every input up to ``max_n`` against the claimed predicate.

    Inputs failing the promise are skipped.  A budget overrun on one
    input is recorded, not fatal.  Inputs come by size and every input
    of one size has the same transit cap, so the inputs of one size
    share one memo of node summaries (see ``verdict``), and each
    configuration is labelled once per size.  The budget of an input
    counts the configurations its own exploration visits, so whether it
    is exceeded can depend on the inputs before it.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be at least 1, got {max_n}")
    rs = compile_rules(p)
    report = VerificationReport(protocol=p.name, max_n=max_n, transit_cap=transit_cap)
    known: dict = {}
    size = 0
    for x in enumerate_inputs(p.inputs, max_n):
        if promise is not None and not promise(x):
            continue
        if len(x) != size:
            # The default transit cap is the size, and under the concrete
            # kinds no configuration of an earlier size comes up again.
            known, size = {}, len(x)
        expected = int(bool(psi(x)))
        try:
            v = verdict(
                p, x, node_budget=node_budget, transit_cap=transit_cap, ruleset=rs, known=known
            )
        except BudgetExceeded as exc:
            report.entries.append(SweepEntry(x, expected, None, False, error=str(exc)))
            continue
        ok = v.stable and v.value == expected
        report.entries.append(SweepEntry(x, expected, v, ok))
    return report


@dataclass(frozen=True)
class UnstableAnalysis:
    minimal: tuple
    truncation_k: int
    unstable: tuple


def enumerate_configs(p: ProtocolSpec, max_size: int) -> Iterator[Multiset]:
    """All legal configurations with 1..max_size elements: at least one
    agent state, any mix of states and (for message kinds) messages.
    They come in nondecreasing size."""
    elems = sorted(p.states) + sorted(p.messages)
    for c in enumerate_inputs(elems, max_size):
        if any(e in p.states for e in c.support):
            yield c


def minimal_unstable(
    p: ProtocolSpec,
    size_bound: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
    transit_cap: Optional[int] = None,
) -> UnstableAnalysis:
    """Minimal output-unstable configurations up to the size bound.

    Also reports the implied truncation constant: the largest single
    multiplicity appearing in a minimal unstable configuration (at least
    1), which empirically suffices for truncation to preserve stability.

    Each configuration is labelled by exploring from it, and the
    explorations share one memo of node summaries (see ``_labelled``),
    so each reached configuration is labelled once.
    """
    if size_bound < 1:
        raise ValueError(f"size bound must be at least 1, got {size_bound}")
    rs = compile_rules(p)
    known: dict = {}
    unstable = []
    for c in enumerate_configs(p, size_bound):
        code = rs.encode(c)
        if code not in known:
            _labelled(rs, code, node_budget, transit_cap, known)
        if _LABEL[known[code]] is UNSTABLE:
            unstable.append(c)
    # Configurations come in nondecreasing size, so an unstable one
    # strictly below ``c`` came earlier, with a minimal one below it.
    minimal: list = []
    for c in unstable:
        if not any(d <= c for d in minimal):
            minimal.append(c)
    k = max((n for c in minimal for _, n in c.items()), default=1)
    return UnstableAnalysis(tuple(minimal), max(k, 1), tuple(unstable))


@dataclass
class Trace:
    configs: list
    converged: bool
    output: Optional[int]

    @property
    def steps(self) -> int:
        return len(self.configs) - 1


def fair_run(
    p: ProtocolSpec,
    x: Multiset,
    seed: int = 0,
    max_steps: int = 10_000,
    node_budget: int = DEFAULT_NODE_BUDGET,
    transit_cap: Optional[int] = None,
) -> Trace:
    """One random execution of input ``x``: from its initial configuration,
    take a uniformly chosen step until the configuration is output stable
    or has no successor, or ``max_steps`` steps are taken (approximating
    fairness).  The trace converged iff it ends at a stable configuration.

    The first phase steps on ``rs.successor_codes`` until it meets a
    candidate, a configuration with an output that no single step
    changes; every other configuration is unstable, so it needs no
    labels, and a run that ends before a candidate explores nothing.
    The second explores and labels the graph from the candidate once,
    under ``node_budget``, and walks on along its ``g.succ``, which
    holds every configuration still to come.  Both list successors in
    the same order, so a seed gives the same run as a walk on the whole
    graph from the initial configuration.
    """
    if max_steps < 0:
        raise ValueError(f"max_steps must be at least 0, got {max_steps}")
    rs, code, transit_cap = _start(p, x, transit_cap)
    # The walk may end before it explores, so it checks explore's bounds.
    _check_bounds(node_budget, transit_cap)
    rng = random.Random(seed)
    output = rs.output_code
    codes = [code]
    while True:
        found = rs.successor_codes(code, transit_cap)
        out = output(code)
        if out is not None and all(output(c) == out for c in found):
            break
        if len(codes) > max_steps or not found:
            return Trace(list(map(rs.decode, codes)), converged=False, output=None)
        code = rng.choice(found)
        codes.append(code)
    g, summary = _labelled(rs, code, node_budget, transit_cap, None)
    i = 0
    while _LABEL[summary[i]] is UNSTABLE and len(codes) <= max_steps and g.succ[i]:
        i = rng.choice(g.succ[i])
        codes.append(g.nodes[i])
    label = _LABEL[summary[i]]
    return Trace(list(map(rs.decode, codes)), converged=label is not UNSTABLE, output=label)


@dataclass(frozen=True)
class LocalFairResult:
    states: tuple
    rounds: int
    output: int


def local_fair_run(protocol: SetUnionProtocol, x: Multiset) -> LocalFairResult:
    """Round-based schedule satisfying local fairness for the set-union
    protocol: each round every agent sends, then every distinct pending
    message value is delivered to every agent.  Receiving is set union,
    so the delivery order within a round does not matter.  States only
    grow, so a fixpoint is forced; it is reached within one full-delivery
    round per input value."""
    if not x:
        raise ValueError("empty input")
    states = [protocol.initial_state(s) for s, n in x.items() for _ in range(n)]
    rounds = 0
    for _ in range(len(protocol.alphabet) + 1):
        new_states = list(states)
        for m in set(states):
            new_states = [protocol.receive(s, m) for s in new_states]
        rounds += 1
        if new_states == states:
            break
        states = new_states
    out = protocol.output(states[0]) if len({*states}) == 1 else None
    return LocalFairResult(tuple(states), rounds, out)
