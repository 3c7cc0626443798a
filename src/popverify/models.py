"""Protocol specifications for the six interaction models.

A ``ProtocolSpec`` describes a protocol in one of the concrete models
(two-way and its one-way restrictions, or the send/receive models with
queuing), or directly as a rewriting system over a combined alphabet.
Every spec compiles to a ``RuleSet`` whose successor function drives
simulation and verification uniformly.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, combinations
from typing import Mapping, Optional

from .multiset import Multiset


class InvalidModel(ValueError):
    """Raised when a spec violates the constraints of its declared kind."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class EmptyInput(ValueError):
    """Raised when an input assignment contains no agents."""


class ModelKind(Enum):
    TWO_WAY = "two-way"
    IMMEDIATE_TRANSMISSION = "immediate-transmission"
    IMMEDIATE_OBSERVATION = "immediate-observation"
    QUEUED_TRANSMISSION = "queued-transmission"
    DELAYED_TRANSMISSION = "delayed-transmission"
    DELAYED_OBSERVATION = "delayed-observation"
    ABSTRACT = "abstract"

    @property
    def is_pairwise(self) -> bool:
        """True for kinds specified by a joint transition table."""
        return self in _PAIRWISE_ORDER

    @property
    def is_send_receive(self) -> bool:
        """True for kinds specified by send/receive tables."""
        return self in _SEND_RECEIVE_ORDER


# Generality order within each family; used for the specialization chain.
_PAIRWISE_ORDER = [
    ModelKind.IMMEDIATE_OBSERVATION,
    ModelKind.IMMEDIATE_TRANSMISSION,
    ModelKind.TWO_WAY,
]
_SEND_RECEIVE_ORDER = [
    ModelKind.DELAYED_OBSERVATION,
    ModelKind.DELAYED_TRANSMISSION,
    ModelKind.QUEUED_TRANSMISSION,
]


def generalize_kind(a: ModelKind, b: ModelKind) -> ModelKind:
    """The least general kind that both ``a`` and ``b`` specialize."""
    for order in (_PAIRWISE_ORDER, _SEND_RECEIVE_ORDER):
        if a in order and b in order:
            return order[max(order.index(a), order.index(b))]
    raise ValueError(f"kinds {a.value} and {b.value} are in different families")


@dataclass(frozen=True)
class ProtocolSpec:
    """A protocol in one concrete model.

    Pairwise kinds use ``delta`` (a total joint table on states).
    Send/receive kinds use ``send`` (state -> (message, new state)) and
    ``recv`` ((state, message) -> new state; may be partial only for
    queued transmission).  Abstract protocols carry raw ``rules``.

    ``mirrors`` says whether one agent can interact with itself.  Left
    out, it is settled from the kind: an anonymous message in transit
    may reach its own sender, so send/receive kinds self-deliver
    (``validate_model`` rejects ``mirrors=False`` for them), and the
    other kinds do not.
    """

    name: str
    kind: ModelKind
    states: frozenset
    inputs: tuple
    iota: Mapping
    output: Mapping
    messages: frozenset = frozenset()
    delta: Optional[Mapping] = None
    send: Optional[Mapping] = None
    recv: Optional[Mapping] = None
    rules: tuple = ()
    mirrors: Optional[bool] = None

    def __post_init__(self):
        if self.mirrors is None:
            object.__setattr__(self, "mirrors", self.kind.is_send_receive)

    @property
    def elements(self) -> frozenset:
        return self.states | self.messages


def validate_model(p: ProtocolSpec, kind: Optional[ModelKind] = None) -> list[str]:
    """Check the constraints of ``kind`` (default: the declared kind).

    Returns a list of human-readable violations; an empty list means the
    spec is valid for that kind.
    """
    kind = kind or p.kind
    bad: list[str] = []
    overlap = p.states & p.messages
    if overlap:
        bad.append(f"states and messages overlap: {sorted(overlap)}")
    repeated = sorted({s for s in p.inputs if p.inputs.count(s) > 1})
    if repeated:
        bad.append(f"input symbols declared more than once: {repeated}")
    for sigma in p.inputs:
        q = p.iota.get(sigma) if p.iota else None
        if kind is ModelKind.ABSTRACT:
            continue
        if q is None:
            bad.append(f"iota undefined for input {sigma!r}")
        elif q not in p.states:
            bad.append(f"iota({sigma!r}) = {q!r} is not a state")
    for q in sorted(p.states):
        if q not in p.output:
            bad.append(f"output undefined for state {q!r}")
        elif p.output[q] not in (0, 1):
            bad.append(f"output({q!r}) = {p.output[q]!r} is not a bit")
    if kind is not ModelKind.ABSTRACT:
        for e in sorted(set(p.output) - p.states):
            bad.append(f"output given for {e!r}, which is not a state")

    if kind.is_pairwise:
        bad.extend(_validate_pairwise(p, kind))
    elif kind.is_send_receive:
        if not p.mirrors:
            bad.append(
                f"{kind.value} always self-delivers: an anonymous message can "
                "reach its own sender, so mirrors cannot be false"
            )
        bad.extend(_validate_send_receive(p, kind))
    else:
        for lhs, rhs in p.rules:
            stray = [e for e in set(lhs.support) | set(rhs.support) if e not in p.elements]
            if stray:
                bad.append(f"rule {lhs} -> {rhs} uses undeclared elements {sorted(stray)}")
    return bad


def require_valid(p: ProtocolSpec, kind: Optional[ModelKind] = None) -> None:
    """Raise ``InvalidModel`` unless ``p`` satisfies ``kind`` (default: its own)."""
    bad = validate_model(p, kind)
    if bad:
        raise InvalidModel(bad)


def _validate_pairwise(p: ProtocolSpec, kind: ModelKind) -> list[str]:
    bad: list[str] = []
    if p.delta is None:
        return [f"{kind.value} spec has no joint transition table"]
    for q1 in sorted(p.states):
        for q2 in sorted(p.states):
            if (q1, q2) not in p.delta:
                bad.append(f"delta undefined at ({q1!r}, {q2!r})")
                continue
            r1, r2 = p.delta[(q1, q2)]
            if r1 not in p.states or r2 not in p.states:
                bad.append(f"delta({q1!r}, {q2!r}) leaves the state set")
    if bad:
        return bad
    if kind in (ModelKind.IMMEDIATE_TRANSMISSION, ModelKind.IMMEDIATE_OBSERVATION):
        # Initiator update must not depend on the responder.
        for q1 in sorted(p.states):
            images = {p.delta[(q1, q2)][0] for q2 in p.states}
            if len(images) > 1:
                bad.append(
                    f"initiator update at {q1!r} depends on the responder: {sorted(images)}"
                )
    if kind is ModelKind.IMMEDIATE_OBSERVATION:
        for q1 in sorted(p.states):
            for q2 in sorted(p.states):
                if p.delta[(q1, q2)][0] != q1:
                    bad.append(
                        f"initiator changes state in delta({q1!r}, {q2!r}); "
                        "immediate observation requires the identity"
                    )
                    break
    return bad


def _validate_send_receive(p: ProtocolSpec, kind: ModelKind) -> list[str]:
    bad: list[str] = []
    if p.send is None:
        return [f"{kind.value} spec has no send table"]
    for q in sorted(p.states):
        if q not in p.send:
            bad.append(f"send undefined for state {q!r}")
            continue
        m, q2 = p.send[q]
        if m not in p.messages:
            bad.append(f"send({q!r}) emits undeclared message {m!r}")
        if q2 not in p.states:
            bad.append(f"send({q!r}) leaves the state set")
    recv = p.recv or {}
    declared = len(recv)
    for (q, m), q2 in recv.items():
        if q not in p.states or m not in p.messages:
            declared -= 1
            bad.append(f"recv({q!r}, {m!r}) over undeclared symbols")
        elif q2 not in p.states:
            bad.append(f"recv({q!r}, {m!r}) leaves the state set")
    # The declared entries are distinct (state, message) pairs, so they
    # cover every pair unless they are fewer; only then find the gaps.
    must_be_total = kind in (ModelKind.DELAYED_TRANSMISSION, ModelKind.DELAYED_OBSERVATION)
    if must_be_total and declared < len(p.states) * len(p.messages):
        messages = sorted(p.messages)
        for q in sorted(p.states):
            for m in messages:
                if (q, m) not in recv:
                    bad.append(f"recv not total: undefined at ({q!r}, {m!r})")
    if kind is ModelKind.DELAYED_OBSERVATION:
        for q in sorted(p.states):
            if q in p.send and p.send[q][1] != q:
                bad.append(
                    f"send({q!r}) changes the sender's state; "
                    "delayed observation requires it unchanged"
                )
    return bad


class _RuleTable(dict):
    """Sorted LHS ids -> effects, each entry built from the spec on the
    first lookup of its key and kept.

    ``rhs_at(key)`` gives the right-hand sides, as tuples of names, of
    the spec's rules with that LHS; ``rule_keys()`` gives every key that
    has one.  A key without a rule gets an empty entry.  Successors of a
    send/receive configuration look up only a state alone and a state
    with a message, so a send/receive table holds no other key.
    """

    def __init__(self, rhs_at, rule_keys, ids: Mapping, message_ids: frozenset):
        super().__init__()
        self.rhs_at = rhs_at
        self.rule_keys = rule_keys
        self.ids = ids
        self.message_ids = message_ids

    def __missing__(self, key: tuple) -> tuple:
        """Build and keep the effects of the rules with LHS ``key``:
        no-ops dropped, identical changes merged, ``produced`` limited to
        message ids."""
        ids, message_ids = self.ids, self.message_ids
        effects = []
        for rhs in self.rhs_at(key):
            delta: dict = {}
            for e in key:
                delta[e] = delta.get(e, 0) - 1
            for e in rhs:
                e = ids[e]
                delta[e] = delta.get(e, 0) + 1
            changes = tuple(sorted([item for item in delta.items() if item[1]], reverse=True))
            if changes and changes not in [c for c, _ in effects]:
                produced = tuple([(e, k) for e, k in changes if k > 0 and e in message_ids])
                effects.append((changes, produced))
        effects = self[key] = tuple(effects)
        return effects


@dataclass(frozen=True)
class RuleSet:
    """Integer-coded multiset-rewriting view of a protocol.

    Element ``i`` is ``names[i]``; ids follow sorted-name order.  A
    configuration is coded as a flat tuple ``(id, count, id, count, ...)``
    sorted by id, with positive counts; ``encode`` and ``decode`` convert
    to and from ``Multiset``, which is for parsing and rendering only.

    ``table`` maps the sorted LHS ids of the rules, such as ``(q,)``,
    ``(q, m)`` or ``(q, q)``, to one effect per rule with that LHS.  An
    effect is ``(changes, produced)``: the net ``(id, delta)`` changes
    from the highest id down, and the subset of them that raise the
    count of a message, which is all the transit cap needs to check.
    The table is filled on demand (see ``_RuleTable``), so only rules
    whose LHS some explored configuration holds are ever built.
    ``scan_keys`` lists an abstract spec's LHS keys when one is empty or
    longer than two.
    ``bits[i]`` is the output bit of element ``i``, or ``None`` for
    elements that carry none (messages of concrete send/receive kinds).
    ``message_ids`` holds the ids of the messages the transit cap bounds.

    ``plans`` maps a support (``code[::2]``) to the plan ``_plan`` built
    for it when ``successor_codes`` first met it, so it holds at most one
    plan per support the rule set has expanded.
    """

    names: tuple
    ids: Mapping
    table: _RuleTable
    bits: tuple
    message_ids: frozenset = frozenset()
    scan_keys: tuple = ()
    plans: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @property
    def rules(self) -> tuple:
        """Every rule of the protocol as an ``(lhs, rhs)`` Multiset pair:
        under each LHS key in order, each distinct right-hand side that
        ``table.rhs_at`` reads from the spec, no-ops left out.  No effect
        is read or built: the reference step relation that tests and the
        benchmark apply is made from these rules, so it must not share
        the effect builder that ``successor_codes`` runs on."""
        names, table = self.names, self.table
        # Right-hand sides repeat across rules (every receive into one
        # state has the same one), so each Multiset is made once.
        made: dict = {}

        def multiset(elements) -> Multiset:
            key = tuple(sorted(elements))
            ms = made.get(key)
            if ms is None:
                ms = made[key] = Multiset(key)
            return ms

        out = []
        for key in sorted(table.rule_keys()):
            lhs = multiset([names[e] for e in key])
            rhss = dict.fromkeys(map(multiset, table.rhs_at(key)))
            rhss.pop(lhs, None)
            out.extend((lhs, rhs) for rhs in rhss)
        return tuple(out)

    def encode(self, c: Multiset) -> tuple:
        """The code of ``c``; its items are sorted by name, hence by id."""
        try:
            return tuple(chain.from_iterable((self.ids[e], n) for e, n in c.items()))
        except KeyError as exc:
            raise ValueError(f"{exc.args[0]!r} is not an element of the protocol") from None

    def decode(self, code: tuple) -> Multiset:
        names = self.names
        return Multiset._from_items((names[e], n) for e, n in zip(code[::2], code[1::2]))

    def _plan(self, ids: tuple) -> tuple:
        """``(effects, needs)`` of support ``ids``, from every key that can
        hold a rule there: the covered ``scan_keys`` if the spec has any;
        else each state alone and with each message (send/receive kinds);
        else each element alone, each pair and each element doubled.
        ``effects`` merges those of the keys that hold each element once;
        any other is a need ``(i, k, rest, effect)``: the count at code
        position ``i`` must reach ``k``, as must each ``(position, count)``
        in ``rest``, which is empty unless the key repeats two elements."""
        table, messages = self.table, self.message_ids
        repeated = ()
        if self.scan_keys:
            keys, repeated, at = [], [], {e: 2 * j + 1 for j, e in enumerate(ids)}
            for key in self.scan_keys:
                if all(e in at for e in key):
                    held = [(at[e], key.count(e)) for e in dict.fromkeys(key) if key.count(e) > 1]
                    if held:
                        repeated.append((*held[0], tuple(held[1:]), key))
                    else:
                        keys.append(key)
        elif messages:
            # A valid spec's states and messages are disjoint, and its rules
            # consume one state, or one state and one message.
            states = [e for e in ids if e not in messages]
            sent = [e for e in ids if e in messages]
            keys = chain(zip(states), [(q, m) if q < m else (m, q) for q in states for m in sent])
        else:
            keys = chain(zip(ids), combinations(ids, 2))
            repeated = [(2 * j + 1, 2, (), (e, e)) for j, e in enumerate(ids)]
        # Keys often share a change (all receives that keep their state do);
        # ``produced`` follows from ``changes``, so the merge keeps the cap verdict.
        effects = set(chain.from_iterable(map(table.__getitem__, keys)))
        needs = [
            (i, k, rest, effect)
            for i, k, rest, key in repeated
            for effect in table[key]
            if effect not in effects
        ]
        return tuple(effects), tuple(needs)

    def successor_codes(self, code: tuple, transit_cap: Optional[int] = None) -> list:
        """The step relation: the codes, in order, of every configuration
        one rule application away from ``code`` in which no message
        exceeds ``transit_cap``, even when ``code`` itself has one over it.

        The effects are those of the plan of the code's support, built on
        the first call that meets the support and kept in ``plans``, with
        those of its ``needs`` that ``code`` meets.  A change that several
        keys share is applied once.
        """
        ids = code[::2]
        messages = self.message_ids
        plans = self.plans
        plan = plans.get(ids)
        if plan is None:
            plan = plans[ids] = self._plan(ids)
        effects, needs = plan
        if needs:
            # Two keys may share an effect; the set keeps one.
            met = {
                effect
                for i, k, rest, effect in needs
                if code[i] >= k and (not rest or all(code[j] >= n for j, n in rest))
            }
            effects = [*effects, *met]
        over = ()
        counts = None
        if messages and transit_cap is not None:
            counts = dict(zip(ids, code[1::2]))
            if max(code[1::2], default=0) > transit_cap:
                # A message already over the cap must come back within it.
                over = [(m, k) for m, k in counts.items() if k > transit_cap and m in messages]
        # Distinct changes give distinct successors, so nothing repeats.
        out = []
        n = len(ids)
        for changes, produced in effects:
            if (
                produced
                and counts is not None
                and any(counts.get(m, 0) + k > transit_cap for m, k in produced)
            ):
                continue
            if over and any(k + dict(changes).get(m, 0) > transit_cap for m, k in over):
                continue
            nxt = list(code)
            # Changes run from the highest id down, so an insertion or
            # deletion never moves a position still to be visited.
            for e, k in changes:
                i = bisect_left(ids, e)
                if i < n and ids[i] == e:
                    i = 2 * i + 1
                    k += code[i]
                    if k:
                        nxt[i] = k
                    else:
                        del nxt[i - 1 : i + 1]
                else:
                    nxt[2 * i : 2 * i] = (e, k)
            out.append(tuple(nxt))
        return sorted(out)

    def output_code(self, code: tuple):
        """Configuration output: the common bit of all output-bearing
        elements present, or ``None`` when they disagree or none is."""
        out = None
        for e in code[::2]:
            b = self.bits[e]
            if b is None:
                continue
            if out is None:
                out = b
            elif out != b:
                return None
        return out


def compile_rules(p: ProtocolSpec) -> RuleSet:
    """Compile a valid spec into its integer rule table.

    Pairwise kinds give one rule ``{q1,q2} -> {q1',q2'}`` per table entry
    (plus unary self-rules when mirrors are on); send/receive kinds give
    ``{q} -> {q',m}`` and ``{q,m} -> {q'}`` rules; abstract specs give
    their own rules.  Identical rules from distinct entries are merged,
    and no-op rules are dropped.  No rule is built here: each is built
    on the first lookup of its LHS.
    """
    require_valid(p)

    elements = set(p.elements)
    if p.kind is ModelKind.ABSTRACT:
        # Abstract inputs are their own initial elements.
        elements.update(p.inputs)
    names = tuple(sorted(elements))
    ids = {e: i for i, e in enumerate(names)}
    messages = p.messages if p.kind.is_send_receive else ()
    message_ids = frozenset(ids[m] for m in messages)
    scan_keys = ()

    if p.kind.is_pairwise:
        delta, mirrors = p.delta, p.mirrors

        def rhs_at(key: tuple):
            if len(key) == 2:
                a, b = names[key[0]], names[key[1]]
                pairs = ((a, b), (b, a)) if a != b else ((a, a),)
                return [delta[pair] for pair in pairs if pair in delta]
            if len(key) == 1 and mirrors:
                # A single agent plays both roles at the table's diagonal
                # and ends in the responder's result state.
                q = names[key[0]]
                if (q, q) in delta:
                    return [(delta[(q, q)][1],)]
            return ()

        def rule_keys():
            keys = {tuple(sorted((ids[a], ids[b]))) for a, b in delta}
            if mirrors:
                keys.update((ids[q],) for q in p.states)
            return keys

    elif p.kind.is_send_receive:
        send, recv = p.send, p.recv or {}

        def rhs_at(key: tuple):
            if len(key) == 1 and names[key[0]] in send:
                m, q2 = send[names[key[0]]]
                return [(q2, m)]
            if len(key) == 2:
                # A state and a message, in whichever order their ids sort.
                # A receive consumes the message even when the state is
                # kept, so it is never a no-op.
                a, b = names[key[0]], names[key[1]]
                for pair in ((a, b), (b, a)):
                    if pair in recv:
                        return [(recv[pair],)]
            return ()

        def rule_keys():
            keys = {(ids[q],) for q in send}
            keys.update(tuple(sorted((ids[q], ids[m]))) for q, m in recv)
            return keys

    else:
        groups: dict = {}
        for lhs, rhs in p.rules:
            key = tuple(sorted(map(ids.__getitem__, _expand(lhs))))
            groups.setdefault(key, []).append(_expand(rhs))

        def rhs_at(key: tuple):
            return groups.get(key, ())

        rule_keys = groups.keys
        if any(not 1 <= len(key) <= 2 for key in groups):
            scan_keys = tuple(groups)

    return RuleSet(
        names=names,
        ids=ids,
        table=_RuleTable(rhs_at, rule_keys, ids, message_ids),
        bits=tuple(p.output.get(e) for e in names),
        message_ids=message_ids,
        scan_keys=scan_keys,
    )


def _expand(c: Multiset) -> tuple:
    return tuple(e for e, n in c.items() for _ in range(n))


def initial_config(p: ProtocolSpec, x: Multiset) -> Multiset:
    """Map an input assignment over the input alphabet to the starting
    configuration: every agent in its initial state, no messages."""
    if not x:
        raise EmptyInput("input assignment is empty")
    stray = [s for s in x.support if s not in p.inputs]
    if stray:
        raise ValueError(f"input uses symbols outside the alphabet: {stray}")
    acc: dict = {}
    for sigma, n in x.items():
        q = sigma if p.kind is ModelKind.ABSTRACT else p.iota[sigma]
        acc[q] = acc.get(q, 0) + n
    return Multiset(acc)


def specialization_chain(p: ProtocolSpec) -> list[ModelKind]:
    """Every kind (within the spec's family) that the spec validates as,
    from most special to most general."""
    order = _PAIRWISE_ORDER if p.kind.is_pairwise else _SEND_RECEIVE_ORDER
    return [k for k in order if not validate_model(p, k)]
