"""Constructions of concrete protocols.

Builders for the simple-threshold tower, the active/passive modulo and
averaging-threshold protocols, their delayed-transmission variants, a
presence detector for the weakest model, a product combinator, and the
unbounded-state set-union protocol used under local fairness.  The
modulo, averaging and delayed-transmission builders take the
``semilinear`` predicate records ``Modulo`` and ``Threshold`` they
compute.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

from .models import ModelKind, ProtocolSpec, generalize_kind, require_valid
from .semilinear import Modulo, Threshold


class KindMismatch(ValueError):
    pass


class AlphabetMismatch(ValueError):
    pass


# Kept only for bench/workloads.py; they go when the benchmark is next edited.
ModuloParams = Modulo
ThresholdParams = Threshold


def build_simple_threshold(sigma: str, k: int, alphabet: Sequence[str]) -> ProtocolSpec:
    """Tower protocol for ``count(sigma) >= k``.

    States 0..k; in each meeting all but one of the agents at the top of
    the growing tower advance one level, and level k floods.  Only the
    responder ever changes state, so this is an immediate observation
    protocol.
    """
    if sigma not in alphabet:
        raise ValueError(f"{sigma!r} is not in the alphabet {list(alphabet)}")
    if k < 1:
        raise ValueError(f"threshold must be >= 1, got {k}")
    states = [str(i) for i in range(k + 1)]
    delta = {}
    for q1 in range(k + 1):
        for q2 in range(k + 1):
            if q1 == k:
                r2 = k
            elif 1 <= q1 < k and q1 == q2:
                r2 = q2 + 1
            else:
                r2 = q2
            delta[(states[q1], states[q2])] = (states[q1], states[r2])
    return ProtocolSpec(
        name=f"threshold_{sigma}_{k}",
        kind=ModelKind.IMMEDIATE_OBSERVATION,
        states=frozenset(states),
        inputs=tuple(alphabet),
        delta=delta,
        iota={s: states[int(s == sigma)] for s in alphabet},
        output={q: int(i == k) for i, q in enumerate(states)},
    )


# The passive states of the averaging and modulo protocols, by output bit.
_PASSIVE = ("P0", "P1")


def _valued(active: dict) -> list:
    """Each state of an active/passive protocol with its data value, from
    ``active`` (value to name), then each passive state with ``None``."""
    return [*((q, d) for d, q in active.items()), *((q, None) for q in _PASSIVE)]


def build_modulo(pred: Modulo) -> ProtocolSpec:
    """Active/passive protocol for ``x . v = r (mod m)``: the protocol of
    ``build_delayed_transmission`` with each message delivered as it is
    sent, the initiator sending and the responder receiving.  The
    initiator update depends only on the initiator, so the protocol is
    immediate transmission.
    """
    dt = build_delayed_transmission(pred)
    delta = {(q1, q2): (q, dt.recv[(q2, m)]) for q1, (m, q) in dt.send.items() for q2 in dt.states}
    return ProtocolSpec(
        name=f"modulo_{pred.r}_{pred.m}",
        kind=ModelKind.IMMEDIATE_TRANSMISSION,
        states=dt.states,
        inputs=dt.inputs,
        delta=delta,
        iota=dt.iota,
        output=dt.output,
    )


def build_threshold_avg(pred: Threshold) -> ProtocolSpec:
    """Averaging protocol for ``x . v >= r``.

    Active data values live in [L, U], which spans 0, every coefficient
    and 2r - 1; two actives either combine onto one agent (when the sum
    is representable) or average, initiator taking the ceiling.  The sum
    of active data values is invariant.  Needs ``r >= 0``.
    """
    v, r = dict(pred.v), pred.r
    if not v:
        raise ValueError(f"the coefficient vector of {pred} is empty")
    if r < 0:
        raise ValueError(f"threshold must be normalized to r >= 0, got {r}")
    initial = sorted(v.values())
    L = min(initial[0], 0)
    U = max(initial[-1], 2 * r - 1)
    out = lambda d: int(d >= r)
    active = {d: f"A{d}" for d in range(L, U + 1)}
    values = _valued(active)
    delta = {}
    for q1, u in values:
        for q2, w in values:
            if u is None:
                delta[(q1, q2)] = (q1, q2)
                continue
            if w is None:
                delta[(q1, q2)] = (q1, _PASSIVE[out(u)])
                continue
            s = u + w
            if L <= s <= U:
                delta[(q1, q2)] = (_PASSIVE[out(s)], active[s])
            else:
                delta[(q1, q2)] = (active[-((-s) // 2)], active[s // 2])
    output = {q: out(d) for d, q in active.items()}
    output.update({_PASSIVE[0]: 0, _PASSIVE[1]: 1})
    alphabet = tuple(v)
    return ProtocolSpec(
        name=f"threshold_avg_{r}",
        kind=ModelKind.TWO_WAY,
        states=frozenset(q for q, _ in values),
        inputs=alphabet,
        delta=delta,
        iota={s: active[v[s]] for s in alphabet},
        output=output,
    )


def build_delayed_transmission(
    pred: Modulo | Threshold, alphabet: Sequence[str] | None = None
) -> ProtocolSpec:
    """Delayed-transmission protocol for a modulo predicate or a simple
    threshold ``simple_threshold(sigma, k)`` with ``k >= 1``.

    A sender ships its whole state and retires passive; passive messages
    are ignored, an active receiver folds an active message's data into
    its own, and a passive receiver adopts an active message's state.
    The receive table is total, so no queuing is needed.
    """
    if isinstance(pred, Modulo):
        v, m = dict(pred.v), pred.m
        domain = range(m)
        fold = lambda u, d: (u + d) % m
        out = lambda d: int(d == pred.r)
        alphabet = tuple(v) if alphabet is None else tuple(alphabet)
        init = {s: v.get(s, 0) % m for s in alphabet}
        name = f"dt_modulo_{pred.r}_{m}"
    else:
        if len(pred.v) != 1 or pred.v[0][1] != 1 or pred.r < 1:
            raise ValueError(f"expected count(sigma) >= k with k >= 1, got {pred}")
        sigma, k = pred.v[0][0], pred.r
        domain = range(k + 1)
        fold = lambda u, d: min(k, u + d)
        out = lambda d: int(d == k)
        if alphabet is None:
            raise ValueError("simple-threshold variant needs an explicit alphabet")
        alphabet = tuple(alphabet)
        if sigma not in alphabet:
            raise ValueError(f"{sigma!r} is not in the alphabet {list(alphabet)}")
        init = {s: int(s == sigma) for s in alphabet}
        name = f"dt_threshold_{sigma}_{k}"

    active = {d: f"A{d}" for d in domain}
    shipped = {d: f"mA{d}" for d in domain}
    passive_message = "mP"
    values = _valued(active)
    send = {q: (passive_message, q) for q in _PASSIVE}
    send.update({q: (shipped[d], _PASSIVE[out(d)]) for d, q in active.items()})
    recv = {}
    for q, u in values:
        recv[(q, passive_message)] = q
        for d in domain:
            recv[(q, shipped[d])] = active[d if u is None else fold(u, d)]
    output = {q: out(d) for d, q in active.items()}
    output.update({_PASSIVE[0]: 0, _PASSIVE[1]: 1})
    return ProtocolSpec(
        name=name,
        kind=ModelKind.DELAYED_TRANSMISSION,
        states=frozenset(q for q, _ in values),
        messages=frozenset([*shipped.values(), passive_message]),
        inputs=alphabet,
        send=send,
        recv=recv,
        iota={s: active[init[s]] for s in alphabet},
        output=output,
    )


def as_delayed_observation(p: ProtocolSpec) -> ProtocolSpec:
    """Run a pairwise immediate-observation table under delayed
    observation semantics: every agent broadcasts its own state and a
    receiver applies the responder update against the message's state."""
    require_valid(p, ModelKind.IMMEDIATE_OBSERVATION)
    messages = {q: f"m.{q}" for q in p.states}
    send = {q: (messages[q], q) for q in p.states}
    recv = {}
    for q2 in p.states:
        for q1 in p.states:
            recv[(q2, messages[q1])] = p.delta[(q1, q2)][1]
    return ProtocolSpec(
        name=f"{p.name}_do",
        kind=ModelKind.DELAYED_OBSERVATION,
        states=p.states,
        messages=frozenset(messages.values()),
        inputs=p.inputs,
        send=send,
        recv=recv,
        iota=dict(p.iota),
        output=dict(p.output),
    )


def product(
    protocols: Sequence[ProtocolSpec],
    f: Callable[[tuple], int],
    name: str = "product",
) -> ProtocolSpec:
    """Cartesian product of protocols over the same alphabet; every
    component advances on the same interaction and the output is
    ``f(component output bits)``.

    Kinds must belong to one family, pairwise or send/receive; the result
    is tagged with the most general kind among the components.
    Components must agree on ``mirrors``, and the result keeps it.  A
    send/receive product receives a combined message exactly where every
    component receives its part.
    """
    if not protocols:
        raise ValueError("product of no protocols")
    if any(p.kind is ModelKind.ABSTRACT for p in protocols):
        raise KindMismatch("product takes pairwise or send/receive components, not abstract ones")
    alphabet = protocols[0].inputs
    if any(p.inputs != alphabet for p in protocols):
        raise AlphabetMismatch("component protocols disagree on the input alphabet")
    kind = protocols[0].kind
    try:
        for p in protocols[1:]:
            kind = generalize_kind(kind, p.kind)
    except ValueError as exc:
        raise KindMismatch(str(exc)) from None
    deliveries = {p.mirrors for p in protocols}
    if len(deliveries) > 1:
        raise KindMismatch("component protocols disagree on self-interactions (mirrors)")
    (mirrors,) = deliveries

    combos = itertools.product(*(sorted(p.states) for p in protocols))
    names = {c: "|".join(c) for c in combos}
    iota = {s: names[tuple(p.iota[s] for p in protocols)] for s in alphabet}
    output = {
        n: int(bool(f(tuple(p.output[q] for p, q in zip(protocols, c)))))
        for c, n in names.items()
    }

    msgs: dict = {}
    delta = send = recv = None
    if kind.is_pairwise:
        delta = {}
        for c1, n1 in names.items():
            for c2, n2 in names.items():
                res = [p.delta[(q1, q2)] for p, q1, q2 in zip(protocols, c1, c2)]
                delta[(n1, n2)] = (
                    names[tuple(r[0] for r in res)],
                    names[tuple(r[1] for r in res)],
                )
    else:
        msg_combos = itertools.product(*(sorted(p.messages) for p in protocols))
        msgs = {c: "|".join(c) for c in msg_combos}
        recvs = [p.recv or {} for p in protocols]
        send, recv = {}, {}
        for c1, n1 in names.items():
            res = [p.send[q] for p, q in zip(protocols, c1)]
            send[n1] = (msgs[tuple(r[0] for r in res)], names[tuple(r[1] for r in res)])
            for mc, mn in msgs.items():
                res = [r.get(qm) for r, qm in zip(recvs, zip(c1, mc))]
                if None not in res:
                    recv[(n1, mn)] = names[tuple(res)]
    return ProtocolSpec(
        name=name,
        kind=kind,
        states=frozenset(names.values()),
        messages=frozenset(msgs.values()),
        inputs=alphabet,
        delta=delta,
        send=send,
        recv=recv,
        iota=iota,
        output=output,
        mirrors=mirrors,
    )


def detect(sigma: str, alphabet: Sequence[str]) -> ProtocolSpec:
    """Delayed-observation protocol accepting iff ``sigma`` is present.

    One single-level tower per symbol, run under delayed observation
    semantics and combined by product; the output is the presence bit of
    ``sigma``.
    """
    alphabet = tuple(alphabet)
    if sigma not in alphabet:
        raise ValueError(f"{sigma!r} is not in the alphabet {list(alphabet)}")
    idx = alphabet.index(sigma)
    detectors = [
        as_delayed_observation(build_simple_threshold(s, 1, alphabet)) for s in alphabet
    ]
    return product(detectors, lambda bits: bits[idx], name="presence")


@dataclass(frozen=True)
class SetUnionProtocol:
    """Unbounded-state set-union protocol for the local-fairness model.

    Each agent's state is the set of input values it has heard of; a send
    broadcasts the whole set, a receive unions it in, and the output
    applies ``table`` to the final set.  Run it with
    ``verifier.local_fair_run``.
    """

    alphabet: tuple
    table: Callable[[frozenset], int]

    def initial_state(self, sigma: str) -> frozenset:
        if sigma not in self.alphabet:
            raise ValueError(f"{sigma!r} is not in the alphabet {list(self.alphabet)}")
        return frozenset([sigma])

    def receive(self, state: frozenset, message: frozenset) -> frozenset:
        return state | message

    def output(self, state: frozenset) -> int:
        return int(bool(self.table(state)))


def build_set_union(
    alphabet: Sequence[str], table: Callable[[frozenset], int] | None = None
) -> SetUnionProtocol:
    if table is None:
        table = lambda values: 1
    return SetUnionProtocol(alphabet=tuple(alphabet), table=table)
