"""Model-to-model compilers.

Two-way to queued transmission (two simulated states per agent, receipt
refused at capacity), the token-metered variant that trades a promise on
the input for a total receive table, and the primed/unprimed transforms
between immediate observation with and without self-interactions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Mapping

from .models import InvalidModel, ModelKind, ProtocolSpec, require_valid
from .multiset import Multiset

NULL = "null"


@dataclass(frozen=True)
class SimulationCertificate:
    """Links a transformed protocol back to its source.

    ``project`` maps a target configuration to the simulated source
    configuration (held states plus states still in transit); at equal
    input the projection of any reachable target configuration must be
    source-reachable once in-transit states are delivered.
    """

    source: ProtocolSpec
    project: Callable[[Multiset], Multiset]


def _projection(held: Mapping, transit: Mapping) -> Callable[[Multiset], Multiset]:
    """Projection onto the source: ``held`` maps a target state to the
    source states it holds, ``transit`` a message to the source state it
    carries."""

    def project(c: Multiset) -> Multiset:
        acc: dict = {}
        for e, n in c.items():
            for q in held.get(e, ()):
                acc[q] = acc.get(q, 0) + n
            if e in transit:
                acc[transit[e]] = acc.get(transit[e], 0) + n
        return Multiset(acc)

    return project


def _require_two_agent_source(p: ProtocolSpec) -> None:
    """Both simulations fire a joint transition only on two simulated
    states, never on one state alone, so they cannot run a source that
    relies on self-interactions."""
    require_valid(p, ModelKind.TWO_WAY)
    if p.mirrors:
        raise InvalidModel(["source permits self-interactions, which the simulation cannot run"])


def two_way_to_queued(p: ProtocolSpec) -> tuple[ProtocolSpec, SimulationCertificate]:
    """Simulate a two-way protocol by queued transmission.

    Every agent stores up to two simulated states and sends the one held
    longest (or a null no-op message when empty); the joint transition
    fires when a second state arrives, with the held state as initiator.
    At capacity two, real messages are refused until a send frees space.
    Empty agents remember the output of the last state they held.
    """
    _require_two_agent_source(p)
    o = p.output

    Q = sorted(p.states)
    empty = ("E0", "E1")
    hold = {q: f"H.{q}" for q in Q}
    pair = {(q1, q2): f"D.{q1}.{q2}" for q1 in Q for q2 in Q}
    msg = {q: f"s.{q}" for q in Q}
    states = [*empty, *hold.values(), *pair.values()]
    messages = [NULL, *msg.values()]

    send = {e: (NULL, e) for e in empty}
    send.update({hold[q]: (msg[q], empty[o[q]]) for q in Q})
    send.update({d: (msg[q1], hold[q2]) for (q1, q2), d in pair.items()})

    recv = {}
    for s in states:
        recv[(s, NULL)] = s
    for e in empty:
        for q in Q:
            recv[(e, msg[q])] = hold[q]
    for q1, q2 in pair:
        recv[(hold[q1], msg[q2])] = pair[p.delta[(q1, q2)]]
    # Pairs refuse real messages: (pair(.), msg(.)) stays undefined.

    output = {empty[b]: b for b in (0, 1)}
    output.update({hold[q]: o[q] for q in Q})
    output.update({d: o[q1] for (q1, _), d in pair.items()})

    target = ProtocolSpec(
        name=f"{p.name}_queued",
        kind=ModelKind.QUEUED_TRANSMISSION,
        states=frozenset(states),
        messages=frozenset(messages),
        inputs=p.inputs,
        send=send,
        recv=recv,
        iota={s: hold[p.iota[s]] for s in p.inputs},
        output=output,
    )

    held = {h: (q,) for q, h in hold.items()}
    held.update({d: qs for qs, d in pair.items()})
    return target, SimulationCertificate(p, _projection(held, {m: q for q, m in msg.items()}))


def two_way_to_queued_tokens(
    p: ProtocolSpec, sigma_tok: str, k: int
) -> tuple[ProtocolSpec, SimulationCertificate]:
    """Token-metered simulation of a two-way protocol.

    Valid under the promise that the input carries between 1 and k-1
    occurrences of ``sigma_tok``.  Agents hold up to k simulated states;
    sending a state costs the sender one token, delivered to the
    recipient along with the state, so storage can never overflow and the
    receive table is total (the result is a delayed transmission
    protocol).  Receiving a null message rotates the held states, which
    lets the scheduler choose which state is shipped next.
    """
    _require_two_agent_source(p)
    if sigma_tok not in p.inputs:
        raise ValueError(f"{sigma_tok!r} is not an input symbol")
    if k < 2:
        raise ValueError(f"token bound must be >= 2, got {k}")
    o = p.output
    Q = sorted(p.states)

    names = {}  # (held states, tokens, output bit) -> state name
    for length in range(k + 1):
        for held in itertools.product(Q, repeat=length):
            body = "+".join(held) if held else "-"
            for tokens in range(k):
                for bit in (0, 1):
                    names[(held, tokens, bit)] = f"T.{body}.{tokens}.{bit}"
    msg = {q: f"c.{q}" for q in Q}
    messages = [NULL, *msg.values()]

    send = {}
    recv = {}
    for (held, tokens, bit), sname in names.items():
        if held and tokens >= 1:
            send[sname] = (msg[held[0]], names[(held[1:], tokens - 1, o[held[0]])])
        else:
            send[sname] = (NULL, sname)
        rotated = held[1:] + held[:1] if len(held) >= 2 else held
        recv[(sname, NULL)] = names[(rotated, tokens, bit)]
        for q in Q:
            if not held:
                recv[(sname, msg[q])] = names[((q,), min(tokens + 1, k - 1), bit)]
            elif len(held) < k:
                r1, r2 = p.delta[(held[-1], q)]
                recv[(sname, msg[q])] = names[
                    (held[:-1] + (r1, r2), min(tokens + 1, k - 1), bit)
                ]
            else:
                # Unreachable under the promise: a full agent already owns
                # every token, so nobody can send it a state.
                recv[(sname, msg[q])] = sname

    output = {
        sname: (o[held[0]] if held else bit)
        for (held, tokens, bit), sname in names.items()
    }

    target = ProtocolSpec(
        name=f"{p.name}_tokens_{k}",
        kind=ModelKind.DELAYED_TRANSMISSION,
        states=frozenset(names.values()),
        messages=frozenset(messages),
        inputs=p.inputs,
        send=send,
        recv=recv,
        iota={
            s: names[((p.iota[s],), int(s == sigma_tok), o[p.iota[s]])]
            for s in p.inputs
        },
        output=output,
    )

    project = _projection(
        {sname: held for (held, _, _), sname in names.items()}, {m: q for q, m in msg.items()}
    )
    return target, SimulationCertificate(p, project)


def _primed(q: str) -> str:
    return q + "'"


def io_add_mirrors(p: ProtocolSpec) -> ProtocolSpec:
    """Compile an immediate observation protocol into one that tolerates
    self-interactions.

    States are doubled into primed and unprimed copies.  Self-interaction
    only flips an agent's primation; the update from a diagonal table
    entry fires only between two agents whose primation differs, which a
    lone agent can never arrange.
    """
    require_valid(p, ModelKind.IMMEDIATE_OBSERVATION)
    if p.mirrors:
        raise InvalidModel(["source already permits self-interactions"])
    Q = sorted(p.states)
    variants = {q: (q, _primed(q)) for q in Q}
    states = [v for q in Q for v in variants[q]]
    delta = {}
    for q1 in Q:
        for q2 in Q:
            r = p.delta[(q1, q2)][1]
            if q1 != q2:
                for a in variants[q1]:
                    for b, rb in zip(variants[q2], variants[r]):
                        delta[(a, b)] = (a, rb)
            else:
                q, q_ = variants[q1]
                delta[(q, q)] = (q, q_)
                delta[(q_, q_)] = (q_, q)
                delta[(q, q_)] = (q, r)
                delta[(q_, q)] = (q_, r)
    output = {v: p.output[q] for q in Q for v in variants[q]}
    return ProtocolSpec(
        name=f"{p.name}_mirrored",
        kind=ModelKind.IMMEDIATE_OBSERVATION,
        states=frozenset(states),
        inputs=p.inputs,
        delta=delta,
        iota=dict(p.iota),
        output=output,
        mirrors=True,
    )


def _marked(q: str) -> str:
    # The source of the reverse transform may itself use primed names, so
    # its simulation marker must be a different suffix.
    return q + "^"


def io_remove_mirrors(p: ProtocolSpec) -> ProtocolSpec:
    """Compile an immediate observation protocol that relies on
    self-interactions into one that never needs them.

    Unmarked initiators only flip the responder's marker; a marked
    initiator drives the source's off-diagonal updates against unmarked
    responders, and diagonal updates fire between two marked agents.
    Valid for populations of at least three agents.
    """
    require_valid(p, ModelKind.IMMEDIATE_OBSERVATION)
    if not p.mirrors:
        raise InvalidModel(["source does not permit self-interactions"])
    Q = sorted(p.states)
    delta = {}
    for q1 in Q:
        for q2 in Q:
            # Unmarked initiator: flip the responder's marker.
            delta[(q1, q2)] = (q1, _marked(q2))
            delta[(q1, _marked(q2))] = (q1, q2)
            # Marked initiator against an unmarked responder: run the
            # source's off-diagonal rule.
            if q1 != q2:
                delta[(_marked(q1), q2)] = (_marked(q1), p.delta[(q1, q2)][1])
            else:
                delta[(_marked(q1), q2)] = (_marked(q1), q2)
            # Two marked agents: the responder runs its own diagonal rule.
            r = p.delta[(q2, q2)][1]
            delta[(_marked(q1), _marked(q2))] = (_marked(q1), _marked(r))
    states = [v for q in Q for v in (q, _marked(q))]
    output = {v: p.output[q] for q in Q for v in (q, _marked(q))}
    return ProtocolSpec(
        name=f"{p.name}_unmirrored",
        kind=ModelKind.IMMEDIATE_OBSERVATION,
        states=frozenset(states),
        inputs=p.inputs,
        delta=delta,
        iota=dict(p.iota),
        output=output,
        mirrors=False,
    )
