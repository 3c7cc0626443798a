"""Text format for protocol descriptions.

Sections in square brackets, one entry per line::

    [model]
    name parity
    kind immediate-transmission
    mirrors false

    [states]
    A0 A1 P0 P1

    [messages]

    [inputs]
    a

    [delta]
    A0 A0 -> P0 A0
    ...

    [iota]
    a -> A1

    [output]
    A0 -> 0
    A1 -> 1

The declared kind fixes the form of a ``[delta]`` line: pairwise kinds
use the joint form above, send/receive kinds ``send q -> m q'`` and
``recv q m -> q'``, and abstract protocols ``rule {a:1} -> {b:1, c:1}``.
``[output]`` names states only, except in abstract protocols.  ``#``
starts a comment.  ``emit`` produces a canonical rendering that reparses
to an identical spec.
"""

from __future__ import annotations

from .models import ModelKind, ProtocolSpec
from .multiset import Multiset


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


_SECTIONS = ("model", "states", "messages", "inputs", "delta", "iota", "output")
_KINDS = {k.value: k for k in ModelKind}


def _enter(table: dict, key, value, line_no: int, what: str) -> None:
    """Enter a keyed entry; a second entry for the same key is an error."""
    if key in table:
        raise ParseError(line_no, f"duplicate {what} entry for {key!r}")
    table[key] = value


def parse(text: str) -> ProtocolSpec:
    sections: dict[str, list[tuple[int, str]]] = {s: [] for s in _SECTIONS}
    current = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in sections:
                raise ParseError(line_no, f"unknown section [{name}]")
            current = name
            continue
        if current is None:
            raise ParseError(line_no, f"content before any section: {line!r}")
        sections[current].append((line_no, line))

    meta = {}  # key -> (line number, value)
    for line_no, line in sections["model"]:
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise ParseError(line_no, f"expected 'key value', got {line!r}")
        _enter(meta, parts[0], (line_no, parts[1].strip()), line_no, "model")
    if "kind" not in meta:
        raise ParseError(1, "missing 'kind' in [model]")
    line_no, kind_name = meta["kind"]
    if kind_name not in _KINDS:
        raise ParseError(line_no, f"unknown model kind {kind_name!r}")
    kind = _KINDS[kind_name]
    mirrors = None
    if "mirrors" in meta:
        line_no, value = meta["mirrors"]
        if value not in ("true", "false"):
            raise ParseError(line_no, f"mirrors must be true or false, got {value!r}")
        mirrors = value == "true"
    name = meta["name"][1] if "name" in meta else "protocol"

    def symbols(section: str) -> list[str]:
        out = []
        for _, line in sections[section]:
            out.extend(line.split())
        return out

    states = symbols("states")
    messages = symbols("messages")
    inputs = symbols("inputs")
    state_set, message_set = set(states), set(messages)

    def need_state(tok: str, line_no: int) -> str:
        if tok not in state_set:
            raise ParseError(line_no, f"undeclared state {tok!r}")
        return tok

    def need_message(tok: str, line_no: int) -> str:
        if tok not in message_set:
            raise ParseError(line_no, f"undeclared message {tok!r}")
        return tok

    delta: dict = {}
    send: dict = {}
    recv: dict = {}
    rules: list = []
    abstract, send_receive = kind is ModelKind.ABSTRACT, kind.is_send_receive
    for line_no, line in sections["delta"]:
        lhs_txt, arrow, rhs_txt = line.partition("->")
        if not arrow:
            raise ParseError(line_no, f"expected '->' in {line!r}")
        toks, rtoks = lhs_txt.split(), rhs_txt.split()
        if abstract:
            if toks[:1] != ["rule"]:
                raise ParseError(line_no, f"expected 'rule {{...}} -> {{...}}', got {line!r}")
            body = lhs_txt[len("rule") :].strip()
            try:
                lhs_ms, rhs_ms = Multiset.parse(body), Multiset.parse(rhs_txt.strip())
            except ValueError as exc:
                raise ParseError(line_no, str(exc)) from None
            for e in (*lhs_ms.support, *rhs_ms.support):
                if e not in state_set and e not in message_set:
                    raise ParseError(line_no, f"undeclared element {e!r}")
            rules.append((lhs_ms, rhs_ms))
        elif send_receive and toks[:1] == ["send"]:
            if len(toks) != 2 or len(rtoks) != 2:
                raise ParseError(line_no, f"expected 'send q -> m q2', got {line!r}")
            q = need_state(toks[1], line_no)
            m, q2 = need_message(rtoks[0], line_no), need_state(rtoks[1], line_no)
            _enter(send, q, (m, q2), line_no, "send")
        elif send_receive and toks[:1] == ["recv"]:
            if len(toks) != 3 or len(rtoks) != 1:
                raise ParseError(line_no, f"expected 'recv q m -> q2', got {line!r}")
            q, m = need_state(toks[1], line_no), need_message(toks[2], line_no)
            q2 = need_state(rtoks[0], line_no)
            _enter(recv, (q, m), q2, line_no, "recv")
        elif send_receive:
            raise ParseError(
                line_no, f"expected 'send q -> m q2' or 'recv q m -> q2', got {line!r}"
            )
        else:
            if len(toks) != 2 or len(rtoks) != 2:
                raise ParseError(line_no, f"expected 'q1 q2 -> r1 r2', got {line!r}")
            key = (need_state(toks[0], line_no), need_state(toks[1], line_no))
            val = (need_state(rtoks[0], line_no), need_state(rtoks[1], line_no))
            _enter(delta, key, val, line_no, "delta")

    iota: dict = {}
    for line_no, line in sections["iota"]:
        if "->" not in line:
            raise ParseError(line_no, f"expected 'sigma -> q' in {line!r}")
        sigma, q = (s.strip() for s in line.split("->", 1))
        if sigma not in inputs:
            raise ParseError(line_no, f"undeclared input symbol {sigma!r}")
        _enter(iota, sigma, need_state(q, line_no), line_no, "iota")

    output: dict = {}
    for line_no, line in sections["output"]:
        if "->" not in line:
            raise ParseError(line_no, f"expected 'elem -> bit' in {line!r}")
        elem, bit = (s.strip() for s in line.split("->", 1))
        if elem not in state_set and elem not in message_set:
            raise ParseError(line_no, f"undeclared element {elem!r}")
        if bit not in ("0", "1"):
            raise ParseError(line_no, f"output bit must be 0 or 1, got {bit!r}")
        _enter(output, elem, int(bit), line_no, "output")

    return ProtocolSpec(
        name=name,
        kind=kind,
        states=frozenset(states),
        messages=frozenset(messages),
        inputs=tuple(inputs),
        delta=delta if kind.is_pairwise else None,
        send=send if kind.is_send_receive else None,
        recv=recv if kind.is_send_receive else None,
        rules=tuple(rules),
        iota=iota,
        output=output,
        mirrors=mirrors,
    )


def emit(p: ProtocolSpec) -> str:
    lines = ["[model]"]
    lines.append(f"name {p.name}")
    lines.append(f"kind {p.kind.value}")
    lines.append(f"mirrors {'true' if p.self_delivery else 'false'}")
    lines.append("")
    lines.append("[states]")
    lines.extend(sorted(p.states))
    lines.append("")
    lines.append("[messages]")
    lines.extend(sorted(p.messages))
    lines.append("")
    lines.append("[inputs]")
    lines.extend(p.inputs)
    lines.append("")
    lines.append("[delta]")
    if p.kind.is_pairwise:
        for (q1, q2), (r1, r2) in sorted(p.delta.items()):
            lines.append(f"{q1} {q2} -> {r1} {r2}")
    elif p.kind.is_send_receive:
        for q, (m, q2) in sorted(p.send.items()):
            lines.append(f"send {q} -> {m} {q2}")
        for (q, m), q2 in sorted((p.recv or {}).items()):
            lines.append(f"recv {q} {m} -> {q2}")
    else:
        for lhs, rhs in p.rules:
            lines.append(f"rule {lhs} -> {rhs}")
    lines.append("")
    lines.append("[iota]")
    for sigma in p.inputs:
        if sigma in p.iota:
            lines.append(f"{sigma} -> {p.iota[sigma]}")
    lines.append("")
    lines.append("[output]")
    for elem in sorted(p.output):
        lines.append(f"{elem} -> {p.output[elem]}")
    lines.append("")
    return "\n".join(lines)
