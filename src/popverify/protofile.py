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
to an identical spec, and refuses a spec with a name that would not read
back (see ``check_name``).
"""

from __future__ import annotations

import re

from .models import ModelKind, ProtocolSpec
from .multiset import Multiset


class ParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


_SECTIONS = ("model", "states", "messages", "inputs", "delta", "iota", "output")
_KINDS = {k.value: k for k in ModelKind}

# Whitespace, "->" and the characters that the protocol, multiset or
# predicate formats read as syntax: a name holding one cannot be read
# back from a file.
_NOT_IN_NAME = re.compile(r"[\s#{}\[\](),:;]|->")


def check_name(text: str, what: str) -> str:
    """``text``, if every file format carries it back as the same name;
    else ``ValueError``, which calls it a ``what``."""
    if not text or _NOT_IN_NAME.search(text):
        raise ValueError(
            f"bad {what} {text!r}: it must be nonempty, without whitespace, "
            "'->' or any of # { } [ ] ( ) , : ;"
        )
    return text


def _duplicate(line_no: int, what: str, key) -> ParseError:
    return ParseError(line_no, f"duplicate {what} entry for {key!r}")


def _enter(table: dict, key, value, line_no: int, what: str) -> None:
    """Enter a keyed entry; a second entry for the same key is an error."""
    if key in table:
        raise _duplicate(line_no, what, key)
    table[key] = value


def _undeclared(line_no: int, *checks) -> ParseError:
    """The error for the first ``(token, declared, what)`` whose token is
    not declared."""
    for tok, declared, what in checks:
        if tok not in declared:
            return ParseError(line_no, f"undeclared {what} {tok!r}")
    raise AssertionError("every token is declared")


def parse(text: str) -> ProtocolSpec:
    """Parse a protocol file.

    Every element name in the result is the one string object made for
    its declaration under ``[states]`` or ``[messages]``: the ``delta``,
    ``send``, ``recv``, ``iota`` and ``output`` tables and the rules of
    an abstract protocol share it, so a large file holds each name once.
    A name declared twice in one of those sections is an error.
    """
    # The file's lines are held once: each is overwritten in place by its
    # text with the comment and surrounding blanks removed, and a section
    # keeps the (start, stop) index ranges of the lines under its headers.
    lines = text.splitlines()
    ranges: dict[str, list[tuple[int, int]]] = {s: [] for s in _SECTIONS}
    current = None
    for i, raw in enumerate(lines):
        if "#" in raw:
            raw = raw.partition("#")[0]
        line = lines[i] = raw.strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in ranges:
                raise ParseError(i + 1, f"unknown section [{name}]")
            if current is not None:
                ranges[current].append((start, i))
            current, start = name, i + 1
            continue
        if current is None:
            raise ParseError(i + 1, f"content before any section: {line!r}")
    if current is not None:
        ranges[current].append((start, len(lines)))

    def entries(section: str):
        """``(line number, line)`` of each non-empty line of ``section``."""
        for start, stop in ranges[section]:
            for i in range(start, stop):
                if lines[i]:
                    yield i + 1, lines[i]

    meta = {}  # key -> (line number, value)
    for line_no, line in entries("model"):
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

    def declared(section: str, what: str) -> dict:
        """Each name of ``section``, mapped to itself."""
        out: dict = {}
        for line_no, line in entries(section):
            for tok in line.split():
                _enter(out, tok, tok, line_no, what)
        return out

    states = declared("states", "state")
    messages = declared("messages", "message")
    inputs = [tok for _, line in entries("inputs") for tok in line.split()]
    elements = {**messages, **states}

    delta: dict = {}
    send: dict = {}
    recv: dict = {}
    rules: list = []
    abstract, send_receive = kind is ModelKind.ABSTRACT, kind.is_send_receive
    for line_no, line in entries("delta"):
        lhs_txt, arrow, rhs_txt = line.partition("->")
        if not arrow:
            raise ParseError(line_no, f"expected '->' in {line!r}")
        toks, rtoks = lhs_txt.split(), rhs_txt.split()
        head = toks[0] if toks else None
        if abstract:
            if head != "rule":
                raise ParseError(line_no, f"expected 'rule {{...}} -> {{...}}', got {line!r}")
            body = lhs_txt[len("rule") :].strip()
            try:
                lhs_ms, rhs_ms = Multiset.parse(body), Multiset.parse(rhs_txt.strip())
            except ValueError as exc:
                raise ParseError(line_no, str(exc)) from None
            try:
                rules.append(
                    tuple(
                        Multiset({elements[e]: n for e, n in ms.items()})
                        for ms in (lhs_ms, rhs_ms)
                    )
                )
            except KeyError as exc:
                raise ParseError(line_no, f"undeclared element {exc.args[0]!r}") from None
        elif not send_receive:
            if len(toks) != 2 or len(rtoks) != 2:
                raise ParseError(line_no, f"expected 'q1 q2 -> r1 r2', got {line!r}")
            try:
                key = (states[toks[0]], states[toks[1]])
                val = (states[rtoks[0]], states[rtoks[1]])
            except KeyError:
                raise _undeclared(
                    line_no, *((tok, states, "state") for tok in (*toks, *rtoks))
                ) from None
            if key in delta:
                raise _duplicate(line_no, "delta", key)
            delta[key] = val
        elif head == "recv":
            # Receives far outnumber sends in a large table, so they are
            # tried first.
            if len(toks) != 3 or len(rtoks) != 1:
                raise ParseError(line_no, f"expected 'recv q m -> q2', got {line!r}")
            try:
                key, q2 = (states[toks[1]], messages[toks[2]]), states[rtoks[0]]
            except KeyError:
                raise _undeclared(
                    line_no,
                    (toks[1], states, "state"),
                    (toks[2], messages, "message"),
                    (rtoks[0], states, "state"),
                ) from None
            if key in recv:
                raise _duplicate(line_no, "recv", key)
            recv[key] = q2
        elif head == "send":
            if len(toks) != 2 or len(rtoks) != 2:
                raise ParseError(line_no, f"expected 'send q -> m q2', got {line!r}")
            try:
                q, m, q2 = states[toks[1]], messages[rtoks[0]], states[rtoks[1]]
            except KeyError:
                raise _undeclared(
                    line_no,
                    (toks[1], states, "state"),
                    (rtoks[0], messages, "message"),
                    (rtoks[1], states, "state"),
                ) from None
            if q in send:
                raise _duplicate(line_no, "send", q)
            send[q] = (m, q2)
        else:
            raise ParseError(
                line_no, f"expected 'send q -> m q2' or 'recv q m -> q2', got {line!r}"
            )

    iota: dict = {}
    for line_no, line in entries("iota"):
        if "->" not in line:
            raise ParseError(line_no, f"expected 'sigma -> q' in {line!r}")
        sigma, q = (s.strip() for s in line.split("->", 1))
        if sigma not in inputs:
            raise ParseError(line_no, f"undeclared input symbol {sigma!r}")
        if q not in states:
            raise ParseError(line_no, f"undeclared state {q!r}")
        _enter(iota, sigma, states[q], line_no, "iota")

    output: dict = {}
    for line_no, line in entries("output"):
        if "->" not in line:
            raise ParseError(line_no, f"expected 'elem -> bit' in {line!r}")
        elem, bit = (s.strip() for s in line.split("->", 1))
        if elem not in elements:
            raise ParseError(line_no, f"undeclared element {elem!r}")
        if bit not in ("0", "1"):
            raise ParseError(line_no, f"output bit must be 0 or 1, got {bit!r}")
        _enter(output, elements[elem], int(bit), line_no, "output")

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


def _recv_lines(p: ProtocolSpec, states: list, messages: list) -> list:
    """The ``recv`` lines in key order.  The sorted ``states`` times the
    sorted ``messages`` give that order without sorting the entries,
    unless some key lies outside them, as it may in an invalid spec."""
    recv = p.recv or {}
    get = recv.get
    lines = []
    for q in states:
        for m in messages:
            q2 = get((q, m))
            if q2 is not None:
                lines.append(f"recv {q} {m} -> {q2}")
    if len(lines) < len(recv):
        return [f"recv {q} {m} -> {q2}" for (q, m), q2 in sorted(recv.items())]
    return lines


def emit(p: ProtocolSpec) -> str:
    """The file of ``p``.  Raises ``ValueError`` (see ``check_name``) on
    the first name, in file order, that would not read back: the
    protocol's name, then its states, messages and input symbols."""
    states, messages = sorted(p.states), sorted(p.messages)
    for what, names in (
        ("protocol name", (p.name,)),
        ("state", states),
        ("message", messages),
        ("input symbol", p.inputs),
    ):
        for name in names:
            check_name(name, what)
    lines = ["[model]"]
    lines.append(f"name {p.name}")
    lines.append(f"kind {p.kind.value}")
    lines.append(f"mirrors {'true' if p.mirrors else 'false'}")
    lines.append("")
    lines.append("[states]")
    lines.extend(states)
    lines.append("")
    lines.append("[messages]")
    lines.extend(messages)
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
        lines.extend(_recv_lines(p, states, messages))
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
