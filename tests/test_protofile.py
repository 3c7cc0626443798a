import pytest

import popverify as pv
from popverify import protofile
from popverify.models import ModelKind

SAMPLE = """
# two-state parity, immediate transmission
[model]
name parity
kind immediate-transmission

[states]
A0 A1 P0 P1

[inputs]
a

[delta]
A0 A0 -> P0 A0
A0 A1 -> P0 A1
A1 A0 -> P1 A1
A1 A1 -> P1 A0
A0 P0 -> P0 A0
A0 P1 -> P0 A0
A1 P0 -> P1 A1
A1 P1 -> P1 A1
P0 A0 -> P0 A0
P0 A1 -> P0 A1
P0 P0 -> P0 P0
P0 P1 -> P0 P1
P1 A0 -> P1 A0
P1 A1 -> P1 A1
P1 P0 -> P1 P0
P1 P1 -> P1 P1

[iota]
a -> A1

[output]
A0 -> 0
A1 -> 1
P0 -> 0
P1 -> 1
"""


def assert_names_shared(p):
    """Every name in the tables of ``p`` is the object in ``states`` or
    ``messages``, not an equal copy."""
    declared = {e: e for e in p.messages}
    declared.update({q: q for q in p.states})
    used = [*p.iota.values(), *p.output]
    for (q1, q2), (r1, r2) in (p.delta or {}).items():
        used += [q1, q2, r1, r2]
    for q, (m, q2) in (p.send or {}).items():
        used += [q, m, q2]
    for (q, m), q2 in (p.recv or {}).items():
        used += [q, m, q2]
    for lhs, rhs in p.rules:
        used += [*lhs.support, *rhs.support]
    for e in used:
        assert declared[e] is e, e


def test_parse_sample():
    p = protofile.parse(SAMPLE)
    assert p.name == "parity"
    assert p.kind is ModelKind.IMMEDIATE_TRANSMISSION
    assert p.states == frozenset({"A0", "A1", "P0", "P1"})
    assert p.delta[("A1", "A1")] == ("P1", "A0")
    assert p.iota == {"a": "A1"}
    assert pv.validate_model(p) == []


def test_parsed_protocol_verifies():
    p = protofile.parse(SAMPLE)
    assert pv.verdict(p, pv.Multiset({"a": 3})).value == 1
    assert pv.verdict(p, pv.Multiset({"a": 2})).value == 0


@pytest.mark.parametrize(
    "build",
    [
        lambda: pv.build_simple_threshold("a", 2, ("a", "b")),
        lambda: pv.build_modulo(pv.Modulo({"a": 1, "b": 2}, 0, 3)),
        lambda: pv.build_threshold_avg(pv.Threshold({"a": 1, "b": -1}, 1)),
        lambda: pv.build_delayed_transmission(pv.Modulo({"a": 1}, 1, 2)),
        lambda: pv.detect("a", ("a", "b")),
        lambda: pv.two_way_to_queued(
            pv.build_threshold_avg(pv.Threshold({"a": 1}, 1))
        )[0],
        lambda: pv.two_way_to_queued_tokens(
            pv.build_threshold_avg(pv.Threshold({"a": 1, "b": -1}, 1)), "a", 2
        )[0],
        lambda: pv.build_delayed_transmission(pv.simple_threshold("a", 2), ("a", "b")),
        lambda: pv.product(
            [pv.build_simple_threshold("a", k, ("a", "b")) for k in (1, 2)],
            lambda bits: bits[0] and not bits[1],
        ),
    ],
)
def test_emit_parse_round_trip(build):
    # ``mirrors`` is settled when a spec is made, so the parsed spec equals
    # the built one in every field, ``mirrors`` included.
    p = build()
    text = protofile.emit(p)
    p2 = protofile.parse(text)
    assert protofile.emit(p2) == text
    assert p2 == p
    assert p2.mirrors is p.mirrors
    assert_names_shared(p2)


@pytest.mark.parametrize(
    "build",
    [
        lambda: pv.two_way_to_queued_tokens(
            pv.build_threshold_avg(pv.Threshold({"a": 1, "b": -1}, 1)), "a", 2
        )[0],
        lambda: pv.two_way_to_queued(
            pv.build_threshold_avg(pv.Threshold({"a": 1}, 1))
        )[0],
        lambda: pv.product(
            [pv.build_simple_threshold("a", k, ("a", "b")) for k in (1, 2)],
            lambda bits: bits[0] and not bits[1],
        ),
        lambda: pv.detect("a", ("a", "b")),
        lambda: pv.build_simple_threshold("a", 12, ("a", "b")),
        lambda: pv.build_threshold_avg(pv.Threshold({"a": 2, "b": -1}, 2)),
        lambda: pv.build_delayed_transmission(pv.Modulo({"a": 1, "b": 1}, 1, 3)),
        lambda: pv.build_delayed_transmission(pv.simple_threshold("a", 2), ("a", "b")),
        lambda: pv.build_modulo(pv.Modulo({"a": 1, "b": 2}, 1, 3)),
    ],
    ids=[
        "tokens", "queued", "product-pairwise", "product-send-receive", "tower",
        "avg-threshold", "delayed-modulo", "delayed-threshold", "modulo",
    ],
)
def test_builders_share_names(build):
    assert_names_shared(build())


def test_abstract_round_trip():
    text = """
[model]
kind abstract
[states]
x y
[inputs]
x
[delta]
rule {x:2} -> {y:1}
[iota]
[output]
x -> 0
y -> 1
"""
    p = protofile.parse(text)
    assert p.rules == ((pv.Multiset({"x": 2}), pv.Multiset({"y": 1})),)
    assert_names_shared(p)
    assert protofile.parse(protofile.emit(p)).rules == p.rules


TWO_WAY_A = "[model]\nkind two-way\n[states]\np\n[inputs]\na\n"


@pytest.mark.parametrize(
    "text,line_no,message",
    [
        ("x y z", 1, "content before any section: 'x y z'"),
        ("[nosuch]", 1, "unknown section [nosuch]"),
        ("[model]\nkindless", 2, "expected 'key value', got 'kindless'"),
        ("[model]\nkind sideways", 2, "unknown model kind 'sideways'"),
        ("[model]\nname x\n[states]\np", 1, "missing 'kind' in [model]"),
        (
            "[model]\nkind two-way\n[delta]\nq1 q2 -> q1",
            4,
            "expected 'q1 q2 -> r1 r2', got 'q1 q2 -> q1'",
        ),
        ("[model]\nkind two-way\n[states]\np\n[delta]\np q -> p p", 6, "undeclared state 'q'"),
        ("[model]\nkind two-way\n[output]\np -> 0", 4, "undeclared element 'p'"),
        (
            "[model]\nkind two-way\n[states]\np\n[output]\np -> 2",
            6,
            "output bit must be 0 or 1, got '2'",
        ),
        (TWO_WAY_A + "[iota]\na p", 8, "expected 'sigma -> q' in 'a p'"),
        (TWO_WAY_A + "[iota]\nb -> p", 8, "undeclared input symbol 'b'"),
        (TWO_WAY_A + "[iota]\na -> q", 8, "undeclared state 'q'"),
        (TWO_WAY_A + "[output]\np 1", 8, "expected 'elem -> bit' in 'p 1'"),
        (TWO_WAY_A + "[output]\nq -> 1", 8, "undeclared element 'q'"),
    ],
)
def test_parse_errors_carry_line_info(text, line_no, message):
    with pytest.raises(protofile.ParseError) as err:
        protofile.parse(text)
    assert err.value.line_no == line_no
    assert str(err.value) == f"line {line_no}: {message}"


@pytest.mark.parametrize(
    "section,entry",
    [
        ("delta", "A0 A0 -> A0 A0"),
        ("iota", "a -> A0"),
        ("output", "A0 -> 1"),
        ("model", "kind two-way"),
        ("states", "A0"),
        ("messages", "m m"),
    ],
    ids=["delta", "iota", "output", "model", "states", "messages"],
)
def test_duplicate_entries_rejected(section, entry):
    text = SAMPLE + f"\n[{section}]\n{entry}\n"
    with pytest.raises(protofile.ParseError) as err:
        protofile.parse(text)
    assert "duplicate" in str(err.value)
    assert err.value.line_no == len(text.splitlines())


def test_pairwise_states_named_like_keywords_round_trip():
    states = ["sender", "recv1", "rules"]
    p = pv.ProtocolSpec(
        name="swap",
        kind=ModelKind.TWO_WAY,
        states=frozenset(states),
        inputs=("a",),
        iota={"a": "sender"},
        output={q: 0 for q in states},
        delta={(q1, q2): (q2, q1) for q1 in states for q2 in states},
    )
    text = protofile.emit(p)
    p2 = protofile.parse(text)
    assert p2.delta == p.delta
    assert protofile.emit(p2) == text


@pytest.mark.parametrize(
    "kind,line,fragment",
    [
        ("two-way", "send p -> m p", "undeclared state 'send'"),
        ("delayed-transmission", "p m -> p", "expected 'send q -> m q2' or 'recv q m -> q2'"),
        ("abstract", "p p -> p p", "expected 'rule"),
    ],
)
def test_delta_line_form_follows_the_kind(kind, line, fragment):
    text = f"[model]\nkind {kind}\n[states]\np\n[messages]\nm\n[delta]\n{line}\n"
    with pytest.raises(protofile.ParseError) as err:
        protofile.parse(text)
    assert str(err.value).startswith("line 8:")
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "meta,fragment",
    [
        ("name x\n\nkind sideways", "unknown model kind"),
        ("kind two-way\nname x\nmirrors maybe", "mirrors must be"),
    ],
)
def test_model_errors_name_their_own_line(meta, fragment):
    with pytest.raises(protofile.ParseError) as err:
        protofile.parse(f"# header\n[model]\n{meta}\n")
    assert str(err.value).startswith("line 5:")
    assert fragment in str(err.value)


# A [delta] line is split at its first "->", so the arrow needs no
# spaces around it and a second arrow lands in the right-hand tokens.
SEND_RECEIVE = (
    "[model]\nkind queued-transmission\n[states]\np q\n[messages]\nm n\n"
    "[inputs]\na\n[delta]\nrecv p m -> q\n{line}\n"
)
PAIRWISE = "[model]\nkind two-way\n[states]\np q\n[delta]\np p -> p q\n{line}\n"
ABSTRACT = (
    "[model]\nkind abstract\n[states]\np q\n[inputs]\np\n[delta]\n"
    "rule {{p:1}} -> {{q:1}}\n{line}\n"
)


@pytest.mark.parametrize(
    "base,line,send,recv,delta",
    [
        (SEND_RECEIVE, "recv p n->p", None, (("p", "n"), "p"), None),
        (SEND_RECEIVE, "send p->m q", ("p", ("m", "q")), None, None),
        (SEND_RECEIVE, "recv q m -> p # kept", None, (("q", "m"), "p"), None),
        (SEND_RECEIVE, "recv q n -> p#glued", None, (("q", "n"), "p"), None),
        (PAIRWISE, "p q->q p", None, None, (("p", "q"), ("q", "p"))),
    ],
    ids=["recv-glued", "send-glued", "comment", "comment-glued", "pairwise-glued"],
)
def test_delta_lines_parse_with_glued_arrows_and_comments(base, line, send, recv, delta):
    p = protofile.parse(base.format(line=line))
    for table, entry in ((p.send, send), (p.recv, recv), (p.delta, delta)):
        if entry is not None:
            key, value = entry
            assert table[key] == value
    assert_names_shared(p)


@pytest.mark.parametrize(
    "base,line,message",
    [
        # A second arrow.
        (SEND_RECEIVE, "recv p m -> q -> p", "expected 'recv q m -> q2', got 'recv p m -> q -> p'"),
        (SEND_RECEIVE, "send p -> m q -> p", "expected 'send q -> m q2', got 'send p -> m q -> p'"),
        (PAIRWISE, "p q -> q p -> p", "expected 'q1 q2 -> r1 r2', got 'p q -> q p -> p'"),
        # A missing or an extra token.
        (SEND_RECEIVE, "send p -> m", "expected 'send q -> m q2', got 'send p -> m'"),
        (SEND_RECEIVE, "send -> m q", "expected 'send q -> m q2', got 'send -> m q'"),
        (SEND_RECEIVE, "send p -> m q p", "expected 'send q -> m q2', got 'send p -> m q p'"),
        (SEND_RECEIVE, "send p q -> m q", "expected 'send q -> m q2', got 'send p q -> m q'"),
        (SEND_RECEIVE, "recv p -> q", "expected 'recv q m -> q2', got 'recv p -> q'"),
        (SEND_RECEIVE, "recv p m ->", "expected 'recv q m -> q2', got 'recv p m ->'"),
        (SEND_RECEIVE, "recv p m n -> q", "expected 'recv q m -> q2', got 'recv p m n -> q'"),
        (SEND_RECEIVE, "recv p m -> q p", "expected 'recv q m -> q2', got 'recv p m -> q p'"),
        (PAIRWISE, "p p q -> q q", "expected 'q1 q2 -> r1 r2', got 'p p q -> q q'"),
        (SEND_RECEIVE, "recv p m", "expected '->' in 'recv p m'"),
        (
            SEND_RECEIVE,
            "-> p",
            "expected 'send q -> m q2' or 'recv q m -> q2', got '-> p'",
        ),
        (
            SEND_RECEIVE,
            "sned p -> m q",
            "expected 'send q -> m q2' or 'recv q m -> q2', got 'sned p -> m q'",
        ),
        # An undeclared name in each slot; the first one is reported.
        (SEND_RECEIVE, "send x1 -> m q", "undeclared state 'x1'"),
        (SEND_RECEIVE, "send p -> x2 q", "undeclared message 'x2'"),
        (SEND_RECEIVE, "send p -> m x3", "undeclared state 'x3'"),
        (SEND_RECEIVE, "send p -> q q", "undeclared message 'q'"),
        (SEND_RECEIVE, "send x1 -> x2 x3", "undeclared state 'x1'"),
        (SEND_RECEIVE, "recv x1 m -> q", "undeclared state 'x1'"),
        (SEND_RECEIVE, "recv p x2 -> q", "undeclared message 'x2'"),
        (SEND_RECEIVE, "recv p m -> x3", "undeclared state 'x3'"),
        (SEND_RECEIVE, "recv m p -> q", "undeclared state 'm'"),
        (SEND_RECEIVE, "recv p x2 -> x3", "undeclared message 'x2'"),
        (PAIRWISE, "x1 q -> p p", "undeclared state 'x1'"),
        (PAIRWISE, "p x2 -> p p", "undeclared state 'x2'"),
        (PAIRWISE, "p q -> x3 p", "undeclared state 'x3'"),
        (PAIRWISE, "p q -> p x4", "undeclared state 'x4'"),
        # A repeated key, with or without spaces around the arrow.
        (SEND_RECEIVE, "recv p m -> p", "duplicate recv entry for ('p', 'm')"),
        (SEND_RECEIVE, "recv p m->p", "duplicate recv entry for ('p', 'm')"),
        (PAIRWISE, "p p -> q q", "duplicate delta entry for ('p', 'p')"),
        (SEND_RECEIVE, "send p -> m q\nsend p -> n p", "duplicate send entry for 'p'"),
        # A malformed abstract rule, and one with an undeclared element.
        (ABSTRACT, "rule {p:1 -> {q:1}", "multiset must be wrapped in braces: '{p:1'"),
        (ABSTRACT, "rule {p:x} -> {q:1}", "bad count 'x' in '{p:x}'"),
        (ABSTRACT, "rule {x:1} -> {q:1}", "undeclared element 'x'"),
        (ABSTRACT, "rule {p:1} -> {q:1, y:2}", "undeclared element 'y'"),
    ],
)
def test_delta_line_errors_keep_their_text(base, line, message):
    text = base.format(line=line)
    with pytest.raises(protofile.ParseError) as err:
        protofile.parse(text)
    assert err.value.line_no == len(text.splitlines())
    assert str(err.value) == f"line {err.value.line_no}: {message}"


def test_emit_writes_stray_receive_keys_in_key_order():
    # An invalid spec may receive over undeclared symbols.  Its file still
    # holds every receive entry, all of them in key order.
    p = pv.ProtocolSpec(
        name="stray",
        kind=ModelKind.QUEUED_TRANSMISSION,
        states=frozenset("pq"),
        messages=frozenset("m"),
        inputs=("a",),
        iota={"a": "p"},
        output={"p": 0, "q": 1},
        send={"p": ("m", "q"), "q": ("m", "q")},
        recv={("q", "m"): "p", ("x", "m"): "q", ("p", "m"): "q", ("p", "n"): "p"},
    )
    recv = [line for line in protofile.emit(p).splitlines() if line.startswith("recv")]
    assert recv == ["recv p m -> q", "recv p n -> p", "recv q m -> p", "recv x m -> q"]
