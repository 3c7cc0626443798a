import itertools
import random
import time

import pytest
from hypothesis import given, strategies as st

from helpers import count_k_eval, k_rich
from popverify.multiset import Multiset
from popverify.semilinear import (
    MAX_NESTING,
    And,
    Const,
    LinearSet,
    Member,
    Modulo,
    Not,
    Or,
    PredicateParseError,
    SemilinearSet,
    Threshold,
    brute_equivalent,
    dot,
    parse_predicate,
    simple_threshold,
)


def linear_member_oracle(L, x):
    """Membership by bounded enumeration of period multiples."""
    res = [a - b for a, b in zip(x, L.base)]
    if any(n < 0 for n in res):
        return False
    bounds = []
    for p in L.periods:
        bounds.append(min(r // pi for r, pi in zip(res, p) if pi) if any(p) else 0)
    for ks in itertools.product(*(range(b + 1) for b in bounds)):
        if all(
            r == sum(k * p[i] for k, p in zip(ks, L.periods))
            for i, r in enumerate(res)
        ):
            return True
    return False


def test_linear_set_validation():
    with pytest.raises(ValueError):
        LinearSet(("a",), (1, 2), ())
    with pytest.raises(ValueError):
        LinearSet(("a",), (-1,), ())
    with pytest.raises(ValueError):
        LinearSet(("a", "b"), (0, 0), ((0, 0),))
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        LinearSet(("a",), (1,), ()).member((1, 2))
    with pytest.raises(ValueError, match="^components disagree on the symbol tuple$"):
        SemilinearSet((LinearSet(("a",), (1,), ()), LinearSet(("b",), (1,), ())))


def test_linear_membership_examples():
    L1 = LinearSet(("a", "b"), (1, 0), ((2, 1), (0, 1)))
    L2 = LinearSet(("a", "b"), (0, 2), ((2, 0),))
    S = SemilinearSet((L1, L2))
    assert L1.member((3, 2))
    assert not L1.member((2, 1))
    assert S.member((2, 2))
    assert not S.member((0, 0))
    assert S.member((1, 0)) and S.member((0, 2))
    # One search step per period subtracted: thousands of steps, past
    # the interpreter's recursion limit.
    ones = LinearSet(("a",), (0,), ((1,),))
    twos = LinearSet(("a",), (0,), ((2,),))
    assert ones.member((3000,))
    assert not twos.member((2001,)) and twos.member((3000,))
    assert LinearSet(("a", "b"), (0, 1), ((1, 0), (1, 1))).member((2500, 1201))
    diagonal = LinearSet(("a", "b"), (0, 0), ((1, 1),))
    assert diagonal.member((2000, 2000)) and not diagonal.member((2000, 2001))


def test_member_matches_enumeration_oracle():
    rng = random.Random(7)
    for _ in range(500):
        dim = rng.randint(1, 3)
        syms = tuple("xyz"[:dim])
        base = tuple(rng.randint(0, 3) for _ in range(dim))
        periods = []
        for _ in range(rng.randint(0, 3)):
            p = tuple(rng.randint(0, 3) for _ in range(dim))
            if any(p):
                periods.append(p)
        L = LinearSet(syms, base, tuple(periods))
        x = tuple(rng.randint(0, 8) for _ in range(dim))
        assert L.member(x) == linear_member_oracle(L, x), (L, x)


def test_threshold_and_modulo():
    t = Threshold({"a": 1, "b": -1}, 1)
    assert t(Multiset({"a": 2, "b": 1}))
    assert not t(Multiset({"a": 1, "b": 1}))
    m = Modulo({"a": 1}, 1, 2)
    assert m(Multiset({"a": 3})) and not m(Multiset({"a": 2}))
    assert Modulo({"a": 1}, -1, 3).r == 2
    with pytest.raises(ValueError):
        Modulo({"a": 1}, 0, 0)


def test_dot_accepts_mappings():
    assert dot({"a": 2, "b": -1}, {"a": 3}) == 6
    assert dot({"a": 2}, Multiset({"a": 1, "b": 5})) == 2


def test_boolean_structure():
    x = Multiset({"a": 2})
    assert And(Const(True), simple_threshold("a", 2))(x)
    assert Or(Const(False), Not(simple_threshold("a", 3)))(x)
    assert Not(Const(False))(x)


@given(
    st.dictionaries(st.sampled_from("ab"), st.integers(0, 6), max_size=2).map(Multiset)
)
def test_de_morgan(x):
    p = simple_threshold("a", 2)
    q = Modulo({"b": 1}, 0, 2)
    assert Not(And(p, q))(x) == Or(Not(p), Not(q))(x)
    assert Not(Or(p, q))(x) == And(Not(p), Not(q))(x)


def test_count_k_eval_clamps():
    table = simple_threshold("a", 2)
    assert count_k_eval(table, 2, Multiset({"a": 9}))
    assert not count_k_eval(table, 1, Multiset({"a": 9}))
    with pytest.raises(ValueError):
        count_k_eval(table, 0, Multiset())


def test_k_rich():
    x = Multiset({"a": 2, "b": 3})
    assert k_rich(x, ("a", "b"), 2)
    assert not k_rich(x, ("a", "b"), 3)
    assert not k_rich(x, ("a",), 1)  # b is present but outside the subalphabet
    with pytest.raises(ValueError):
        k_rich(x, (), 1)


def test_brute_equivalent():
    p = Modulo({"a": 1}, 0, 2)
    q = Not(Modulo({"a": 1}, 1, 2))
    ok, cex = brute_equivalent(p, q, ("a",), 10)
    assert ok and cex is None
    ok, cex = brute_equivalent(p, Const(True), ("a",), 10)
    assert not ok and cex == Multiset({"a": 1})


def test_parse_predicate():
    psi = parse_predicate("(and (mod (v (a 1)) 1 2) (ge (v (a 1) (b -1)) 1))")
    assert psi(Multiset({"a": 3, "b": 1}))
    assert not psi(Multiset({"a": 3, "b": 3}))
    assert not psi(Multiset({"a": 2}))


def test_parse_predicate_count_and_constants():
    assert parse_predicate("(count a 2)")(Multiset({"a": 2}))
    assert parse_predicate("true")(Multiset())
    assert not parse_predicate("(or false false)")(Multiset({"a": 1}))


def test_parse_predicate_semilinear():
    psi = parse_predicate(
        "(sl (lin (base (a 1)) (per (a 2) (b 1)) (per (b 1)))"
        "    (lin (base (b 2)) (per (a 2))))"
    )
    assert psi(Multiset({"a": 3, "b": 2}))
    assert not psi(Multiset({"a": 2, "b": 1}))


def test_parse_predicate_comments():
    psi = parse_predicate("; threshold on a\n(count a 1) ; trailing\n")
    assert psi(Multiset({"a": 1}))


@pytest.mark.parametrize(
    "text",
    [
        "",
        "(bogus 1)",
        "(ge (v (a 1)))",
        "(mod (v (a 1)) 1)",
        "(count a x)",
        "(and (count a 1)) extra",
        "(sl (lin (per (a 1))))",
        "(sl)",
        # A second base is an error, not a silent overwrite.
        "(sl (lin (base (a 1)) (base (a 2))))",
        "(not)",
        # A repeated symbol is an error, not a silent overwrite.
        "(ge (v (a 1) (a -5)) 1)",
        "(sl (lin (base (a 1) (a 2))))",
        # A symbol must be an atom, not a list.
        "(ge (v ((a) 1)) 1)",
        "(count (a) 1)",
    ],
)
def test_parse_predicate_errors(text):
    with pytest.raises(PredicateParseError):
        parse_predicate(text)


def nested(depth: int) -> str:
    """``(count a 2)`` under alternating ``and``/``or`` wrappers, ``depth``
    parentheses deep."""
    text = "(count a 2)"
    for i in range(depth - 1):
        text = f"({('and', 'or')[i % 2]} {text})"
    return text


def test_parse_predicate_nesting_bound():
    psi = parse_predicate(nested(MAX_NESTING))
    assert psi(Multiset({"a": 2})) and not psi(Multiset({"a": 1}))
    with pytest.raises(PredicateParseError, match="nested deeper than"):
        parse_predicate(nested(MAX_NESTING + 1))
    # Far past the interpreter's recursion limit it is still a parse error.
    with pytest.raises(PredicateParseError, match="nested deeper than"):
        parse_predicate("(" * 3000 + "true" + ")" * 3000)


@pytest.mark.parametrize(
    "text,message",
    [
        ("", "unexpected end of input"),
        ("; only a comment", "unexpected end of input"),
        (")", "unexpected ')'"),
        ("(and true", "missing ')'"),
        ("(and (or true)", "missing ')'"),
        ("true false", "trailing input after predicate: ['false']"),
        ("(and true) (x) )", "trailing input after predicate: ['(', 'x', ')', ')']"),
        # Any character but whitespace and parentheses is part of an atom.
        ("(count a 1) $", "trailing input after predicate: ['$']"),
        ("(ge 1 1)", "expected (v (sym coef)...), got '1'"),
        ("(ge (v (a 1 2)) 1)", "bad vector entry ['a', '1', '2']"),
        ("(and 3)", "expected a predicate form, got '3'"),
        ("(count a)", "count takes a symbol and a threshold"),
        ("(sl)", "sl takes one or more (lin ...)"),
        ("(sl x)", "expected (lin ...), got 'x'"),
        ("(sl (lin x))", "bad linear component part 'x'"),
        ("(sl (lin (foo (a 1))))", "expected base or per, got 'foo'"),
        ("(sl (lin (base (a 1)) (base (a 2))))", "linear component with two bases"),
    ],
)
def test_sexp_reader_errors_keep_their_text(text, message):
    with pytest.raises(PredicateParseError) as err:
        parse_predicate(text)
    assert str(err.value) == message


def test_parse_predicate_is_linear_in_the_tokens():
    # Reading consumed tokens off the front of a list made this quadratic:
    # about 20 s for these 400,002 tokens.
    n = 400_000
    start = time.perf_counter()
    psi = parse_predicate("(and " + "true " * n + ")")
    assert time.perf_counter() - start < 5
    assert isinstance(psi, And) and len(psi.args) == n
    assert psi.args[0] == Const(True)


def test_member_expr_uses_component_symbols():
    S = SemilinearSet((LinearSet(("a", "b"), (1, 0), ((1, 1),)),))
    psi = Member(S)
    assert psi(Multiset({"a": 3, "b": 2}))
    assert not psi(Multiset({"b": 2}))
