import pytest
from hypothesis import given, strategies as st

from helpers import restrict, truncate
from popverify.multiset import Multiset, NotIncluded

SYMBOLS = list("abcde")

counts = st.dictionaries(st.sampled_from(SYMBOLS), st.integers(0, 6), max_size=5)
multisets = counts.map(Multiset)


def test_construction_drops_zeros():
    m = Multiset({"a": 2, "b": 0})
    assert m.items() == (("a", 2),)
    assert m == Multiset(["a", "a"])


def test_negative_count_rejected():
    with pytest.raises(ValueError):
        Multiset({"a": -1})


def test_lookup_and_len():
    m = Multiset({"a": 3, "b": 1})
    assert m["a"] == 3 and m["c"] == 0
    assert "a" in m and "c" not in m
    assert len(m) == 4
    assert m.support == ("a", "b")
    assert not Multiset() and bool(m)


def test_parse_and_render():
    m = Multiset.parse("{a:3, b:1}")
    assert m == Multiset({"a": 3, "b": 1})
    assert str(m) == "{a:3, b:1}"
    assert Multiset.parse("{}") == Multiset()
    assert Multiset.parse("{ a , b:2 }") == Multiset({"a": 1, "b": 2})


@pytest.mark.parametrize("bad", ["a:1", "{a:}", "{a:-1}", "{a b}", "{,}", "{a:1,}"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        Multiset.parse(bad)


@pytest.mark.parametrize("text", ["{a:²}", "{a:٣}"])
def test_parse_takes_only_ascii_digit_counts(text):
    # Both pass ``str.isdigit``.
    count = text[3]
    with pytest.raises(ValueError) as err:
        Multiset.parse(text)
    assert str(err.value) == f"bad count {count!r} in {text!r}"


@given(multisets)
def test_parse_round_trip(m):
    assert Multiset.parse(str(m)) == m


def test_addition_and_subtraction():
    a = Multiset({"a": 2, "b": 1})
    b = Multiset({"a": 1, "c": 1})
    assert a + b == Multiset({"a": 3, "b": 1, "c": 1})
    assert (a + b) - b == a
    with pytest.raises(NotIncluded):
        a - b


@given(multisets, multisets)
def test_add_sub_round_trip(a, b):
    assert (a + b) - b == a
    assert a <= a + b and b <= a + b


@given(multisets, multisets)
def test_inclusion_is_pointwise(a, b):
    assert (a <= b) == all(n <= b[e] for e, n in a.items())


def test_truncate():
    m = Multiset({"a": 5, "b": 1})
    assert truncate(m, 2) == Multiset({"a": 2, "b": 1})
    with pytest.raises(ValueError):
        truncate(m, 0)


@given(multisets, st.integers(1, 4))
def test_truncate_below(m, k):
    t = truncate(m, k)
    assert t <= m
    assert all(n <= k for _, n in t.items())


def test_restrict():
    m = Multiset({"a": 2, "b": 1})
    assert restrict(m, {"a"}) == Multiset({"a": 2})


@given(multisets, multisets, st.integers(1, 4), st.sets(st.sampled_from(SYMBOLS)))
def test_operations_equal_the_multiset_of_their_counts(a, b, k, keep):
    # The operations build their results from items they pass in element
    # order; equality compares the item tuples, so it checks that order.
    cases = [
        (a + b, {e: a[e] + b[e] for e in SYMBOLS}),
        (truncate(a, k), {e: min(k, a[e]) for e in SYMBOLS}),
        (restrict(a, keep), {e: a[e] for e in keep}),
    ]
    if b <= a:
        cases.append((a - b, {e: a[e] - b[e] for e in SYMBOLS}))
    for got, counts in cases:
        assert got == Multiset(counts)
        assert list(got.items()) == sorted(got.items())


@given(multisets)
def test_hash_consistency(m):
    assert hash(m) == hash(Multiset(dict(m.items())))
