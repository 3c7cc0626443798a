"""Canonical finite multisets over a symbol alphabet.

The verifier works on the integer codes of a ``RuleSet``.  A multiset is
for parsing and rendering configurations, for inputs, for the rules of
an abstract spec and for evaluating predicates.  Values are immutable
and hashable.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Mapping


class NotIncluded(ValueError):
    """Raised when subtracting a multiset that is not pointwise included."""


_TOKEN = re.compile(r"[^\s{},:]+")


class Multiset:
    """Immutable map from symbol to strictly positive count.

    Zero-count entries are never stored, so two multisets are equal iff
    their item tuples are identical.
    """

    __slots__ = ("_items", "_total", "_hash")

    def __init__(self, counts: Mapping[str, int] | Iterable[str] | None = None):
        acc: dict[str, int] = {}
        if counts is None:
            pass
        elif isinstance(counts, Mapping):
            for elem, n in counts.items():
                if n < 0:
                    raise ValueError(f"negative count for {elem!r}: {n}")
                if n > 0:
                    acc[elem] = acc.get(elem, 0) + n
        else:
            for elem in counts:
                acc[elem] = acc.get(elem, 0) + 1
        object.__setattr__(self, "_items", tuple(sorted(acc.items())))
        object.__setattr__(self, "_total", sum(acc.values()))
        object.__setattr__(self, "_hash", hash(self._items))

    # -- construction helpers ------------------------------------------------

    @classmethod
    def _from_items(cls, items: Iterable[tuple[str, int]]) -> "Multiset":
        """The multiset of ``items``, which come in element order; zero
        counts are dropped."""
        ms = cls.__new__(cls)
        itup = tuple([(e, n) for e, n in items if n > 0])
        object.__setattr__(ms, "_items", itup)
        object.__setattr__(ms, "_total", sum(n for _, n in itup))
        object.__setattr__(ms, "_hash", hash(itup))
        return ms

    @classmethod
    def parse(cls, text: str) -> "Multiset":
        """Parse the rendering produced by ``str()``: ``{a:3, b:1}``.

        Whitespace is arbitrary; a bare symbol means count 1.
        """
        s = text.strip()
        if not (s.startswith("{") and s.endswith("}")):
            raise ValueError(f"multiset must be wrapped in braces: {text!r}")
        body = s[1:-1].strip()
        acc: dict[str, int] = {}
        if body:
            for part in body.split(","):
                part = part.strip()
                if not part:
                    raise ValueError(f"empty entry in multiset: {text!r}")
                if ":" in part:
                    sym, _, num = part.partition(":")
                    sym, num = sym.strip(), num.strip()
                    # ``isdigit`` alone passes '²', which ``int`` rejects,
                    # and '٣', which it reads as 3.
                    if not (num.isascii() and num.isdigit()):
                        raise ValueError(f"bad count {num!r} in {text!r}")
                    n = int(num)
                else:
                    sym, n = part, 1
                if not _TOKEN.fullmatch(sym):
                    raise ValueError(f"bad symbol {sym!r} in {text!r}")
                acc[sym] = acc.get(sym, 0) + n
        return cls(acc)

    # -- mapping access ------------------------------------------------------

    def __getitem__(self, elem: str) -> int:
        for e, n in self._items:
            if e == elem:
                return n
        return 0

    def get(self, elem: str, default: int = 0) -> int:
        n = self[elem]
        return n if n else default

    def __contains__(self, elem: str) -> bool:
        return self[elem] > 0

    def __iter__(self) -> Iterator[str]:
        return (e for e, _ in self._items)

    def items(self) -> tuple[tuple[str, int], ...]:
        return self._items

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(e for e, _ in self._items)

    def __len__(self) -> int:
        return self._total

    def __bool__(self) -> bool:
        return bool(self._items)

    # -- vector operations ---------------------------------------------------

    def __add__(self, other: "Multiset") -> "Multiset":
        acc = dict(self._items)
        for e, n in other._items:
            acc[e] = acc.get(e, 0) + n
        return Multiset._from_items(sorted(acc.items()))

    def __sub__(self, other: "Multiset") -> "Multiset":
        acc = dict(self._items)
        for e, n in other._items:
            have = acc.get(e, 0)
            if n > have:
                raise NotIncluded(f"{other} is not included in {self}")
            acc[e] = have - n
        return Multiset._from_items(acc.items())

    def __le__(self, other: "Multiset") -> bool:
        return all(n <= other[e] for e, n in self._items)

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Multiset) and self._items == other._items

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Multiset.parse({str(self)!r})"

    def __str__(self) -> str:
        body = ", ".join(f"{e}:{n}" for e, n in self._items)
        return "{" + body + "}"
