"""Ground-truth predicate engine.

Explicit semilinear sets with a membership decision procedure, plus a
quantifier-free predicate AST (threshold / modulo / boolean structure)
used as the oracle that protocol sweeps are checked against.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Mapping, Sequence

from .multiset import Multiset


def dot(v: Mapping[str, int], x) -> int:
    return sum(coef * x.get(sigma, 0) for sigma, coef in v.items())


# ---------------------------------------------------------------------------
# Explicit semilinear sets


@dataclass(frozen=True)
class LinearSet:
    """``{base + k1*p1 + ... + kn*pn | ki >= 0}`` over a fixed symbol tuple.

    Base and periods are nonnegative; zero periods are rejected because
    they generate nothing and break the membership search's pruning.
    """

    symbols: tuple
    base: tuple
    periods: tuple

    def __post_init__(self):
        d = len(self.symbols)
        if len(self.base) != d or any(len(p) != d for p in self.periods):
            raise ValueError("dimension mismatch between symbols and vectors")
        if any(n < 0 for n in self.base) or any(n < 0 for p in self.periods for n in p):
            raise ValueError("base and periods must be nonnegative")
        if any(not any(p) for p in self.periods):
            raise ValueError("zero period vector")
        # Dedup, keep heaviest-first order for the DFS.
        uniq = sorted(set(self.periods), key=lambda p: (-sum(p), p))
        object.__setattr__(self, "periods", tuple(uniq))

    def member(self, x: Sequence[int]) -> bool:
        """Decide membership by DFS over period multiples.

        Residuals only shrink (periods are nonzero and nonnegative), so
        memoizing failed residuals bounds the search by the box under x.
        The search keeps its own stack, so its depth, the number of
        periods subtracted, is not bounded by the interpreter's.
        """
        if len(x) != len(self.symbols):
            raise ValueError("dimension mismatch")
        res = tuple(a - b for a, b in zip(x, self.base))
        if any(n < 0 for n in res):
            return False
        dead: set = set()
        # Each frame is a residual and the periods still to try on it.
        stack = [(res, iter(self.periods))]
        while stack:
            r, untried = stack[-1]
            if not any(r):
                return True
            for p in untried:
                if all(pi <= ri for pi, ri in zip(p, r)):
                    nxt = tuple(ri - pi for ri, pi in zip(r, p))
                    if nxt not in dead:
                        stack.append((nxt, iter(self.periods)))
                        break
            else:
                dead.add(r)
                stack.pop()
        return False


@dataclass(frozen=True)
class SemilinearSet:
    components: tuple

    def __post_init__(self):
        syms = {L.symbols for L in self.components}
        if len(syms) > 1:
            raise ValueError("components disagree on the symbol tuple")

    def member(self, x: Sequence[int]) -> bool:
        return any(L.member(x) for L in self.components)


# ---------------------------------------------------------------------------
# Predicate AST


class PredicateExpr:
    def __call__(self, x) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class Const(PredicateExpr):
    value: bool

    def __call__(self, x) -> bool:
        return self.value


@dataclass(frozen=True)
class Threshold(PredicateExpr):
    """``x . v >= r``"""

    v: tuple
    r: int

    def __init__(self, v: Mapping[str, int], r: int):
        object.__setattr__(self, "v", tuple(sorted(v.items())))
        object.__setattr__(self, "r", r)

    def __call__(self, x) -> bool:
        return dot(dict(self.v), x) >= self.r


@dataclass(frozen=True)
class Modulo(PredicateExpr):
    """``x . v = r  (mod m)``"""

    v: tuple
    r: int
    m: int

    def __init__(self, v: Mapping[str, int], r: int, m: int):
        if m < 1:
            raise ValueError(f"modulus must be >= 1, got {m}")
        object.__setattr__(self, "v", tuple(sorted(v.items())))
        object.__setattr__(self, "r", r % m)
        object.__setattr__(self, "m", m)

    def __call__(self, x) -> bool:
        return dot(dict(self.v), x) % self.m == self.r


def simple_threshold(sigma: str, k: int) -> Threshold:
    """``count(sigma) >= k``"""
    return Threshold({sigma: 1}, k)


@dataclass(frozen=True)
class Member(PredicateExpr):
    sset: SemilinearSet

    def __call__(self, x) -> bool:
        symbols = self.sset.components[0].symbols
        return self.sset.member(tuple(x.get(s, 0) for s in symbols))


@dataclass(frozen=True)
class Not(PredicateExpr):
    arg: PredicateExpr

    def __call__(self, x) -> bool:
        return not self.arg(x)


@dataclass(frozen=True)
class And(PredicateExpr):
    args: tuple

    def __init__(self, *args: PredicateExpr):
        object.__setattr__(self, "args", tuple(args))

    def __call__(self, x) -> bool:
        return all(a(x) for a in self.args)


@dataclass(frozen=True)
class Or(PredicateExpr):
    args: tuple

    def __init__(self, *args: PredicateExpr):
        object.__setattr__(self, "args", tuple(args))

    def __call__(self, x) -> bool:
        return any(a(x) for a in self.args)


def count_k_eval(table, k: int, x) -> bool:
    """Apply a boolean table to the input's counts clamped at ``k``."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return bool(table(Multiset({s: min(k, n) for s, n in x.items()})))


def k_rich(x, subalphabet, k: int) -> bool:
    """True iff every symbol of the subalphabet occurs at least ``k``
    times and no other symbol occurs at all."""
    sub = set(subalphabet)
    if not sub:
        raise ValueError("subalphabet must be nonempty")
    if any(x.get(s, 0) < k for s in sub):
        return False
    return all(s in sub for s, n in x.items() if n)


def brute_equivalent(psi1, psi2, symbols: Sequence[str], box: int):
    """Compare two predicates on every nonnegative vector in the box
    ``{0..box}^symbols``.  Returns ``(equivalent, first_counterexample)``."""
    for values in itertools.product(range(box + 1), repeat=len(symbols)):
        x = Multiset({s: n for s, n in zip(symbols, values)})
        if bool(psi1(x)) != bool(psi2(x)):
            return False, x
    return True, None


# ---------------------------------------------------------------------------
# S-expression predicate files
#
#   (and (mod (v (a 1)) 1 2) (ge (v (a 1) (b -1)) 1))
#   operators: and, or, not, true, false,
#              (ge (v (sym coef)...) r), (mod (v ...) r m), (count sym k),
#              (sl (lin (base (sym n)...) (per (sym n)...)*)+)


class PredicateParseError(ValueError):
    pass


# The deepest parenthesis nesting a predicate file may use.  Parsing and
# evaluation recurse a few frames per level, so this stays far below the
# interpreter's recursion limit: whatever parses also evaluates.
MAX_NESTING = 64

# Every character outside whitespace is a parenthesis or part of an
# atom, so the tokens hold all of a text but its whitespace.
_SEXP_TOKEN = re.compile(r"\(|\)|[^\s()]+")


def _read_sexp(tokens: list) -> tuple:
    """The first form of ``tokens`` and the index just past it, read in
    one pass with a stack of the lists still open."""
    stack: list = []
    for i, tok in enumerate(tokens):
        if tok == "(":
            if len(stack) == MAX_NESTING:
                raise PredicateParseError(f"parentheses nested deeper than {MAX_NESTING} levels")
            stack.append([])
            continue
        if tok == ")":
            if not stack:
                raise PredicateParseError("unexpected ')'")
            tok = stack.pop()
        if not stack:
            return tok, i + 1
        stack[-1].append(tok)
    raise PredicateParseError("missing ')'" if stack else "unexpected end of input")


def _as_int(tok) -> int:
    try:
        return int(tok)
    except (TypeError, ValueError):
        raise PredicateParseError(f"expected integer, got {tok!r}") from None


def _as_symbol(tok) -> str:
    if not isinstance(tok, str):
        raise PredicateParseError(f"expected a symbol, got {tok!r}")
    return tok


def _read_vector(form) -> dict:
    if not isinstance(form, list) or not form or form[0] != "v":
        raise PredicateParseError(f"expected (v (sym coef)...), got {form!r}")
    return _read_entries(form[1:])


def _read_entries(entries) -> dict:
    """The ``(sym coef)`` entries of a vector; a symbol may occur once."""
    v = {}
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != 2:
            raise PredicateParseError(f"bad vector entry {entry!r}")
        sym = _as_symbol(entry[0])
        if sym in v:
            raise PredicateParseError(f"repeated symbol {sym!r} in vector")
        v[sym] = _as_int(entry[1])
    return v


def _build(form) -> PredicateExpr:
    if form == "true":
        return Const(True)
    if form == "false":
        return Const(False)
    if not isinstance(form, list) or not form:
        raise PredicateParseError(f"expected a predicate form, got {form!r}")
    head = form[0]
    if head == "and":
        return And(*(_build(f) for f in form[1:]))
    if head == "or":
        return Or(*(_build(f) for f in form[1:]))
    if head == "not":
        if len(form) != 2:
            raise PredicateParseError("not takes one argument")
        return Not(_build(form[1]))
    if head == "ge":
        if len(form) != 3:
            raise PredicateParseError("ge takes a vector and a threshold")
        return Threshold(_read_vector(form[1]), _as_int(form[2]))
    if head == "mod":
        if len(form) != 4:
            raise PredicateParseError("mod takes a vector, residue and modulus")
        return Modulo(_read_vector(form[1]), _as_int(form[2]), _as_int(form[3]))
    if head == "count":
        if len(form) != 3:
            raise PredicateParseError("count takes a symbol and a threshold")
        return simple_threshold(_as_symbol(form[1]), _as_int(form[2]))
    if head == "sl":
        return Member(_build_semilinear(form))
    raise PredicateParseError(f"unknown operator {head!r}")


def _build_semilinear(form) -> SemilinearSet:
    components = []
    symbols: set = set()
    vectors = []
    for lin in form[1:]:
        if not isinstance(lin, list) or not lin or lin[0] != "lin":
            raise PredicateParseError(f"expected (lin ...), got {lin!r}")
        base = None
        periods = []
        for part in lin[1:]:
            if not isinstance(part, list) or not part:
                raise PredicateParseError(f"bad linear component part {part!r}")
            vec = _read_entries(part[1:])
            symbols.update(vec)
            if part[0] == "base":
                base = vec
            elif part[0] == "per":
                periods.append(vec)
            else:
                raise PredicateParseError(f"expected base or per, got {part[0]!r}")
        if base is None:
            raise PredicateParseError("linear component without a base")
        vectors.append((base, periods))
    symtup = tuple(sorted(symbols))
    for base, periods in vectors:
        components.append(
            LinearSet(
                symtup,
                tuple(base.get(s, 0) for s in symtup),
                tuple(tuple(p.get(s, 0) for s in symtup) for p in periods),
            )
        )
    return SemilinearSet(tuple(components))


def parse_predicate(text: str) -> PredicateExpr:
    stripped = "\n".join(line.split(";", 1)[0] for line in text.splitlines())
    tokens = _SEXP_TOKEN.findall(stripped)
    form, end = _read_sexp(tokens)
    if end < len(tokens):
        raise PredicateParseError(f"trailing input after predicate: {tokens[end:]!r}")
    return _build(form)
