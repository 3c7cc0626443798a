"""Functions that only tests compute.

The package keeps a name only if a command, a builder, a transform or
the verifier calls it.  These are the paper's notions and invariants
that the tests check against the package, so they live here instead.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from popverify.models import ModelKind, ProtocolSpec, require_valid
from popverify.multiset import Multiset


def truncate(c: Multiset, k: int) -> Multiset:
    """Clamp every multiplicity of ``c`` to at most ``k``."""
    if k < 1:
        raise ValueError(f"truncation bound must be >= 1, got {k}")
    return Multiset._from_items((e, min(k, n)) for e, n in c.items())


def restrict(c: Multiset, elems) -> Multiset:
    """Keep only entries of ``c`` whose symbol is in ``elems``."""
    want = set(elems)
    return Multiset._from_items((e, n) for e, n in c.items() if e in want)


def with_kind(p: ProtocolSpec, kind: ModelKind, mirrors: Optional[bool] = None) -> ProtocolSpec:
    """Re-tag ``p`` with a more general kind it also satisfies."""
    spec = replace(p, kind=kind, mirrors=p.mirrors if mirrors is None else mirrors)
    require_valid(spec)
    return spec


def token_count(c: Multiset) -> int:
    """Total tokens (held by agents or riding on state messages) in a
    configuration of a token-metered simulation."""
    total = 0
    for e, n in c.items():
        if e.startswith("T."):
            total += n * int(e.rsplit(".", 2)[1])
        elif e.startswith("c."):
            total += n
    return total


def avg_active_value(state: str):
    """Data value carried by an active state of the averaging or modulo
    protocols, or ``None`` for passive states."""
    if state.startswith("A"):
        return int(state[1:])
    return None


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
