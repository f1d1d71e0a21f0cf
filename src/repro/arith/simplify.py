"""Symbolic simplification of arithmetic expressions.

Implements the paper's algebraic rules (section 5.3):

    (1)  x / y = 0                      if 0 <= x < y
    (2)  (x * y + z) / y = x + z / y    if y > 0
    (3)  x mod y = x                    if 0 <= x < y
    (4)  (x / y) * y + x mod y = x      if y > 0
    (5)  (x * y) mod y = 0              if y > 0
    (6)  (x + y) mod z = (x mod z + y mod z) mod z

together with the canonicalizations that make them fire: sums and products
are flattened, constants folded, like terms collected, and products
distributed over sums.  Side conditions such as ``x < y`` are discharged
with the range information variables carry (section 5.1): bounds of an
expression are computed by substituting each variable's range limits and
re-simplifying, then compared structurally.

All divisors are assumed positive — array lengths and split factors in the
Lift type system are natural numbers, which is exactly the domain knowledge
a generic C compiler lacks (the paper's matrix-transposition example).
"""

from __future__ import annotations

import math
import threading as _threading
from collections import OrderedDict
from typing import Iterable, Sequence

from repro.arith.expr import (
    ArithExpr,
    Cst,
    IntDiv,
    LoadIndex,
    Log2,
    Mod,
    Pow,
    Prod,
    Sum,
    Var,
    to_expr,
)

ZERO = Cst(0)
ONE = Cst(1)

# Re-entrancy guard: while proving side conditions we must not apply the
# range-based rules again (bounds are themselves simplified expressions),
# otherwise proofs could recurse without end.  The depth is thread-local:
# the rewrite-space explorer compiles candidates on a worker pool, and a
# shared counter would race (a lost update permanently disables the memo
# gate below; a cross-thread read could cache a depth-truncated result).
_tls = _threading.local()
_MAX_PROOF_DEPTH = 6


def _proof_depth() -> int:
    return getattr(_tls, "proof_depth", 0)


def _proof_enter() -> None:
    _tls.proof_depth = _proof_depth() + 1


def _proof_exit() -> None:
    _tls.proof_depth = _proof_depth() - 1


# ---------------------------------------------------------------------------
# memoization
# ---------------------------------------------------------------------------
#
# The compiler re-simplifies identical view-index expressions many times
# per kernel, and ``prove_lt`` re-discharges the same bounds proofs.
# Expression nodes are hash-consed (:mod:`repro.arith.expr`): a
# structurally identical expression — *including* variable ranges, which
# ``Var.__eq__`` deliberately ignores but the intern key folds in — is
# the same object, so the memo tables key by identity.  Entries pin the
# keyed expressions (cache values hold strong references), which keeps
# their ``id`` valid for exactly as long as the entry lives; the ``is``
# check on lookup makes id recycling harmless either way.  Results
# computed under a non-zero proof depth are *not* cached (they may have
# been cut short by the depth guard).

_SIMPLIFY_CACHE: "OrderedDict[int, tuple]" = OrderedDict()
_PROVE_LT_CACHE: "OrderedDict[tuple, tuple]" = OrderedDict()
_CACHE_SIZE = 4096
#: Guards the two OrderedDicts (get + move_to_end is not atomic; a
#: concurrent eviction would raise KeyError under the explorer's pool).
_CACHE_LOCK = _threading.Lock()


def _cache_put(cache: OrderedDict, key, value) -> None:
    with _CACHE_LOCK:
        cache[key] = value
        while len(cache) > _CACHE_SIZE:
            cache.popitem(last=False)


def _cache_get(cache: OrderedDict, key):
    with _CACHE_LOCK:
        value = cache.get(key)
        if value is not None:
            cache.move_to_end(key)
        return value


def clear_caches() -> None:
    """Drop the memoized simplification and proof results."""
    with _CACHE_LOCK:
        _SIMPLIFY_CACHE.clear()
        _PROVE_LT_CACHE.clear()


# ---------------------------------------------------------------------------
# term/factor decomposition helpers
# ---------------------------------------------------------------------------

def _as_factors(expr: ArithExpr) -> tuple[int, tuple[ArithExpr, ...]]:
    """Split an expression into (integer coefficient, sorted atom factors)."""
    if isinstance(expr, Cst):
        return expr.value, ()
    if isinstance(expr, Prod):
        coeff = 1
        atoms: list[ArithExpr] = []
        for f in expr.factors:
            if isinstance(f, Cst):
                coeff *= f.value
            else:
                atoms.append(f)
        atoms.sort(key=lambda a: a.sort_key())
        return coeff, tuple(atoms)
    return 1, (expr,)


def _from_factors(coeff: int, atoms: Sequence[ArithExpr]) -> ArithExpr:
    if coeff == 0:
        return ZERO
    parts: list[ArithExpr] = list(atoms)
    if not parts:
        return Cst(coeff)
    if coeff != 1:
        parts = [Cst(coeff)] + parts
    if len(parts) == 1:
        return parts[0]
    return Prod(parts)


def _as_terms(expr: ArithExpr) -> list[ArithExpr]:
    if isinstance(expr, Sum):
        return list(expr.terms)
    return [expr]


# ---------------------------------------------------------------------------
# smart constructors
# ---------------------------------------------------------------------------

def sum_of(terms: Iterable[ArithExpr]) -> ArithExpr:
    """Build a canonical, simplified sum."""
    # Flatten nested sums and fold constants.
    flat: list[ArithExpr] = []
    for t in terms:
        flat.extend(_as_terms(t))

    const = 0
    by_atoms: dict[tuple[ArithExpr, ...], int] = {}
    for t in flat:
        coeff, atoms = _as_factors(t)
        if not atoms:
            const += coeff
        else:
            by_atoms[atoms] = by_atoms.get(atoms, 0) + coeff

    by_atoms = {a: c for a, c in by_atoms.items() if c != 0}
    by_atoms = _apply_div_mod_recomposition(by_atoms)

    result: list[ArithExpr] = [
        _from_factors(c, a)
        for a, c in sorted(by_atoms.items(), key=lambda item: item[0][0].sort_key())
    ]
    if const != 0 or not result:
        result.append(Cst(const))
    if len(result) == 1:
        return result[0]
    return Sum(result)


def _apply_div_mod_recomposition(
    by_atoms: dict[tuple[ArithExpr, ...], int],
) -> dict[tuple[ArithExpr, ...], int]:
    """Rule (4): find ``c*r*(x/y)*y`` and ``c*r*(x mod y)``, replace by
    ``c*r*x``.  ``r`` is any shared residual factor multiset."""
    changed = True
    while changed:
        changed = False
        for atoms, coeff in list(by_atoms.items()):
            div = None
            rest: list[ArithExpr] = []
            result_coeff = coeff
            for a in atoms:
                if not isinstance(a, IntDiv):
                    continue
                candidate_rest = [x for x in atoms if x is not a]
                denom_const = a.denom.try_int()
                if a.denom in candidate_rest:
                    # symbolic divisor: r * (x/y) * y  +  r * (x mod y)
                    div = a
                    rest = list(candidate_rest)
                    rest.remove(a.denom)
                    result_coeff = coeff
                    break
                if denom_const is not None and denom_const != 0 and coeff % denom_const == 0:
                    # constant divisor folded into the coefficient:
                    # (c*k) * (x/k)  +  c * (x mod k)  ->  c * x
                    div = a
                    rest = candidate_rest
                    result_coeff = coeff // denom_const
                    break
            if div is None:
                continue
            partner_atoms = tuple(
                sorted(rest + [Mod(div.numer, div.denom)], key=lambda e: e.sort_key())
            )
            partner = by_atoms.get(partner_atoms)
            if partner is None or partner != result_coeff:
                continue
            del by_atoms[atoms]
            del by_atoms[partner_atoms]
            replacement = mul(_from_factors(result_coeff, rest), div.numer)
            r_coeff, r_atoms = _as_factors(replacement)
            if r_atoms or r_coeff:
                by_atoms[r_atoms] = by_atoms.get(r_atoms, 0) + r_coeff
                if by_atoms[r_atoms] == 0:
                    del by_atoms[r_atoms]
            changed = True
            break
    return by_atoms


def prod_of(factors: Iterable[ArithExpr]) -> ArithExpr:
    """Build a canonical, simplified product (distributing over sums)."""
    flat: list[ArithExpr] = []
    for f in factors:
        if isinstance(f, Prod):
            flat.extend(f.factors)
        else:
            flat.append(f)

    coeff = 1
    atoms: list[ArithExpr] = []
    sums: list[Sum] = []
    for f in flat:
        if isinstance(f, Cst):
            coeff *= f.value
        elif isinstance(f, Sum):
            sums.append(f)
        else:
            atoms.append(f)

    if coeff == 0:
        return ZERO

    if sums:
        # Distribute: multiply out one sum at a time.
        base = _from_factors(coeff, sorted(atoms, key=lambda a: a.sort_key()))
        result: list[ArithExpr] = [base]
        for s in sums:
            result = [prod_of([r, t]) for r in result for t in s.terms]
        return sum_of(result)

    atoms.sort(key=lambda a: a.sort_key())
    return _from_factors(coeff, atoms)


def add(a: ArithExpr, b: ArithExpr) -> ArithExpr:
    return sum_of([a, b])


def sub(a: ArithExpr, b: ArithExpr) -> ArithExpr:
    return sum_of([a, prod_of([Cst(-1), b])])


def mul(a: ArithExpr, b: ArithExpr) -> ArithExpr:
    return prod_of([a, b])


def int_div(numer: ArithExpr, denom: ArithExpr) -> ArithExpr:
    """Simplified integer division (rules 1 and 2)."""
    nc, dc = numer.try_int(), denom.try_int()
    if dc == 1:
        return numer
    if nc == 0:
        return ZERO
    if nc is not None and dc is not None and dc != 0:
        return Cst(nc // dc)
    if numer == denom:
        return ONE

    # (x / y) / z = x / (y * z) for positive divisors.
    if isinstance(numer, IntDiv):
        return int_div(numer.numer, mul(numer.denom, denom))

    # Cancel shared factors: (c * y * r) / y = c * r ;
    # reduce constant coefficients by gcd.
    reduced = _cancel_factors_div(numer, denom)
    if reduced is not None:
        return reduced

    # Rule (2): pull terms that are multiples of the divisor out of a sum.
    if isinstance(numer, Sum):
        outside: list[ArithExpr] = []
        inside: list[ArithExpr] = []
        for t in numer.terms:
            q = _exact_quotient(t, denom)
            if q is not None:
                outside.append(q)
            else:
                inside.append(t)
        if outside:
            rest = sum_of(inside) if inside else ZERO
            return sum_of(outside + [int_div(rest, denom)])

    # Rule (1): x / y = 0 if 0 <= x < y.
    if _prove_in_range(numer, denom):
        return ZERO

    return IntDiv(numer, denom)


def mod(numer: ArithExpr, denom: ArithExpr) -> ArithExpr:
    """Simplified modulo (rules 3, 5 and 6)."""
    nc, dc = numer.try_int(), denom.try_int()
    if dc == 1:
        return ZERO
    if nc == 0:
        return ZERO
    if nc is not None and dc is not None and dc != 0:
        return Cst(nc % dc)
    if numer == denom:
        return ZERO

    # (x mod y) mod y = x mod y
    if isinstance(numer, Mod) and numer.denom == denom:
        return numer

    # Rule (5): (x * y) mod y = 0 — including constant multiples.
    if _exact_quotient(numer, denom) is not None:
        return ZERO

    # Rule (6) specialized: drop terms of a sum that are multiples of the
    # divisor, then retry on the remainder.
    if isinstance(numer, Sum):
        kept = [t for t in numer.terms if _exact_quotient(t, denom) is None]
        if len(kept) < len(numer.terms):
            rest = sum_of(kept) if kept else ZERO
            return mod(rest, denom)

    # Factor out a shared constant: (c*x) mod (c*y) = c * (x mod y).
    factored = _factor_common_mod(numer, denom)
    if factored is not None:
        return factored

    # Rule (3): x mod y = x if 0 <= x < y.
    if _prove_in_range(numer, denom):
        return numer

    return Mod(numer, denom)


def _exact_quotient(term: ArithExpr, denom: ArithExpr) -> ArithExpr | None:
    """Return ``term / denom`` when the division is provably exact."""
    t_coeff, t_atoms = _as_factors(term)
    d_coeff, d_atoms = _as_factors(denom)
    if d_coeff == 0:
        return None
    atoms = list(t_atoms)
    for a in d_atoms:
        if a in atoms:
            atoms.remove(a)
        else:
            return None
    if t_coeff % d_coeff != 0:
        return None
    return _from_factors(t_coeff // d_coeff, atoms)


def exact_quotient(expr: ArithExpr, denom: ArithExpr) -> ArithExpr | None:
    """``expr / denom``, simplified, when every term of the simplified
    ``expr`` is provably an exact multiple of ``denom``; else ``None``."""
    expr = simplify(expr)
    terms = expr.terms if isinstance(expr, Sum) else (expr,)
    quotients = [_exact_quotient(t, denom) for t in terms]
    if any(q is None for q in quotients):
        return None
    return sum_of(quotients)


def _cancel_factors_div(numer: ArithExpr, denom: ArithExpr) -> ArithExpr | None:
    """Cancel common atom factors and constant gcds in a division."""
    n_coeff, n_atoms = _as_factors(numer)
    d_coeff, d_atoms = _as_factors(denom)
    if d_coeff == 0 or isinstance(numer, Sum):
        return None
    n_list, d_list = list(n_atoms), list(d_atoms)
    cancelled = False
    for a in list(d_list):
        if a in n_list:
            n_list.remove(a)
            d_list.remove(a)
            cancelled = True
    g = math.gcd(abs(n_coeff), abs(d_coeff))
    if g > 1:
        n_coeff //= g
        d_coeff //= g
        cancelled = True
    if not cancelled:
        return None
    new_numer = _from_factors(n_coeff, n_list)
    new_denom = _from_factors(d_coeff, d_list)
    return int_div(new_numer, new_denom)


def _factor_common_mod(numer: ArithExpr, denom: ArithExpr) -> ArithExpr | None:
    """(c * x) mod (c * y) = c * (x mod y) for a shared constant c > 1.

    Also covers (c*x) mod d with c | d:  c * (x mod (d/c))."""
    n_coeff, n_atoms = _as_factors(numer)
    d_coeff, d_atoms = _as_factors(denom)
    if isinstance(numer, Sum) or d_coeff == 0:
        return None
    g = math.gcd(abs(n_coeff), abs(d_coeff))
    if g <= 1:
        return None
    inner = mod(_from_factors(n_coeff // g, n_atoms), _from_factors(d_coeff // g, d_atoms))
    return mul(Cst(g), inner)


def pow_(base: ArithExpr, exp: ArithExpr) -> ArithExpr:
    bc, ec = base.try_int(), exp.try_int()
    if ec == 0:
        return ONE
    if ec == 1:
        return base
    if bc is not None and ec is not None and ec >= 0:
        return Cst(bc**ec)
    if bc == 1:
        return ONE
    return Pow(base, exp)


def log2(arg: ArithExpr) -> ArithExpr:
    v = arg.try_int()
    if v is not None and v > 0 and not (v & (v - 1)):
        return Cst(v.bit_length() - 1)
    if isinstance(arg, Pow) and arg.base == Cst(2):
        return arg.exp
    return Log2(arg)


def simplify(expr: ArithExpr) -> ArithExpr:
    """Fully re-simplify a (possibly raw) expression bottom-up.

    Top-level results (outside any bounds proof) are memoized by node
    identity — hash-consing makes structurally identical expressions
    the same object, so the lookup is O(1) instead of a key-building
    tree walk.
    """
    if _proof_depth() == 0 and not isinstance(expr, (Cst, Var)):
        entry = _cache_get(_SIMPLIFY_CACHE, id(expr))
        if entry is not None and entry[0] is expr:
            return entry[1]
        result = _simplify_uncached(expr)
        _cache_put(_SIMPLIFY_CACHE, id(expr), (expr, result))
        return result
    return _simplify_uncached(expr)


def _simplify_uncached(expr: ArithExpr) -> ArithExpr:
    if isinstance(expr, Var):
        # A variable whose logical range is [0, 1) is identically zero;
        # this is how the paper's Figure 7 writes z[wg_id] rather than
        # z[wg_id + l_id] for the single-element copy to global memory.
        if expr.range.min.try_int() == 0 and expr.range.max is not None:
            if simplify(expr.range.max).try_int() == 1:
                return ZERO
        return expr
    if isinstance(expr, Cst):
        return expr
    if isinstance(expr, Sum):
        return sum_of([simplify(t) for t in expr.terms])
    if isinstance(expr, Prod):
        return prod_of([simplify(f) for f in expr.factors])
    if isinstance(expr, IntDiv):
        return int_div(simplify(expr.numer), simplify(expr.denom))
    if isinstance(expr, Mod):
        return mod(simplify(expr.numer), simplify(expr.denom))
    if isinstance(expr, Pow):
        return pow_(simplify(expr.base), simplify(expr.exp))
    if isinstance(expr, Log2):
        return log2(simplify(expr.arg))
    if isinstance(expr, LoadIndex):
        return LoadIndex(expr.memory_name, simplify(expr.index))
    raise TypeError(f"unknown arithmetic node {expr!r}")


# ---------------------------------------------------------------------------
# range reasoning
# ---------------------------------------------------------------------------

def bound_min(expr: ArithExpr) -> ArithExpr | None:
    """An inclusive lower bound with every variable grounded through its
    range, or ``None`` when unknown."""
    return _bound(expr, want_max=False, keep_vars=False)


def bound_max(expr: ArithExpr) -> ArithExpr | None:
    """An inclusive upper bound with every variable grounded through its
    range, or ``None`` when unknown."""
    return _bound(expr, want_max=True, keep_vars=False)


def _bound(expr: ArithExpr, want_max: bool, keep_vars: bool) -> ArithExpr | None:
    if _proof_depth() >= _MAX_PROOF_DEPTH:
        return None
    _proof_enter()
    try:
        return _bound_inner(expr, want_max, keep_vars)
    finally:
        _proof_exit()


def _bound_inner(expr: ArithExpr, want_max: bool, keep_vars: bool) -> ArithExpr | None:
    """Directed bound computation.

    With ``keep_vars`` the bound keeps a variable symbolic when the variable
    itself is a valid bound in the requested direction (always true for a
    lower bound, since ``v <= v``).  This is what lets ``N - l_id`` with
    ``l_id in [0, N)`` prove positive even though ``N`` is unbounded: the
    lower bound becomes ``N - (N - 1) = 1``.
    """
    if isinstance(expr, Cst):
        return expr
    if isinstance(expr, Var):
        if want_max:
            if expr.range.max is not None:
                return sub(expr.range.max, ONE)
            return expr if keep_vars else None
        return expr if keep_vars else expr.range.min
    if isinstance(expr, Sum):
        parts = [_bound_inner(t, want_max, keep_vars) for t in expr.terms]
        if any(p is None for p in parts):
            return None
        return sum_of(parts)  # type: ignore[arg-type]
    if isinstance(expr, Prod):
        coeff, atoms = _as_factors(expr)
        flip = coeff < 0
        parts = [_bound_inner(a, want_max != flip, keep_vars) for a in atoms]
        if any(p is None for p in parts):
            return None
        if len(parts) > 1:
            # A product of bounds only bounds the product when every
            # factor's bound is non-negative; a single linear term needs
            # no such restriction.
            for p in parts:
                if not _is_non_negative(p):  # type: ignore[arg-type]
                    return None
        return prod_of([Cst(coeff)] + parts)  # type: ignore[list-item]
    if isinstance(expr, IntDiv):
        n = _bound_inner(expr.numer, want_max, keep_vars)
        d = _bound_inner(expr.denom, not want_max, keep_vars)
        if n is None or not _is_non_negative(n):
            return None
        if d is None or not _is_positive(d):
            # floor(n / d) >= 0 for non-negative n and positive d.
            return ZERO if not want_max else None
        return int_div(n, d)
    if isinstance(expr, Mod):
        if want_max:
            d = _bound_inner(expr.denom, True, keep_vars)
            if d is None:
                return None
            return sub(d, ONE)
        return ZERO
    if isinstance(expr, Pow):
        b = _bound_inner(expr.base, want_max, keep_vars)
        e = _bound_inner(expr.exp, want_max, keep_vars)
        if b is None or e is None or not _is_non_negative(b):
            return None
        return pow_(b, e)
    return None


def _is_non_negative(expr: ArithExpr) -> bool:
    """Structural non-negativity check (conservative)."""
    if isinstance(expr, Cst):
        return expr.value >= 0
    if isinstance(expr, Var):
        lo = expr.range.min.try_int()
        if lo is not None:
            return lo >= 0
        return _is_non_negative(expr.range.min)
    if isinstance(expr, Sum):
        return all(_is_non_negative(t) for t in expr.terms)
    if isinstance(expr, Prod):
        coeff, atoms = _as_factors(expr)
        return coeff >= 0 and all(_is_non_negative(a) for a in atoms)
    if isinstance(expr, (IntDiv, Mod)):
        return _is_non_negative(expr.numer) and _is_non_negative(expr.denom)
    if isinstance(expr, Pow):
        return _is_non_negative(expr.base)
    if isinstance(expr, Log2):
        return True
    return False


def _is_positive(expr: ArithExpr) -> bool:
    """Structural positivity check (conservative)."""
    if isinstance(expr, Cst):
        return expr.value > 0
    if isinstance(expr, Var):
        lo = expr.range.min.try_int()
        if lo is not None:
            return lo >= 1
        return _is_positive(expr.range.min)
    if isinstance(expr, Sum):
        return all(_is_non_negative(t) for t in expr.terms) and any(
            _is_positive(t) for t in expr.terms
        )
    if isinstance(expr, Prod):
        coeff, atoms = _as_factors(expr)
        return coeff > 0 and all(_is_positive(a) for a in atoms)
    if isinstance(expr, Pow):
        return _is_positive(expr.base)
    return False


def prove_ge_zero(expr: ArithExpr) -> bool:
    """Prove ``expr >= 0`` using structure and range information."""
    if _is_non_negative(expr):
        return True
    lo = _bound(expr, want_max=False, keep_vars=True)
    return lo is not None and _is_non_negative(lo)


def prove_lt(a: ArithExpr, b: ArithExpr) -> bool:
    """Prove ``a < b`` using range information.

    Proved by showing a lower bound of ``b - a`` is positive; the bound
    keeps variables symbolic where valid so that e.g. ``l_id < N`` holds
    for ``l_id`` in ``[0, N)`` even when ``N`` itself is unbounded.
    Proof outcomes at depth zero are memoized (depth-limited inner
    proofs may be cut short, so only the top level is cacheable).
    """
    if _proof_depth() >= _MAX_PROOF_DEPTH:
        return False
    key = None
    if _proof_depth() == 0:
        key = (id(a), id(b))
        entry = _cache_get(_PROVE_LT_CACHE, key)
        if entry is not None and entry[0] is a and entry[1] is b:
            return entry[2]
    _proof_enter()
    try:
        diff = sub(b, a)
    finally:
        _proof_exit()
    lo = _bound(diff, want_max=False, keep_vars=True)
    result = lo is not None and _is_positive(lo)
    if key is not None:
        _cache_put(_PROVE_LT_CACHE, key, (a, b, result))
    return result


def _prove_in_range(x: ArithExpr, y: ArithExpr) -> bool:
    """Side condition of rules (1) and (3): ``0 <= x < y``."""
    if _proof_depth() >= _MAX_PROOF_DEPTH:
        return False
    return prove_ge_zero(x) and prove_lt(x, y)


def to_int(expr: ArithExpr | int) -> int:
    """Extract a concrete integer, raising when the expression is symbolic."""
    e = to_expr(expr)
    v = e.try_int()
    if v is None:
        raise ValueError(f"expected a concrete integer, got {e}")
    return v
