"""Exact linear programming over the rationals.

Two-phase simplex with Bland's rule, dense Fraction arithmetic.  The cone
questions this package asks involve a few dozen variables at most, so
termination (Bland never cycles) matters more than pivot heuristics.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction as Q

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def maximize(c: Sequence, A: Sequence[Sequence], b: Sequence):
    """max c.x subject to A x = b, x >= 0.

    Returns (status, value, x); value and x are None unless optimal.
    """
    m, n = len(A), len(c)
    c = [Q(v) for v in c]
    rows = [[Q(v) for v in row] for row in A]
    rhs = [Q(v) for v in b]
    for i in range(m):
        if len(rows[i]) != n:
            raise ValueError("row %d has %d entries, expected %d"
                             % (i, len(rows[i]), n))
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]

    # phase 1: minimize the sum of artificial variables
    tab = [rows[i] + [Q(1) if k == i else Q(0) for k in range(m)] + [rhs[i]]
           for i in range(m)]
    basis = list(range(n, n + m))
    obj = _priced_objective([Q(0)] * n + [Q(-1)] * m, tab, basis)
    status = _pivot_until_optimal(tab, basis, obj, n + m)
    if status != OPTIMAL or obj[-1] != 0:  # obj[-1] = -(objective value)
        return INFEASIBLE, None, None
    _evict_artificials(tab, basis, n)

    # phase 2: the real objective over the original columns only
    obj = _priced_objective(c + [Q(0)] * m, tab, basis)
    status = _pivot_until_optimal(tab, basis, obj, n)
    if status != OPTIMAL:
        return UNBOUNDED, None, None
    x = [Q(0)] * n
    for r, col in enumerate(basis):
        if col < n:
            x[col] = tab[r][-1]
    return OPTIMAL, -obj[-1], x


def _priced_objective(c: list, tab: list, basis: list) -> list:
    """Reduced-cost row for c on a tableau in canonical form.

    The last entry carries minus the current objective value, so it stays
    consistent under the same row operations as the constraint rows.
    """
    obj = list(c) + [Q(0)]
    for r, col in enumerate(basis):
        f = obj[col]
        if f:
            obj = [a - f * t for a, t in zip(obj, tab[r])]
    return obj


def _pivot_until_optimal(tab: list, basis: list, obj: list, ncols: int) -> str:
    while True:
        enter = next((j for j in range(ncols) if obj[j] > 0), None)
        if enter is None:
            return OPTIMAL
        pick = None
        for r in range(len(tab)):
            a = tab[r][enter]
            if a > 0:
                key = (tab[r][-1] / a, basis[r])
                if pick is None or key < pick[0]:
                    pick = (key, r)
        if pick is None:
            return UNBOUNDED
        _pivot(tab, basis, obj, pick[1], enter)


def _pivot(tab: list, basis: list, obj: list, r: int, col: int) -> None:
    inv = Q(1) / tab[r][col]
    tab[r] = [v * inv for v in tab[r]]
    for i in range(len(tab)):
        if i != r and tab[i][col]:
            f = tab[i][col]
            tab[i] = [a - f * b for a, b in zip(tab[i], tab[r])]
    if obj[col]:
        f = obj[col]
        obj[:] = [a - f * b for a, b in zip(obj, tab[r])]
    basis[r] = col


def _evict_artificials(tab: list, basis: list, n: int) -> None:
    """Pivot artificial variables out of the basis; drop redundant rows."""
    r = 0
    while r < len(tab):
        if basis[r] < n:
            r += 1
            continue
        col = next((j for j in range(n) if tab[r][j] != 0), None)
        if col is None:
            del tab[r]
            del basis[r]
            continue
        _pivot(tab, basis, [Q(0)] * (len(tab[r])), r, col)
        r += 1
