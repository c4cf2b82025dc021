"""Test-only oracles that re-derive answers of presforge by brute force.

`brute_force_homs` enumerates every tuple of generator images in S_k,
`group_order` and `image_order` give the order of a permutation group by
orbit closure, `word_problem_oracle` decides the word problem of a finite
group from a completed coset table over the trivial subgroup, and
`minors_gcd` (over the
Bareiss determinant `det`) gives the products d_1 * ... * d_k of a Smith
form's invariant factors.
"""

from __future__ import annotations

import itertools
from math import gcd
from typing import Callable, Sequence

from presforge.freewords import Word
from presforge.homology import IntegerMatrix
from presforge.presentations import FinitePresentation
from presforge.quotients import Perm, PermAssignment, compose, identity_perm, todd_coxeter


def brute_force_homs(P: FinitePresentation, k: int) -> list[PermAssignment]:
    """Raw product enumeration (no backtracking); independent oracle for
    small inputs."""
    gens = P.alphabet.symbols
    all_perms = [tuple(p) for p in itertools.permutations(range(k))]
    ident = identity_perm(k)
    out = []
    for combo in itertools.product(all_perms, repeat=len(gens)):
        hom = PermAssignment(k, tuple(zip(gens, combo)))
        if all(hom.evaluate(r) == ident for r in P.relators):
            out.append(hom)
    return out


def group_order(perms: Sequence[Perm], k: int) -> int:
    """Order of the permutation group generated by `perms` (orbit closure)."""
    ident = identity_perm(k)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for p in perms:
                h = compose(g, p)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return len(seen)


def image_order(hom: PermAssignment) -> int:
    """Order of the image of a homomorphism into S_degree."""
    return group_order([p for _, p in hom.images], hom.degree)


def word_problem_oracle(P: FinitePresentation,
                        max_cosets: int = 100_000) -> Callable[[Word], bool]:
    """Exact word-problem decision procedure for a presentation whose coset
    enumeration over the trivial subgroup completes (finite groups).

    Returns a callable Word -> bool.  Raises if enumeration overflows.
    """
    table = todd_coxeter(P, (), max_cosets=max_cosets)
    if not table.complete:
        raise RuntimeError(
            f"coset enumeration overflowed ({table.cosets_defined} cosets); "
            "no finite oracle available")
    action = table.action
    ident = identity_perm(action.degree)
    # over the trivial subgroup the action is regular, so a word is trivial
    # iff it acts as the identity
    return lambda w: action.evaluate(w) == ident


def det(A: IntegerMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(A)
    if n == 0:
        return 1
    M = [row[:] for row in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k] != 0:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def minors_gcd(M: IntegerMatrix, k: int) -> int:
    """gcd of all k x k minors (0 if none are nonzero); oracle for SNF since
    d_1*...*d_k == minors_gcd(M, k)."""
    m = len(M)
    n = len(M[0]) if m else 0
    g = 0
    for rows in itertools.combinations(range(m), k):
        for cols in itertools.combinations(range(n), k):
            sub = [[M[i][j] for j in cols] for i in rows]
            g = gcd(g, det(sub))
    return g
