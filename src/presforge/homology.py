"""Integer linear algebra for presentation homology.

Smith normal form over Z with verified unimodular transforms, first
homology (abelianization) of a finite presentation, the perfection test,
and second homology of aspherical presentations via the rank formula
(kernel of the abelianized boundary map, always free).

Everything uses Python's arbitrary-precision integers; pivot growth is a
correctness issue, not an overflow risk.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .freewords import exponent_vector
from .presentations import FinitePresentation

IntegerMatrix = list[list[int]]


class AsphericityRequired(ValueError):
    """h2_aspherical needs the caller-asserted asphericity flag."""


def relation_matrix(P: FinitePresentation) -> IntegerMatrix:
    """One row per relator, one column per generator; entry = exponent sum."""
    return [list(exponent_vector(r)) for r in P.relators]


def _identity(n: int) -> IntegerMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A: IntegerMatrix, B: IntegerMatrix) -> IntegerMatrix:
    if not A or not B:
        return [[0] * (len(B[0]) if B else 0) for _ in A]
    n, k, m = len(A), len(B), len(B[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        Oi = out[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                for j in range(m):
                    Oi[j] += a * Bt[j]
    return out


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


@dataclass
class SmithForm:
    """diag(d_1..d_r) with d_i | d_{i+1}, plus unimodular transforms
    satisfying left * M * right == diagonal embedding."""

    diagonal: list[int]
    left: IntegerMatrix
    right: IntegerMatrix
    rows: int
    cols: int

    @property
    def rank(self) -> int:
        return len(self.diagonal)

    def diagonal_matrix(self) -> IntegerMatrix:
        D = [[0] * self.cols for _ in range(self.rows)]
        for i, d in enumerate(self.diagonal):
            D[i][i] = d
        return D

    def verify(self, M: IntegerMatrix) -> bool:
        return mat_mul(mat_mul(self.left, M), self.right) == self.diagonal_matrix()


def smith_normal_form(M: IntegerMatrix) -> SmithForm:
    """Exact SNF with transforms.

    Pivot strategy: smallest nonzero absolute value in the working block,
    ties broken by (row, column) index, so the transforms are reproducible.
    The computed identity left*M*right == D is re-checked on every call.
    """
    m = len(M)
    n = len(M[0]) if m else 0
    A = [row[:] for row in M]
    L = _identity(m)
    R = _identity(n)

    def row_op(i: int, j: int, q: int) -> None:  # row_i -= q * row_j
        Ai, Aj = A[i], A[j]
        for t in range(n):
            Ai[t] -= q * Aj[t]
        Li, Lj = L[i], L[j]
        for t in range(m):
            Li[t] -= q * Lj[t]

    def col_op(i: int, j: int, q: int) -> None:  # col_i -= q * col_j
        for r in range(m):
            A[r][i] -= q * A[r][j]
        for r in range(n):
            R[r][i] -= q * R[r][j]

    def swap_rows(i: int, j: int) -> None:
        A[i], A[j] = A[j], A[i]
        L[i], L[j] = L[j], L[i]

    def swap_cols(i: int, j: int) -> None:
        for r in range(m):
            A[r][i], A[r][j] = A[r][j], A[r][i]
        for r in range(n):
            R[r][i], R[r][j] = R[r][j], R[r][i]

    def negate_row(i: int) -> None:
        A[i] = [-x for x in A[i]]
        L[i] = [-x for x in L[i]]

    k = 0
    while True:
        pivot = None
        best = None
        for i in range(k, m):
            for j in range(k, n):
                a = A[i][j]
                if a != 0 and (best is None or abs(a) < best):
                    best = abs(a)
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(k, pivot[0])
        swap_cols(k, pivot[1])
        while True:
            if A[k][k] < 0:
                negate_row(k)
            dirty = False
            for i in range(k + 1, m):
                if A[i][k]:
                    q = A[i][k] // A[k][k]
                    row_op(i, k, q)
                    if A[i][k]:  # nonzero remainder becomes the new pivot
                        swap_rows(k, i)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(k + 1, n):
                if A[k][j]:
                    q = A[k][j] // A[k][k]
                    col_op(j, k, q)
                    if A[k][j]:
                        swap_cols(k, j)
                        dirty = True
                        break
            if dirty:
                continue
            # row and column are clear; enforce divisibility of the block
            d = A[k][k]
            offender = None
            for i in range(k + 1, m):
                for j in range(k + 1, n):
                    if A[i][j] % d != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(k, offender, -1)  # pull the offending row up, keep reducing
        k += 1

    diagonal = [A[i][i] for i in range(min(m, n)) if A[i][i] != 0]
    form = SmithForm(diagonal=diagonal, left=L, right=R, rows=m, cols=n)
    if not form.verify(M):
        raise AssertionError("SNF transform verification failed (internal error)")
    return form


def minors_gcd(M: IntegerMatrix, k: int) -> int:
    """gcd of all k x k minors (0 if none are nonzero); oracle for SNF since
    d_1*...*d_k == minors_gcd(M, k)."""
    from itertools import combinations

    m = len(M)
    n = len(M[0]) if m else 0
    g = 0
    for rows in combinations(range(m), k):
        for cols in combinations(range(n), k):
            sub = [[M[i][j] for j in cols] for i in rows]
            g = gcd(g, det(sub))
    return g


@dataclass(frozen=True)
class AbelianGroupDescriptor:
    """Finitely generated abelian group: free rank plus torsion coefficients
    in a divisibility chain (each entry > 1 and dividing the next)."""

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        for i, t in enumerate(self.torsion):
            if t <= 1:
                raise ValueError("torsion coefficients must exceed 1")
            if i + 1 < len(self.torsion) and self.torsion[i + 1] % t != 0:
                raise ValueError("torsion coefficients must form a divisibility chain")

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def direct_sum(self, other: "AbelianGroupDescriptor") -> "AbelianGroupDescriptor":
        if not self.torsion and not other.torsion:
            return AbelianGroupDescriptor(self.rank + other.rank)
        k = len(self.torsion) + len(other.torsion)
        D = [[0] * k for _ in range(k)]
        for i, t in enumerate(self.torsion + other.torsion):
            D[i][i] = t
        chain = smith_normal_form(D).diagonal
        return AbelianGroupDescriptor(
            self.rank + other.rank, tuple(t for t in chain if t > 1))

    def __str__(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


@dataclass
class H1Result:
    """Abelianization, plus each generator's image in the chosen basis of
    the cokernel (torsion coordinates first, then free coordinates)."""

    group: AbelianGroupDescriptor
    generator_images: dict[str, tuple[int, ...]]
    smith: SmithForm


def h1(P: FinitePresentation) -> H1Result:
    """Cokernel of the relation matrix, with generator images.

    With left*M*right == D, the substitution x -> x*right carries the row
    lattice of M onto the row lattice of D, so the class of generator j is
    row j of `right` read in the diagonal basis: coordinates with d_i > 1
    are torsion (reduced mod d_i), coordinates beyond the rank are free.
    """
    M = relation_matrix(P)
    n = P.alphabet.rank
    if not M:
        form = SmithForm([], _identity(0), _identity(n), 0, n)
    else:
        form = smith_normal_form(M)
    diag = form.diagonal
    r = len(diag)
    torsion_pos = [i for i in range(r) if diag[i] > 1]
    free_pos = list(range(r, n))
    group = AbelianGroupDescriptor(
        rank=n - r, torsion=tuple(diag[i] for i in torsion_pos))
    images: dict[str, tuple[int, ...]] = {}
    for j, name in enumerate(P.alphabet.symbols):
        row = form.right[j]
        coords = [row[i] % diag[i] for i in torsion_pos]
        coords += [row[i] for i in free_pos]
        images[name] = tuple(coords)
    return H1Result(group=group, generator_images=images, smith=form)


def is_perfect(P: FinitePresentation) -> bool:
    return h1(P).group.is_trivial


@dataclass
class H2Result:
    group: AbelianGroupDescriptor
    asphericity_note: str


def h2_aspherical(P: FinitePresentation) -> H2Result:
    """H2 of an aspherical presentation: the kernel of the abelianized
    boundary map, which is free of rank (#relators - rank of the relation
    matrix).  Requires the asphericity flag and echoes its provenance.
    """
    if not P.aspherical:
        raise AsphericityRequired(
            "presentation carries no asphericity assertion; h2 unavailable")
    M = relation_matrix(P)
    m = len(M)
    r = smith_normal_form(M).rank if M else 0
    return H2Result(group=AbelianGroupDescriptor(rank=m - r),
                    asphericity_note=P.aspherical)


def solve_row_lattice(M: IntegerMatrix, target: list[int],
                      form: SmithForm | None = None) -> list[int] | None:
    """Find integer y with y*M == target, or None if target is outside the
    row lattice.  Used constructively (membership in the abelianized
    relation lattice, commutator-witness solving)."""
    m = len(M)
    n = len(M[0]) if m else 0
    if m == 0:
        return None if any(target) else []
    if form is None:
        form = smith_normal_form(M)
    # y*M = t  <=>  (y*L^-1)*D = t*R  with z = y*L^-1, so z_i = (t*R)_i / d_i
    tR = [sum(target[i] * form.right[i][j] for i in range(n)) for j in range(n)]
    diag = form.diagonal
    r = len(diag)
    if any(tR[j] != 0 for j in range(r, n)):
        return None
    z = [0] * m
    for i in range(r):
        if tR[i] % diag[i] != 0:
            return None
        z[i] = tR[i] // diag[i]
    # y = z * L
    y = [sum(z[i] * form.left[i][j] for i in range(r)) for j in range(m)]
    # size-reduce against the kernel lattice (rows r..m-1 of L) to keep the
    # resulting relator powers short
    kernel = [form.left[i] for i in range(r, m)]
    changed = True
    while changed:
        changed = False
        for kv in kernel:
            norm = sum(x * x for x in kv)
            if norm == 0:
                continue
            t, rem = divmod(sum(a * b for a, b in zip(y, kv)), norm)
            if 2 * rem > norm or (2 * rem == norm and t % 2):
                t += 1  # exact round-half-to-even of dot / norm
            if t:
                y = [a - t * b for a, b in zip(y, kv)]
                changed = True
    assert [sum(y[i] * M[i][j] for i in range(m)) for j in range(n)] == list(target)
    return y
