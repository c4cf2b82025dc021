"""Integer linear algebra for presentation homology.

Smith normal form over Z by one elimination loop whose working rows carry
the left transform, with left*M*right == D re-checked; first homology
(abelianization) of a finite presentation, the perfection test, and second
homology of aspherical presentations via the rank formula (always free).

Everything uses Python's arbitrary-precision integers; pivot growth is a
correctness issue, not an overflow risk.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm

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

    @cached_property
    def kernel_rows(self) -> list[tuple[list[tuple[int, int]], int]]:
        """The nonzero rows rank.. of `left`, a basis of the left kernel of
        M, each as its nonzero (index, entry) pairs and its squared norm."""
        supports = [[(i, x) for i, x in enumerate(row) if x] for row in self.left[self.rank:]]
        return [(s, sum(x * x for _, x in s)) for s in supports if s]

    def verify(self, M: IntegerMatrix) -> bool:
        D = [[0] * self.cols for _ in range(self.rows)]
        for i, d in enumerate(self.diagonal):
            D[i][i] = d
        return mat_mul(mat_mul(self.left, M), self.right) == D


def _pivot(rows: IntegerMatrix, k: int, m: int, n: int) -> tuple[int, int] | None:
    """(row, column) of the first least nonzero |entry| of the block from (k, k)
    in row-major order; nothing is smaller than 1, so a 1 ends the scan."""
    best = None
    for i in range(k, m):
        for j, a in enumerate(rows[i][k:n], k):
            if a and (best is None or abs(a) < best[0]):
                best = abs(a), i, j
                if best[0] == 1:
                    return i, j
    return None if best is None else best[1:]


def smith_normal_form(M: IntegerMatrix) -> SmithForm:
    """Exact SNF with transforms.

    Pivot rule: smallest nonzero absolute value in the working block,
    ties broken by (row, column) index, so the transforms are reproducible.
    Working row i is row i of A followed by row i of the left transform, so
    one row operation moves both; the rows of the right transform follow
    them, so one column operation moves A and the right transform.  The
    computed identity left*M*right == D is re-checked on every call.
    """
    m = len(M)
    n = len(M[0]) if m else 0
    rows = [list(M[i]) + e for i, e in enumerate(_identity(m))] + _identity(n)

    def add_row(i: int, j: int, q: int) -> None:  # row_i -= q * row_j
        rows[i] = [a - q * b for a, b in zip(rows[i], rows[j])]

    def swap_cols(i: int, j: int) -> None:
        for row in rows:
            row[i], row[j] = row[j], row[i]

    for k in range(min(m, n)):
        pivot = _pivot(rows, k, m, n)
        if pivot is None:
            break
        rows[k], rows[pivot[0]] = rows[pivot[0]], rows[k]
        swap_cols(k, pivot[1])
        while True:  # one elementary operation per round until the pivot settles
            if rows[k][k] < 0:
                rows[k] = [-x for x in rows[k]]
            d = rows[k][k]
            i = next((i for i in range(k + 1, m) if rows[i][k]), None)
            if i is not None:
                add_row(i, k, rows[i][k] // d)
                if rows[i][k]:  # nonzero remainder becomes the new pivot
                    rows[k], rows[i] = rows[i], rows[k]
                continue
            j = next((j for j in range(k + 1, n) if rows[k][j]), None)
            if j is not None:
                q = rows[k][j] // d
                for row in rows:  # col_j -= q * col_k
                    row[j] -= q * row[k]
                if rows[k][j]:
                    swap_cols(k, j)
                continue
            # row and column are clear; enforce divisibility of the block
            if d == 1:
                break
            i = next((i for i in range(k + 1, m)
                      if any(x % d for x in rows[i][k + 1:n])), None)
            if i is None:
                break
            add_row(k, i, -1)  # pull the offending row up, keep reducing

    diagonal = [rows[i][i] for i in range(min(m, n)) if rows[i][i] != 0]
    form = SmithForm(diagonal, [row[n:] for row in rows[:m]], rows[m:], m, n)
    if not form.verify(M):
        raise AssertionError("SNF transform verification failed (internal error)")
    return form


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
        """Z/a + Z/b is Z/gcd(a, b) + Z/lcm(a, b); applied to every pair i < j
        in turn, this leaves each entry dividing all the entries after it."""
        chain = list(self.torsion + other.torsion)
        for i in range(len(chain)):
            for j in range(i + 1, len(chain)):
                chain[i], chain[j] = gcd(chain[i], chain[j]), lcm(chain[i], chain[j])
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
    form = smith_normal_form(M) if M else SmithForm([], [], _identity(n), 0, n)
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
    rank = len(M) - smith_normal_form(M).rank
    return H2Result(group=AbelianGroupDescriptor(rank=rank),
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
    if any(tR[i] % diag[i] for i in range(r)):
        return None
    z = [tR[i] // diag[i] for i in range(r)]
    # y = z * L
    y = [sum(z[i] * form.left[i][j] for i in range(r)) for j in range(m)]
    # size-reduce against the kernel lattice (rows r..m-1 of L) to keep the
    # resulting relator powers short; UCE kernel rows are mostly unit vectors
    changed = True
    while changed:
        changed = False
        for support, norm in form.kernel_rows:
            t, rem = divmod(sum(y[i] * x for i, x in support), norm)
            if 2 * rem > norm or (2 * rem == norm and t % 2):
                t += 1  # exact round-half-to-even of dot / norm
            if t:
                for i, x in support:
                    y[i] -= t * x
                changed = True
    if [sum(y[i] * M[i][j] for i in range(m)) for j in range(n)] != list(target):
        raise AssertionError("row-lattice solution fails y*M == target (internal error)")
    return y
