"""Integer linear algebra for presentation homology.

Smith normal form over Z by one elimination loop, with the left transform
as sparse rows and the form re-checked in both directions (left*M*right == D
row by row, each row of M*right in the lattice of D, det(right) = +-1);
first homology (abelianization) of a finite presentation with generator
images, and second homology of aspherical presentations via the rank
formula (always free).

Everything uses Python's arbitrary-precision integers; pivot growth is a
correctness issue, not an overflow risk.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _det(A: IntegerMatrix) -> int:
    """Exact determinant of a square matrix by fraction-free (Bareiss)
    elimination: each division by the previous pivot is exact."""
    A, sign, prev = [list(row) for row in A], 1, 1
    for k in range(len(A)):
        p = next((i for i in range(k, len(A)) if A[i][k]), None)
        if p is None:
            return 0
        A[k], A[p], sign = A[p], A[k], sign if p == k else -sign
        for i in range(k + 1, len(A)):
            A[i] = [(a * A[k][k] - A[i][k] * b) // prev for a, b in zip(A[i], A[k])]
        prev = A[k][k]
    return sign * prev


def _combine(pairs, B: IntegerMatrix, width: int) -> list[int]:
    """The sum of x * B[t] over the (t, x) pairs of a row."""
    out = [0] * width
    for t, x in pairs:
        if x:
            out = [a + x * b for a, b in zip(out, B[t])]
    return out


@dataclass
class SmithForm:
    """diag(d_1..d_r) with d_i | d_{i+1}, plus unimodular transforms with
    left * M * right == diagonal embedding; `left` rows are sparse dicts."""

    diagonal: list[int]
    left: list[dict[int, int]]
    right: IntegerMatrix
    rows: int
    cols: int

    @property
    def rank(self) -> int:
        return len(self.diagonal)

    def verify(self, M: IntegerMatrix) -> bool:
        """Whether Z^n / rows(M) is Z^n / rows(D) through `right`.  Row by row,
        left[i]*M*right == d_i*e_i, left[i]*M == 0 past the rank, and no
        left[i] is zero: the rows of D lie in the lattice of M*right.  Every
        nonzero row of M*right lies in the lattice of D.  The diagonal is a
        positive divisibility chain of at most min(m, n) entries, and
        det(right) = +-1."""
        d, r, n = self.diagonal, self.rank, self.cols
        if (len(self.left) != self.rows or r > min(self.rows, n) or any(x <= 0 for x in d)
                or any(b % a for a, b in zip(d, d[1:])) or [len(row) for row in self.right] != [n] * n):
            return False
        for i, row in enumerate(self.left):
            v = _combine(row.items(), M, n)
            if i < r:
                v = _combine(enumerate(v), self.right, n)
                v[i] -= d[i]
            if any(v) or not any(row.values()):
                return False
        for row in M:
            if any(row):  # a zero row, such as a commutator's, maps to zero
                v = _combine(enumerate(row), self.right, n)
                if any(v[r:]) or any(v[j] % d[j] for j in range(r)):
                    return False
        return abs(_det(self.right)) == 1


def _pivot(rows: IntegerMatrix, k: int, m: int) -> tuple[int, int] | None:
    """(row, column) of the first least nonzero |entry| of the block from (k, k)
    in row-major order; nothing is smaller than 1, so a 1 ends the scan."""
    best = None
    for i in range(k, m):
        for j, a in enumerate(rows[i][k:], k):
            if a and (best is None or abs(a) < best[0]):
                best = abs(a), i, j
                if best[0] == 1:
                    return i, j
    return None if best is None else best[1:]


def smith_normal_form(M: IntegerMatrix) -> SmithForm:
    """Exact SNF with transforms.

    Pivot rule: smallest nonzero absolute value in the working block,
    ties broken by (row, column) index, so the transforms are reproducible.
    Each row operation is applied to the working rows and to the same rows
    of the left transform, dicts that start as {i: 1}; the rows of the right
    transform follow the working rows, so one column operation moves both.
    The computed identity left*M*right == D is re-checked on every call.
    """
    m, n = len(M), len(M[0]) if M else 0
    rows = [list(row) for row in M] + _identity(n)
    left = [{i: 1} for i in range(m)]

    def add_row(i: int, j: int, q: int) -> None:  # row_i -= q * row_j
        rows[i] = [a - q * b for a, b in zip(rows[i], rows[j])]
        Li = left[i]
        for t, x in left[j].items():
            Li[t] = Li.get(t, 0) - q * x
            if not Li[t]:
                del Li[t]

    def swap_cols(i: int, j: int) -> None:
        for row in rows:
            row[i], row[j] = row[j], row[i]

    for k in range(min(m, n)):
        pivot = _pivot(rows, k, m)
        if pivot is None:
            break
        rows[k], rows[pivot[0]] = rows[pivot[0]], rows[k]
        left[k], left[pivot[0]] = left[pivot[0]], left[k]
        swap_cols(k, pivot[1])
        while True:  # one elementary operation per round until the pivot settles
            if rows[k][k] < 0:
                rows[k] = [-x for x in rows[k]]
                left[k] = {t: -x for t, x in left[k].items()}
            d = rows[k][k]
            i = next((i for i in range(k + 1, m) if rows[i][k]), None)
            if i is not None:
                add_row(i, k, rows[i][k] // d)
                if rows[i][k]:  # nonzero remainder becomes the new pivot
                    rows[k], rows[i] = rows[i], rows[k]
                    left[k], left[i] = left[i], left[k]
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
                      if any(x % d for x in rows[i][k + 1:])), None)
            if i is None:
                break
            add_row(k, i, -1)  # pull the offending row up, keep reducing

    diagonal = [rows[i][i] for i in range(min(m, n)) if rows[i][i] != 0]
    form = SmithForm(diagonal, left, rows[m:], m, n)
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
    if not M:
        return None if any(target) else []
    m, n = len(M), len(M[0])
    if form is None:
        form = smith_normal_form(M)
    # y*M = t  <=>  (y*L^-1)*D = t*R  with z = y*L^-1, so z_i = (t*R)_i / d_i
    tR = _combine(enumerate(target), form.right, n)
    diag, r = form.diagonal, form.rank
    if any(tR[r:]) or any(tR[i] % diag[i] for i in range(r)):
        return None
    z = [tR[i] // diag[i] for i in range(r)]
    # y = z * L
    y = [0] * m
    for zi, row in zip(z, form.left):
        for i, x in row.items():
            y[i] += zi * x
    # size-reduce against the kernel lattice (rows r..m-1 of L) to keep the
    # resulting relator powers short; UCE kernel rows are mostly unit vectors
    kernel = [(row, norm) for row in form.left[r:] if (norm := sum(x * x for x in row.values()))]
    changed = True
    while changed:
        changed = False
        for row, norm in kernel:
            t, rem = divmod(sum(y[i] * x for i, x in row.items()), norm)
            if 2 * rem > norm or (2 * rem == norm and t % 2):
                t += 1  # exact round-half-to-even of dot / norm
            if t:
                for i, x in row.items():
                    y[i] -= t * x
                changed = True
    if _combine(enumerate(y), M, n) != list(target):
        raise AssertionError("row-lattice solution fails y*M == target (internal error)")
    return y
