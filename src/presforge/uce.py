"""Universal central extensions of perfect presentations.

Given a perfect ``<X | R>``, the extension is presented on the same
generators by ``{x c_x : x in X} u {[x, r] : x in X, r in R}`` where each
``c_x`` has zero exponent vector and ``x c_x`` lies in the normal closure
of R.  Witnesses are found constructively, by an integer solve against
the relation lattice, and re-verified before being returned.

`NormalClosureElement.expand` is the one place where a product of relator
conjugates is written out: for these witnesses, for the verdicts of Dehn's
algorithm and for the commutator relators the finite-quotient search drops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .freewords import (
    AlphabetMismatchError,
    Word,
    commutator,
    exponent_vector,
    free_reduce,
    reduce_join,
)
from .homology import h1, relation_matrix, solve_row_lattice
from .presentations import FinitePresentation, PresentationError


class PerfectionRequired(PresentationError):
    """Operation defined only for perfect presentations (H1 = 0)."""


def _letter_times(x: Word, w: Word) -> Word:
    """x * w freely reduced, for a letter x: one `reduce_join` onto the
    reduced text of w, which is not scanned when w is known to be reduced."""
    if w.alphabet != x.alphabet:
        raise AlphabetMismatchError("cannot concatenate words over different alphabets")
    return Word._trusted(x.alphabet, reduce_join(x.text, free_reduce(w).text)[0], True)


@dataclass(frozen=True)
class NormalClosureElement:
    """A product of conjugates of relators: factors (conjugator, relator
    index, sign) whose expansion is stored freely reduced."""

    factors: tuple[tuple[Word, int, int], ...]
    expanded: Word

    @staticmethod
    def expand(P: FinitePresentation, factors: Sequence[tuple[Word, int, int]]) -> str:
        """The text of the product of the factors' conj * r^sign * conj^-1
        over P's relators, each piece joined to the product so far with
        `reduce_join`.  Cancelling keeps the group element, so the text is
        freely equal to the product.  When every conjugator is reduced, so
        is every piece, and by induction each product, since u v for reduced
        u and v cancels only at the join: the text is then the free
        reduction of the expansion, so no valid certificate is refused."""
        alph, rels = P.alphabet, P.relators
        out = ""
        for conj, idx, sign in factors:
            if not (0 <= idx < len(rels)) or sign not in (1, -1):
                raise PresentationError(f"bad closure factor ({idx}, {sign})")
            if conj.alphabet != alph:
                raise AlphabetMismatchError("cannot concatenate words over different alphabets")
            r = rels[idx] if sign > 0 else rels[idx].inverse()
            for piece in (conj.text, r.text, conj.inverse().text):
                out, _ = reduce_join(out, piece)
        return out

    @staticmethod
    def build(P: FinitePresentation,
              factors: Sequence[tuple[Word, int, int]]) -> "NormalClosureElement":
        """The factors with their `expand` text freely reduced: as it is
        when every conjugator is reduced, else by one scan."""
        text = NormalClosureElement.expand(P, factors)
        reduced = all(conj.is_reduced() for conj, _, _ in factors) or None
        return NormalClosureElement(tuple(factors),
                                    free_reduce(Word._trusted(P.alphabet, text, reduced)))

    def verify(self, P: FinitePresentation) -> bool:
        return NormalClosureElement.build(P, self.factors).expanded == self.expanded


@dataclass(frozen=True)
class CommutatorWitness:
    """Generator x, a word c with zero exponent vector, and a closure
    element rho with x*c freely equal to rho's expansion."""

    generator: str
    c: Word
    rho: NormalClosureElement

    def verify(self, P: FinitePresentation) -> bool:
        if any(exponent_vector(self.c)):
            return False
        if _letter_times(P.alphabet.gen(self.generator), self.c) != self.rho.expanded:
            return False
        return self.rho.verify(P)


def find_commutator_witnesses(P: FinitePresentation) -> list[CommutatorWitness]:
    """One witness per generator of a perfect presentation: solve
    y * M = e_x over the integers (M the relation matrix), set
    rho = r_1^{y_1} ... r_m^{y_m} and c = x^-1 * rho.  The integer system
    is solvable for every generator exactly when H1 = 0."""
    H = h1(P)
    if not H.group.is_trivial:
        raise PerfectionRequired(
            f"input has H1 = {H.group}; commutator witnesses require a perfect group")
    M = relation_matrix(P)
    empty = P.alphabet.identity()
    out = []
    for j, name in enumerate(P.alphabet.symbols):
        target = [0] * P.alphabet.rank
        target[j] = 1
        y = solve_row_lattice(M, target, H.smith)
        factors = [(empty, i, 1 if yi > 0 else -1) for i, yi in enumerate(y)
                   for _ in range(abs(yi))]
        rho = NormalClosureElement.build(P, factors)
        c = _letter_times(P.alphabet.gen(name).inverse(), rho.expanded)
        witness = CommutatorWitness(name, c, rho)
        if not witness.verify(P):
            raise AssertionError("constructive witness failed verification (internal error)")
        out.append(witness)
    return out


@dataclass
class UcePresentation:
    """Universal central extension data: the base presentation, the
    extension presentation on the same generators, the witnesses, and the
    kernel generators (images of the base relators, central by
    construction)."""

    base: FinitePresentation
    result: FinitePresentation
    witnesses: list[CommutatorWitness]
    central_kernel_words: tuple[Word, ...]
    dropped_trivial_relators: int = 0

    @property
    def expected_relator_count(self) -> int:
        n = self.base.alphabet.rank
        return n + n * len(self.base.relators)


def miller_uce(P: FinitePresentation) -> UcePresentation:
    """Present the universal central extension of a perfect group on the
    same generator set: relators {x c_x} then {[x, r]} (x-major order).

    Commutator relators that are freely trivial (a relator that is a power
    of the generator) are dropped; this does not change the group.  The
    output's H1 = 0 is machine-checked on its relators {x c_x} alone: each
    [x, r] has zero exponent vector, and more relators only shrink H1.
    """
    witnesses = find_commutator_witnesses(P)
    alph = P.alphabet
    rels = [_letter_times(alph.gen(w.generator), w.c) for w in witnesses]
    if not h1(FinitePresentation(alph, tuple(rels))).group.is_trivial:
        raise AssertionError("UCE presentation is not perfect (internal error)")
    dropped = 0
    for name in alph.symbols:
        for r in P.relators:
            cw = commutator(alph.gen(name), r)
            if cw:
                rels.append(cw)
            else:
                dropped += 1
    result = FinitePresentation(alph, tuple(rels))
    return UcePresentation(
        base=P,
        result=result,
        witnesses=witnesses,
        central_kernel_words=tuple(P.relators),
        dropped_trivial_relators=dropped,
    )

