"""Universal central extensions of perfect presentations.

Given a perfect ``<X | R>``, the extension is presented on the same
generators by ``{x c_x : x in X} u {[x, r] : x in X, r in R}`` where each
``c_x`` has zero exponent vector and ``x c_x`` lies in the normal closure
of R.  Witnesses are found constructively, by an integer solve against
the relation lattice.

Also here: the fair enumeration of the normal closure, and the certified
subgroup-expression search, which walks diagonal d of the reduced words
against that enumeration, pairing the i-th word with the (d - i)-th
closure element.  Both directions of the word-problem transfer between a
perfect group and its universal central extension end in that one
search, after their own cheap tests.  The searches take
explicit step budgets and return three-valued answers; a positive or
negative answer always carries a certificate that is re-verified before
being returned.  `NormalClosureElement.expand` is the one place where a
product of relator conjugates is written out, for these certificates and
for the verdicts of Dehn's algorithm alike.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .freewords import (
    Alphabet,
    AlphabetMismatchError,
    Word,
    apply_map,
    commutator,
    exponent_vector,
    free_reduce,
    identity_images,
    reduce_join,
    render_word,
)
from .homology import h1, relation_matrix, solve_row_lattice
from .presentations import FinitePresentation, PresentationError

DEFAULT_BUDGET = 10**6


class PerfectionRequired(PresentationError):
    """Operation defined only for perfect presentations (H1 = 0)."""


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
        """The factors with their `expand` text freely reduced, one scan
        when every conjugator is reduced."""
        return NormalClosureElement(tuple(factors), free_reduce(
            Word._trusted(P.alphabet, NormalClosureElement.expand(P, factors))))

    def verify(self, P: FinitePresentation) -> bool:
        return NormalClosureElement.build(P, self.factors).expanded == self.expanded

    def inverse(self, P: FinitePresentation) -> "NormalClosureElement":
        rev = tuple((conj, idx, -sign) for conj, idx, sign in reversed(self.factors))
        return NormalClosureElement.build(P, rev)


def _reduced_word_levels(alphabet: Alphabet) -> Iterator[tuple[Word, ...]]:
    """The freely reduced words of length 0, 1, 2, ..., one tuple per
    length, each lexicographic in the letter order (0,+1) < (0,-1) <
    (1,+1) < ... and built from the one before; they stop at the first
    empty level, so over the empty alphabet after the identity."""
    gens = [alphabet.gen(s) for s in alphabet.symbols]
    letters = [(x.text, x.inverse().text) for g in gens for x in (g, g.inverse())]
    level = (alphabet.identity(),)
    while level:
        yield level
        level = tuple(Word._trusted(alphabet, w.text + x) for w in level
                      for x, x_inv in letters if w.text[-1:] != x_inv)


def reduced_words(alphabet: Alphabet) -> Iterator[Word]:
    """All freely reduced words in (length, lex) order, identity first.
    Finite (just the identity) over the empty alphabet."""
    return itertools.chain.from_iterable(_reduced_word_levels(alphabet))


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def normal_closure_stream(P: FinitePresentation) -> Iterator[NormalClosureElement]:
    """Fair deterministic enumeration of products of conjugates of relators.

    Order: by size (factor count + total conjugator length); within a
    size, by factor count, then sign pattern (all-positive first), then
    relator index tuple, then conjugator lengths and words, each
    lexicographic.  The first |R| emissions are exactly the relators, and
    every product of conjugates appears after finitely many emissions.
    """
    m = len(P.relators)
    if m == 0:
        return
    levels = _reduced_word_levels(P.alphabet)
    by_length: list[tuple[Word, ...]] = []
    for size in itertools.count(1):
        by_length.append(next(levels))  # conjugators of length size - 1
        for k in range(1, size + 1):
            for signs in itertools.product((1, -1), repeat=k):
                for indices in itertools.product(range(m), repeat=k):
                    for comp in _compositions(size - k, k):
                        for conjs in itertools.product(*[by_length[l] for l in comp]):
                            yield NormalClosureElement.build(
                                P, tuple(zip(conjs, indices, signs)))


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
        x = P.alphabet.gen(self.generator)
        if free_reduce(x.concat(self.c)) != self.rho.expanded:
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
        x = P.alphabet.gen(name)
        c = free_reduce(x.inverse().concat(rho.expanded))
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
    rels = [free_reduce(alph.gen(w.generator).concat(w.c)) for w in witnesses]
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


# --- certified subgroup expression (naive search) --------------------------

@dataclass
class ExpressResult:
    """Outcome of expressing w as a word in given subgroup generators.

    status "found": `word` over `symbols` satisfies w = word(subgens) in
    the group, certified by `certificate` (a closure element whose
    expansion equals w * subst(word)^-1 in the free group).
    status "exhausted": the budget ran out; never a wrong answer.
    """

    status: str
    word: Word | None = None
    symbols: Alphabet | None = None
    substitution: dict[str, Word] | None = None
    certificate: NormalClosureElement | None = None
    checks: int = 0


def express_in_generators(
    G: FinitePresentation,
    subgens: Sequence[Word],
    w: Word,
    budget: int = DEFAULT_BUDGET,
) -> ExpressResult:
    """Search for pi with w = pi(subgens) in G, by enumerating candidate
    words pi and closure elements along finite diagonals and testing
    whether w * subst(pi)^-1 equals the closure element in the free group.

    The caller guarantees (unchecked) that w lies in <subgens> if a
    positive answer is expected; otherwise the budget runs out.  Returned
    certificates are re-verified; unverifiable candidates are never
    returned (soundness over completeness).
    """
    if w.alphabet != G.alphabet:
        raise PresentationError("word not over the presentation's alphabet")
    for u in subgens:
        if u.alphabet != G.alphabet:
            raise PresentationError("subgroup generator over the wrong alphabet")
    sym = Alphabet([f"s{i}" for i in range(len(subgens))])
    subst = {f"s{i}": subgens[i] for i in range(len(subgens))}

    pis: list[Word] = []
    targets: list[Word] = []
    rhos: list[NormalClosureElement] = []
    pi_iter, rho_iter = reduced_words(sym), normal_closure_stream(G)
    checks = 0
    d = 0
    while checks < budget:
        # a stream grows by one per diagonal, so only a running one holds d
        if len(pis) == d and (pi := next(pi_iter, None)) is not None:
            pis.append(pi)
            image = apply_map(pi, subst, target=G.alphabet)
            targets.append(free_reduce(w.concat(image.inverse())))
            checks += 1
            if not targets[-1]:
                cert = NormalClosureElement.build(G, ())
                return ExpressResult("found", pi, sym, subst, cert, checks)
        if len(rhos) == d and (rho := next(rho_iter, None)) is not None:
            rhos.append(rho)
        for i in range(max(0, d + 1 - len(rhos)), min(d + 1, len(pis))):
            checks += 1
            if checks > budget:
                return ExpressResult("exhausted", checks=checks)
            rho = rhos[d - i]
            if targets[i] == rho.expanded and rho.verify(G):
                return ExpressResult("found", pis[i], sym, subst, rho, checks)
        if len(pis) + len(rhos) < d:  # both streams have ended
            return ExpressResult("exhausted", checks=checks)
        d += 1
    return ExpressResult("exhausted", checks=checks)


# --- word-problem transfer --------------------------------------------------

@dataclass
class TransferResult:
    verdict: str            # "trivial" | "nontrivial" | "inconclusive"
    stage: str
    witness: str | None = None
    expression: ExpressResult | None = None


def kernel_symbols(U: UcePresentation) -> tuple[Alphabet, dict[str, Word], dict[str, Word]]:
    """Extended alphabet for words over generators plus kernel letters.

    Returns (alphabet, deletion images into the base alphabet, substitution
    images into the extension alphabet).  Kernel letter z{j} stands for the
    j-th base relator viewed in the extension.
    """
    base = U.base.alphabet
    zs = []
    for j in range(1, len(U.central_kernel_words) + 1):
        name = f"z{j}"
        while name in base:
            name = name + "_k"
        zs.append(name)
    delete = identity_images(base) | dict.fromkeys(zs, base.identity())
    subst = identity_images(base) | dict(zip(zs, U.central_kernel_words))
    return Alphabet(list(base.symbols) + zs), delete, subst


def uce_word_transfer(
    U: UcePresentation,
    direction: str,
    word: Word,
    oracle: Callable[[Word], bool],
    budget: int = DEFAULT_BUDGET,
) -> TransferResult:
    """Transfer the word problem between a perfect group and its universal
    central extension.

    direction="to_base": `word` is over the base generators and `oracle`
    decides words in the extension.  The lift is tested for centrality
    against every generator (a non-central lift means the word is
    nontrivial in the base); a lift commuting with every generator is
    central, so it commutes with the kernel elements too and they need no
    test.  A central lift is searched for a certified expression in the
    kernel generators, which exists exactly when the word dies in the base.

    direction="to_cover": `word` is over the extended alphabet of
    `kernel_symbols` and `oracle` decides words in the base.  Kernel
    letters are deleted first; a nontrivial image settles the question,
    otherwise the word is central and a normal-closure certificate for the
    substituted word is searched within the budget.
    """
    base = U.base.alphabet
    if direction == "to_base":
        if word.alphabet != base:
            raise PresentationError("to_base expects a word over the base generators")
        # the same letters reinterpreted in the extension
        for name in base.symbols:
            t = commutator(word, base.gen(name))
            if t and not oracle(t):
                return TransferResult("nontrivial", "centrality", witness=name)
        stage, subgens, target = "kernel-membership", list(U.central_kernel_words), word
    elif direction == "to_cover":
        ext, delete, subst = kernel_symbols(U)
        if word.alphabet != ext:
            raise PresentationError("to_cover expects a word over the extended alphabet")
        projected = apply_map(word, delete, target=base)
        if projected and not oracle(projected):
            return TransferResult("nontrivial", "base-projection",
                                  witness=render_word(projected))
        stage, subgens, target = "central-triviality", [], apply_map(word, subst, target=base)
    else:
        raise ValueError(f"unknown direction {direction!r}")
    expr = express_in_generators(U.result, subgens, target, budget=budget)
    return TransferResult("trivial" if expr.status == "found" else "inconclusive", stage,
                          expression=expr)
