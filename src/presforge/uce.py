"""Universal central extensions of perfect presentations.

Given a perfect ``<X | R>``, the extension is presented on the same
generators by ``{x c_x : x in X} u {[x, r] : x in X, r in R}`` where each
``c_x`` has zero exponent vector and ``x c_x`` lies in the normal closure
of R.  Witnesses are found constructively (an integer solve against the
relation lattice); the blind diagonal enumeration over pairs (commutator
word, closure element) is retained behind ``strategy="search"`` as a
cross-validation oracle, since its runtime is wildly input-sensitive.

Also here: the fair enumeration of the normal closure, the certified
subgroup-expression search, and the word-problem transfer between a
perfect group and its universal central extension.  All search procedures
take explicit step budgets and return three-valued answers; a positive or
negative answer always carries a certificate that is re-verified before
being returned.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .freewords import (
    Alphabet,
    Word,
    apply_map,
    commutator,
    exponent_vector,
    free_reduce,
    render_word,
)
from .homology import SmithForm, h1, relation_matrix, solve_row_lattice
from .presentations import FinitePresentation, PresentationError

DEFAULT_BUDGET = 10**6


class PerfectionRequired(PresentationError):
    """Operation defined only for perfect presentations (H1 = 0)."""


class BudgetExhausted(RuntimeError):
    """A semi-decision search ran out of steps without an answer."""


@dataclass(frozen=True)
class NormalClosureElement:
    """A product of conjugates of relators: factors (conjugator, relator
    index, sign) whose expansion is stored freely reduced."""

    factors: tuple[tuple[Word, int, int], ...]
    expanded: Word

    @staticmethod
    def build(P: FinitePresentation,
              factors: Sequence[tuple[Word, int, int]]) -> "NormalClosureElement":
        alph = P.alphabet
        acc = alph.identity()
        for conj, idx, sign in factors:
            if not (0 <= idx < len(P.relators)) or sign not in (1, -1):
                raise PresentationError(f"bad closure factor ({idx}, {sign})")
            r = P.relators[idx] if sign > 0 else P.relators[idx].inverse()
            acc = acc.concat(conj).concat(r).concat(conj.inverse())
        return NormalClosureElement(tuple(factors), free_reduce(acc))

    def verify(self, P: FinitePresentation) -> bool:
        return NormalClosureElement.build(P, self.factors).expanded == self.expanded

    def inverse(self, P: FinitePresentation) -> "NormalClosureElement":
        rev = tuple((conj, idx, -sign) for conj, idx, sign in reversed(self.factors))
        return NormalClosureElement.build(P, rev)

    @property
    def size(self) -> int:
        return len(self.factors) + sum(len(c) for c, _, _ in self.factors)


_WORD_CACHE: dict[Alphabet, list[tuple[Word, ...]]] = {}


def _reduced_words_of_length(alphabet: Alphabet, length: int) -> tuple[Word, ...]:
    """Freely reduced words of exactly this length, lexicographic in the
    letter order (0,+1) < (0,-1) < (1,+1) < ..."""
    cache = _WORD_CACHE.setdefault(alphabet, [(alphabet.identity(),)])
    letters = [(i, s) for i in range(alphabet.rank) for s in (1, -1)]
    while len(cache) <= length:
        nxt: list[Word] = []
        for w in cache[-1]:
            last = w.letters[-1] if w.letters else None
            for idx, sign in letters:
                if last == (idx, -sign):
                    continue
                nxt.append(Word(alphabet, w.letters + ((idx, sign),)))
        cache.append(tuple(nxt))
    return cache[length]


def reduced_words(alphabet: Alphabet) -> Iterator[Word]:
    """All freely reduced words in (length, lex) order, identity first.
    Finite (just the identity) over the empty alphabet."""
    yield alphabet.identity()
    if alphabet.rank == 0:
        return
    length = 1
    while True:
        yield from _reduced_words_of_length(alphabet, length)
        length += 1


def commutator_subgroup_words(alphabet: Alphabet) -> Iterator[Word]:
    """Reduced words with zero exponent vector, in (length, lex) order; a
    fair enumeration of the commutator subgroup of the free group.  Finite
    (just the identity) when the rank is at most 1."""
    yield alphabet.identity()
    if alphabet.rank <= 1:
        return
    length = 2
    while True:
        for w in _reduced_words_of_length(alphabet, length):
            if not any(exponent_vector(w)):
                yield w
        length += 2


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
    every product of <= k factors with conjugators of length <= k appears
    within `stream_fairness_bound(P, k)` emissions.
    """
    m = len(P.relators)
    if m == 0:
        return
    alph = P.alphabet
    size = 1
    while True:
        for k in range(1, size + 1):
            clen = size - k
            for signs in itertools.product((1, -1), repeat=k):
                for indices in itertools.product(range(m), repeat=k):
                    for comp in _compositions(clen, k):
                        pools = [_reduced_words_of_length(alph, l) for l in comp]
                        for conjs in itertools.product(*pools):
                            yield NormalClosureElement.build(
                                P, tuple(zip(conjs, indices, signs)))
        size += 1


def stream_fairness_bound(P: FinitePresentation, k: int) -> int:
    """Number of stream emissions within which every product of at most k
    factors with conjugators of length <= k is guaranteed to appear."""
    m = len(P.relators)
    n = P.alphabet.rank
    if m == 0:
        return 0

    def words_of_length(l: int) -> int:
        if l == 0:
            return 1
        return 2 * n * (2 * n - 1) ** (l - 1) if n else 0

    max_size = k + k * k
    total = 0
    for size in range(1, max_size + 1):
        for kk in range(1, size + 1):
            clen = size - kk
            # number of conjugator tuples: convolution of word counts
            ways = [1] + [0] * clen
            for _ in range(kk):
                nxt = [0] * (clen + 1)
                for have in range(clen + 1):
                    if ways[have]:
                        for add in range(clen + 1 - have):
                            nxt[have + add] += ways[have] * words_of_length(add)
                ways = nxt
            total += (2 * m) ** kk * ways[clen]
    return total


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


def find_commutator_witnesses(
    P: FinitePresentation,
    strategy: str = "constructive",
    budget: int = DEFAULT_BUDGET,
) -> list[CommutatorWitness]:
    """One witness per generator of a perfect presentation.

    "constructive": solve y * M = e_x over the integers (M the relation
    matrix), set rho = r_1^{y_1} ... r_m^{y_m} and c = x^-1 * rho; the
    integer system is solvable for every generator exactly when H1 = 0.

    "search": the blind enumeration over pairs (commutator word, closure
    element) along finite diagonals; kept as a cross-validation oracle.
    Raises BudgetExhausted when the pair budget runs out.
    """
    H = h1(P)
    if not H.group.is_trivial:
        raise PerfectionRequired(
            f"input has H1 = {H.group}; commutator witnesses require a perfect group")
    if strategy == "constructive":
        return _witnesses_constructive(P, H.smith)
    if strategy == "search":
        return _witnesses_search(P, budget)
    raise ValueError(f"unknown strategy {strategy!r}")


def _witnesses_constructive(P: FinitePresentation, form: SmithForm) -> list[CommutatorWitness]:
    M = relation_matrix(P)
    out = []
    for j, name in enumerate(P.alphabet.symbols):
        target = [0] * P.alphabet.rank
        target[j] = 1
        y = solve_row_lattice(M, target, form)
        factors: list[tuple[Word, int, int]] = []
        empty = P.alphabet.identity()
        for i, yi in enumerate(y):
            factors.extend((empty, i, 1 if yi > 0 else -1) for _ in range(abs(yi)))
        rho = NormalClosureElement.build(P, factors)
        x = P.alphabet.gen(name)
        c = free_reduce(x.inverse().concat(rho.expanded))
        witness = CommutatorWitness(name, c, rho)
        if not witness.verify(P):
            raise AssertionError("constructive witness failed verification (internal error)")
        out.append(witness)
    return out


def _witnesses_search(P: FinitePresentation, budget: int) -> list[CommutatorWitness]:
    out = []
    spent = 0
    for name in P.alphabet.symbols:
        x = P.alphabet.gen(name)
        ds: list[Word] = []
        rhos: list[NormalClosureElement] = []
        d_iter = commutator_subgroup_words(P.alphabet)
        rho_iter = normal_closure_stream(P)
        found = None
        diag = 0
        while found is None:
            while len(ds) <= diag:
                d = next(d_iter, None)
                if d is None:
                    break
                ds.append(d)
            while len(rhos) <= diag:
                nxt = next(rho_iter, None)
                if nxt is None:
                    break
                rhos.append(nxt)
            for i in range(min(diag + 1, len(ds))):
                j = diag - i
                if j >= len(rhos):
                    continue
                spent += 1
                if spent > budget:
                    raise BudgetExhausted(
                        f"witness search for {name!r} exhausted {budget} pair checks")
                if not free_reduce(x.concat(ds[i]).concat(rhos[j].expanded)).letters:
                    found = (ds[i], rhos[j])
                    break
            diag += 1
        c, rho_j = found
        witness = CommutatorWitness(name, c, rho_j.inverse(P))
        if not witness.verify(P):
            raise AssertionError("searched witness failed verification (internal error)")
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


def miller_uce(P: FinitePresentation,
               strategy: str = "constructive",
               budget: int = DEFAULT_BUDGET) -> UcePresentation:
    """Present the universal central extension of a perfect group on the
    same generator set: relators {x c_x} then {[x, r]} (x-major order).

    Commutator relators that are freely trivial (a relator that is a power
    of the generator) are dropped; this does not change the group.  The
    output's H1 = 0 is machine-checked on its relators {x c_x} alone: each
    [x, r] has zero exponent vector, and more relators only shrink H1.
    """
    witnesses = find_commutator_witnesses(P, strategy=strategy, budget=budget)
    alph = P.alphabet
    rels = [free_reduce(alph.gen(w.generator).concat(w.c)) for w in witnesses]
    if not h1(FinitePresentation(alph, tuple(rels))).group.is_trivial:
        raise AssertionError("UCE presentation is not perfect (internal error)")
    dropped = 0
    for name in alph.symbols:
        for r in P.relators:
            cw = commutator(alph.gen(name), r)
            if cw.letters:
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

    def target_of(pi: Word) -> Word:
        image = apply_map(pi, subst, target=G.alphabet)
        return free_reduce(w.concat(image.inverse()))

    pis: list[Word] = []
    targets: list[Word] = []
    rhos: list[NormalClosureElement] = []
    pi_iter = reduced_words(sym)
    rho_iter = normal_closure_stream(G)
    pi_done = False
    rho_done = False
    checks = 0
    diag = 0
    while checks < budget:
        while not pi_done and len(pis) <= diag:
            pi = next(pi_iter, None)
            if pi is None:
                pi_done = True
                break
            pis.append(pi)
            targets.append(target_of(pi))
            checks += 1
            if not targets[-1].letters:
                cert = NormalClosureElement.build(G, ())
                return ExpressResult("found", pis[-1], sym, subst, cert, checks)
        while not rho_done and len(rhos) <= diag:
            nxt = next(rho_iter, None)
            if nxt is None:
                rho_done = True
            else:
                rhos.append(nxt)
        for i in range(min(diag + 1, len(pis))):
            j = diag - i
            if j >= len(rhos):
                continue
            checks += 1
            if checks > budget:
                return ExpressResult("exhausted", checks=checks)
            if targets[i] == rhos[j].expanded:
                cert = rhos[j]
                if not cert.verify(G):
                    continue
                return ExpressResult("found", pis[i], sym, subst, cert, checks)
        if pi_done and rho_done and diag > len(pis) + len(rhos):
            return ExpressResult("exhausted", checks=checks)
        diag += 1
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
    names = list(base.symbols)
    zs = []
    for j in range(len(U.central_kernel_words)):
        name = f"z{j + 1}"
        while name in base:
            name = name + "_k"
        zs.append(name)
        names.append(name)
    ext = Alphabet(names)
    delete = {s: base.gen(s) for s in base.symbols}
    subst = {s: base.gen(s) for s in base.symbols}
    for name, rel in zip(zs, U.central_kernel_words):
        delete[name] = base.identity()
        subst[name] = rel
    return ext, delete, subst


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
    against every generator and kernel element (a non-central lift means
    the word is nontrivial in the base); a central lift is searched for a
    certified expression in the kernel generators, which exists exactly
    when the word dies in the base.

    direction="to_cover": `word` is over the extended alphabet of
    `kernel_symbols` and `oracle` decides words in the base.  Kernel
    letters are deleted first; a nontrivial image settles the question,
    otherwise the word is central and a normal-closure certificate for the
    substituted word is searched within the budget.
    """
    if direction == "to_base":
        if word.alphabet != U.base.alphabet:
            raise PresentationError("to_base expects a word over the base generators")
        lift = word  # same letters reinterpreted in the extension
        for name in U.base.alphabet.symbols:
            t = commutator(lift, U.base.alphabet.gen(name))
            if t.letters and not oracle(t):
                return TransferResult("nontrivial", "centrality", witness=name)
        for j, z in enumerate(U.central_kernel_words):
            t = commutator(lift, z)
            if t.letters and not oracle(t):
                return TransferResult("nontrivial", "centrality", witness=f"kernel[{j}]")
        expr = express_in_generators(U.result, list(U.central_kernel_words), lift,
                                     budget=budget)
        if expr.status == "found":
            return TransferResult("trivial", "kernel-membership", expression=expr)
        return TransferResult("inconclusive", "kernel-membership", expression=expr)

    if direction == "to_cover":
        ext, delete, subst = kernel_symbols(U)
        if word.alphabet != ext:
            raise PresentationError("to_cover expects a word over the extended alphabet")
        projected = apply_map(word, delete, target=U.base.alphabet)
        if projected.letters and not oracle(projected):
            return TransferResult("nontrivial", "base-projection",
                                  witness=render_word(projected))
        substituted = apply_map(word, subst, target=U.base.alphabet)
        expr = express_in_generators(U.result, [], substituted, budget=budget)
        if expr.status == "found":
            return TransferResult("trivial", "central-triviality", expression=expr)
        return TransferResult("inconclusive", "central-triviality", expression=expr)

    raise ValueError(f"unknown direction {direction!r}")
