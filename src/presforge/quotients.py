"""Finite-quotient certificates and coset enumeration.

`low_index_subgroups` is Sims' low-index subgroups search: a backtrack
over standardized coset tables with relator deductions, which finds every
subgroup of index <= n exactly once.  A nontrivial finite quotient acts
nontrivially on some orbit, so it exists iff a proper subgroup of finite
index does.  `hom_search` (backtracking over generator images in S_k) is
the independent oracle the tests compare it against.

`finite_quotient_certificate` searches index bound K and never claims
anything beyond it.  It first drops each [x, c] (x a letter) with c x^f a
rotation of a kept relator r or of its inverse, whose two conjugates of r
must re-expand to it (`NormalClosureElement.expand`): relators in the
normal closure of kept ones change neither the group nor any subgroup,
so the certificate means what it meant.  Then it kills generator blocks,
which pays off on presentations glued from Higman copies, where one
backtrack interleaves the copies' columns and rediscovers each copy's
dead ends under every partial table of the others.  Lemma: if the
relators R' supported in a generator set Y present a group with no proper
subgroup of index <= K, every homomorphism P -> S_k with k <= K is
trivial on Y, so P and P/<<Y>> have the same transitive actions of
degree <= K.  The candidate blocks are read off the presentation: for
each generator g, the connected components of the relators that avoid g,
two relators being connected when they share a generator.

`todd_coxeter` is HLT coset enumeration with Felsch deductions, in Sims'
order (Holt, Eick and O'Brien, Handbook of Computational Group Theory,
2005, ch. 5; Havas, Coset enumeration strategies, ISSAC 1991).  Each live
coset in creation order has the short relators scanned and filled at it,
then the empty entries of its row defined, then the long relators scanned
and filled.  A scan runs forward, then backward, as far as the table is
defined, defines new cosets only inside the gap and closes a gap of one
letter.  The entries so closed, defined in the row or set by the Handbook's
COINCIDENCE are stacked and deduced from: the short relators' cyclic
conjugates through each are scanned, defining nothing.  COINCIDENCE moves
each dead row into its representative at once, so scans read table entries
with no union-find lookup.  A generator whose square is the cyclic core of
a relator has one column for both of its letters, so it acts as an
involution by construction and its square is never scanned; the final
`verify` still walks every relator, the squares included.

Every action found is a `PermAssignment`: a coset table is the action on
its cosets and a counterexample the action on the cosets of a least-index
subgroup.  `PermAssignment.verify` is the one checker: the generators act
by permutations and every relator fixes every point.  A completed table
is re-checked before it is returned, the subgroup generators fixing coset
0 and the action transitive; so is a counterexample, which must also be
nontrivial.  One walk over letter codes, `_walk`, carries `evaluate`,
`verify` and the relator pruning of `hom_search`.

Both share one coset table: a list per letter column, numbered by its
`freewords.letter_codes` code so a letter's inverse has column `x ^ 1`
(in `todd_coxeter` one list for an involutory generator), cosets from 1,
0 for an undefined entry.  `_conjugates` indexes cyclic conjugates by
first letter (every relator for the search, the short cores for
`todd_coxeter`); `_deduce` scans them at stacked entries, defining
nothing: it closes one-letter gaps and hands meeting cosets to
COINCIDENCE or backs up the search.  The entries it closes are the
search's undo list and the enumeration's `deductions`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .freewords import (Alphabet, Word, conjugacy_test, cyclically_reduce, free_reduce,
                        letter_codes, reduce_join, relabel)
from .presentations import FinitePresentation
from .uce import NormalClosureElement

Perm = tuple[int, ...]


class BudgetExhausted(RuntimeError):
    """A semi-decision search ran out of steps without an answer."""


def identity_perm(k: int) -> Perm:
    return tuple(range(k))


def inverse_perm(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def _walk(act: Sequence[Perm], codes: Iterable[int], points: Sequence[int]) -> Sequence[int]:
    """The images of `points` under the word with letter codes `codes`,
    letters applied left to right and letter code c acting by act[c]."""
    for c in codes:
        a = act[c]
        points = [a[x] for x in points]
    return points


def _partitions(k: int, top: int | None = None) -> Iterator[tuple[int, ...]]:
    """Partitions of k into parts of at most `top` (default k), largest
    part first, lexicographically descending."""
    if k == 0:
        yield ()
    for p in range(k if top is None else min(k, top), 0, -1):
        for tail in _partitions(k - p, p):
            yield (p,) + tail


def conjugacy_class_reps(k: int) -> list[Perm]:
    """One permutation per cycle type: cycles filled with consecutive points."""
    reps = []
    for part in _partitions(k):
        p = list(range(k))
        pos = 0
        for c in part:
            for i in range(c):
                p[pos + i] = pos + (i + 1) % c
            pos += c
        reps.append(tuple(p))
    return reps


@dataclass(frozen=True)
class PermAssignment:
    """An action of a presented group on the points range(degree), given by
    generator images: a homomorphism into S_degree once `verify` passes."""

    degree: int
    images: tuple[tuple[str, Perm], ...]

    def image_of(self, name: str) -> Perm:
        return dict(self.images)[name]

    @property
    def is_trivial(self) -> bool:
        ident = identity_perm(self.degree)
        return all(p == ident for _, p in self.images)

    def _action(self, alphabet: Alphabet) -> list[Perm] | None:
        """The image of each letter of `alphabet` by its letter code, or None
        unless every generator has an image that permutes range(degree)."""
        points = list(range(self.degree))
        table = dict(self.images)
        act: list[Perm] = []
        for name in alphabet.symbols:
            p = table.get(name)
            if p is None or sorted(p) != points:
                return None
            act += (p, inverse_perm(p))
        return act

    def evaluate(self, w: Word) -> Perm:
        """The permutation by which w acts, its letters applied left to
        right; ValueError unless the images permute range(degree)."""
        if (act := self._action(w.alphabet)) is None:
            raise ValueError("generator images do not permute the points")
        return tuple(_walk(act, letter_codes(w), range(self.degree)))

    def verify(self, P: FinitePresentation, fixing: Sequence[Word] = ()) -> bool:
        """Whether every generator of P has an image that is a permutation
        of range(degree), every relator fixes every point, and every word
        in `fixing` fixes point 0.  Each image is inverted once and the
        words are walked letter by letter, so this costs
        O(degree * (gens + relator letters))."""
        act, points = self._action(P.alphabet), list(range(self.degree))
        return act is not None and (
            all(_walk(act, letter_codes(r), points) == points for r in P.relators)
            and all(_walk(act, letter_codes(w), [0]) == [0] for w in fixing))

    def is_transitive(self) -> bool:
        """Whether the images, taken as permutations, move point 0 to every
        point."""
        reached, todo = {0}, [0]
        while todo:
            c = todo.pop()
            for _, p in self.images:
                if p[c] not in reached:
                    reached.add(p[c])
                    todo.append(p[c])
        return len(reached) == self.degree


def hom_search(
    P: FinitePresentation,
    k: int,
    mode: str = "all",
    prune: bool = True,
) -> list[PermAssignment]:
    """All homomorphisms P -> S_k by backtracking: the test oracle for
    `low_index_subgroups` and `finite_quotient_certificate`.

    With prune=True the first generator ranges over conjugacy-class
    representatives only, so the result is complete up to conjugating the
    whole homomorphism (every hom whose first-generator image is a
    canonical representative is found verbatim; in particular a nontrivial
    hom exists iff one is found).  With prune=False every homomorphism is
    found verbatim.  Relator evaluation cuts branches as soon as a relator
    becomes fully assigned; this never discards a genuine homomorphism.
    """
    if k < 1:
        raise ValueError("degree must be >= 1")
    if mode not in ("all", "first_nontrivial"):
        raise ValueError(f"unknown mode {mode!r}")
    gens = P.alphabet.symbols
    n = len(gens)
    all_perms = [tuple(p) for p in itertools.permutations(range(k))]
    points = list(range(k))
    first = conjugacy_class_reps(k) if prune else all_perms
    # the letter codes of each relator, by the latest generator it uses
    rel_by_latest: dict[int, list[list[int]]] = {}
    for r in P.relators:
        codes = letter_codes(r)
        rel_by_latest.setdefault(max(codes) >> 1, []).append(codes)

    assigned: list[Perm] = []
    acts: list[Perm] = []  # by letter code: each assigned image and its inverse
    results: list[PermAssignment] = []

    def relators_ok(level: int) -> bool:
        return all(_walk(acts, codes, points) == points
                   for codes in rel_by_latest.get(level, ()))

    def rec(level: int) -> bool:
        if level == n:
            hom = PermAssignment(k, tuple(zip(gens, assigned)))
            if mode == "first_nontrivial" and hom.is_trivial:
                return False
            results.append(hom)
            return mode == "first_nontrivial"
        candidates = first if level == 0 else all_perms
        for p in candidates:
            assigned.append(p)
            acts.extend((p, inverse_perm(p)))
            if relators_ok(level) and rec(level + 1):
                return True
            assigned.pop()
            del acts[-2:]
        return False

    rec(0)
    for hom in results:
        if not hom.verify(P):
            raise AssertionError("hom_search produced a non-homomorphism (internal error)")
    return results


def _scan(cols: list[list[int]], xs: Sequence[int]) -> tuple:
    """The scan of the word with letter codes xs over the columns `cols`:
    (forward columns, inverse columns, codes, last index)."""
    return [cols[x] for x in xs], [cols[x ^ 1] for x in xs], xs, len(xs) - 1


def _conjugates(cols: list[list[int]], words: Iterable[list[int]]) -> list[list[tuple]]:
    """conj[x]: the scans of the distinct cyclic conjugates starting with
    letter x of `words` (letter codes) and their inverses, in word order."""
    rotations: list[dict[tuple[int, ...], None]] = [{} for _ in cols]
    for c in words:
        for w in (c, [x ^ 1 for x in reversed(c)]):
            for k in range(len(w)):
                rotations[w[k]][tuple(w[k:] + w[:k])] = None
    return [[_scan(cols, w) for w in d] for d in rotations]


def _deduce(cols: list[list[int]], conj: list[list[tuple]], rep: list[int],
            stack: list[tuple[int, int]], closed: list[tuple[int, int]],
            meet: Callable[[int, int], None] | None = None) -> bool:
    """Drain `stack`: for each entry (c, x) of a live coset c, scan conj[x]
    at c (and at c's image when x's column is shared with x^-1) while c
    stays live, defining nothing.  A scan that meets a one-letter gap
    closes it, appends the entry to `closed` and stacks it; a scan whose
    ends meet at different cosets f, b calls meet(f, b), or returns False
    at once when there is no `meet`."""
    while stack:
        c, x = stack.pop()
        if rep[c] != c:
            continue  # COINCIDENCE moved c's row and stacked what it set
        for a in (c, cols[x][c]) if cols[x] is cols[x ^ 1] else (c,):
            for fwd, bwd, xs, j in conj[x]:
                if rep[a] != a:
                    break
                f, i, b = a, 0, a
                while i <= j and (g := fwd[i][f]):
                    f, i = g, i + 1
                if i <= j:
                    while j >= i and (g := bwd[j][b]):
                        b, j = g, j - 1
                    if j == i:
                        fwd[i][f], bwd[i][b] = b, f
                        closed.append((f, xs[i]))
                        if conj[xs[i]]:
                            stack.append((f, xs[i]))
                    if j >= i:
                        continue
                if f != b:
                    if meet is None:
                        return False
                    meet(f, b)
    return True


def low_index_subgroups(P: FinitePresentation, n: int, nodes: list[int] | None = None,
                        budget: int | None = None) -> Iterator[PermAssignment]:
    """Every subgroup of index <= n, each exactly once, as the action of the
    generators on its cosets (coset 0 = the subgroup).

    Backtrack (Sims, Computation with Finitely Presented Groups, 1994,
    ch. 5): pick the column x with the fewest undefined entries (c, x),
    first in row-major order on ties, and fill its first one with each
    existing coset d whose (d, x^-1) is free, in increasing order, then
    with a new coset while fewer than n exist.  Columns x and x^-1 have
    equally many free entries, so this is the entry with the fewest
    candidates (first-fail).  New cosets take the next number and the
    entry depends only on the partial table, so each subgroup has one path
    and no canonicity test is needed; a complete table is renumbered in
    row-major order of first appearance.  Each definition is deduced from
    by `_deduce` over every relator and its inverse; meeting cosets back
    up, undoing the entries set since the node.  A complete table has
    scanned every relator at every coset.  The open nodes are a list, not
    the call stack, and a row is added when a coset is first defined.
    Each search node (the root and each definition that survives its
    deductions) adds 1 to nodes[0]; BudgetExhausted is raised once
    nodes[0] passes `budget`.
    """
    if n < 1:
        raise ValueError("index bound must be >= 1")
    if nodes is None:
        nodes = [0]
    cols: list[list[int]] = [[0, 0] for _ in range(2 * P.alphabet.rank)]
    conj = _conjugates(cols, [letter_codes(r) for r in P.relators])
    rep = [0, 1]  # every coset ever defined, each its own representative
    closed: list[tuple[int, int]] = []  # entries set on the current path
    path: list[list[int]] = []  # per open node: [c, x, cosets, mark, next candidate]
    ncos = 1
    while True:
        nodes[0] += 1
        if budget is not None and nodes[0] > budget:
            raise BudgetExhausted(
                f"low-index search passed its budget of {budget} nodes ({nodes[0]} nodes)")
        # (free entries of column x, first free coset c of it, x)
        best = min(((k, col.index(0) + 1, x) for x in range(len(cols))
                    if (k := (col := cols[x][1:ncos + 1]).count(0))), default=None)
        if best is None:
            order = [1]  # the cosets in row-major order of first appearance
            for c in order:
                order += [d for d in dict.fromkeys(col[c] for col in cols) if d not in order]
            new = {c: i for i, c in enumerate(order)}
            yield PermAssignment(ncos, tuple((g, tuple(new[cols[x][c]] for c in order))
                                             for g, x in zip(P.alphabet.symbols,
                                                             range(0, len(cols), 2))))
        else:
            path.append([best[1], best[2], ncos, len(closed), 1])
        while path:
            c, x, ncos, mark, d = node = path[-1]
            while len(closed) > mark:
                b, y = closed.pop()
                cols[y ^ 1][cols[y][b]] = cols[y][b] = 0
            while d <= ncos and cols[x ^ 1][d]:
                d += 1
            if d > ncos + (ncos < n):
                path.pop()
                continue
            node[4] = d + 1
            if d == len(rep):
                rep.append(d)
                for col in cols:
                    col.append(0)
            cols[x][c], cols[x ^ 1][d] = d, c
            closed.append((c, x))
            if _deduce(cols, conj, rep, [(c, x)], closed):
                ncos = max(ncos, d)
                break
        else:
            return


@dataclass(frozen=True)
class KilledBlock:
    """A generator block set to 1 by `finite_quotient_certificate`, with
    the search nodes that certified it."""

    generators: tuple[str, ...]
    search_nodes: int


@dataclass
class QuotientCertificate:
    """Bounded 'no nontrivial finite quotients' certificate: exhaustive up
    to index (and so degree) max_degree, never a claim about larger ones.
    search_nodes counts the low-index backtrack nodes of every search,
    killed_blocks the blocks removed before the last search, in order, and
    relators_dropped the commutator consequences set aside before them."""

    max_degree: int
    certified: bool
    counterexample: PermAssignment | None
    degrees_checked: list[int]
    search_nodes: int
    killed_blocks: tuple[KilledBlock, ...]
    relators_dropped: int

    def describe(self) -> str:
        if self.certified:
            return (f"no nontrivial homomorphism to S_k for any k <= {self.max_degree} "
                    f"(bounded certificate, not a proof for all k)")
        assert self.counterexample is not None
        return f"nontrivial homomorphism into S_{self.counterexample.degree} found"


def _candidate_blocks(supports: list[frozenset[int]], rank: int) -> list[tuple[int, ...]]:
    """For each generator g < rank, the connected components of the
    hypergraph of the relator `supports` that avoid g, as sorted generator
    indices, ordered by (size, indices)."""
    blocks = set()
    for g in range(rank):
        comps: list[set[int]] = []
        for s in supports:
            if g in s:
                continue
            merged = set(s)
            rest = []
            for c in comps:
                if c & s:
                    merged |= c
                else:
                    rest.append(c)
            comps = rest + [merged]
        blocks.update(tuple(sorted(c)) for c in comps)
    return sorted(blocks, key=lambda y: (len(y), y))


def _restrict(P: FinitePresentation, keep: Sequence[int],
              relators: Iterable[Word]) -> FinitePresentation:
    """The presentation on the generators `keep` whose relators are
    `relators` with every other generator deleted, cyclically reduced, with
    empty and repeated words dropped."""
    alph = Alphabet(P.alphabet.symbols[i] for i in keep)
    names: list[str | None] = [None] * P.alphabet.rank
    for i in keep:
        names[i] = P.alphabet.symbols[i]
    rels: dict[str, Word] = {}
    for w in relabel(relators, alph, names):
        core, _ = cyclically_reduce(w)
        if core:
            rels.setdefault(core.text, core)
    return FinitePresentation(alph, tuple(rels.values()))


def _least_rotation(t: str) -> str:
    """The least rotation of t (Duval's algorithm, in linear time)."""
    d, n, i, start = t + t, len(t), 0, 0
    while i < n:
        start, j, k = i, i + 1, i
        while j < 2 * n and d[k] <= d[j]:
            k = i if d[k] < d[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
    return d[start:start + n]


def _drop_commutators(P: FinitePresentation) -> tuple[FinitePresentation, list]:
    """P without each relator s = [x, c] (x a letter) with c x^f a rotation
    of the core of another relator r_i or its inverse, and each drop
    (s's index, ((x v, i, sign), (v, i, -sign))), c x^f = v r_i^sign v^-1.
    One pass in order: s is kept if an earlier drop names it and r_i is no
    earlier drop, so factors name kept relators in any relator order.
    x^-1 s reduces to c x^-1 c^-1 iff s = [x, c] (x first or last in s).
    With cc = c past its leading x-power, c x^f is a rotation of cc x^e: the
    index keys every core and inverse by (generator, the text between a
    maximal cyclic run of it) for e != 0, by least rotation for e == 0."""
    alph, rels = P.alphabet, P.relators
    dropped, targets = {}, set()  # dropped: relator index -> its factors
    index: dict = {}  # key -> [(i, sign, x^e) of core i], in relator order

    def inv(t: str) -> str:
        return t[::-1].translate(alph._flip)

    for j, s in enumerate(rels):
        K = cyclically_reduce(s)[0].text
        for sign, T in ((1, K), (-1, inv(K))):
            L, TT = len(T), T + T
            index.setdefault(_least_rotation(T), []).append((j, sign, ""))
            # the maximal cyclic runs TT[q:q_next], each with the rest TT[q_next:q + L]
            starts = [q for q in range(L) if T[q] != T[q - 1]]
            for q, q_next in zip(starts, starts[1:] + [q + L for q in starts[:1]]):
                index.setdefault((ord(T[q]) >> 1, TT[q_next:q + L]), []).append(
                    (j, sign, TT[q:q_next]))

    def certificate(s: str) -> tuple[tuple[Word, int, int], ...] | None:
        for x in dict.fromkeys((s[0], s[-1])):
            w = reduce_join(inv(x), s)[0]
            c = w[:len(w) // 2]
            cc = c.lstrip(x + inv(x))
            if w[len(c):] != inv(x) + inv(c) or not cc:
                continue
            for i, sign, run in (*index.get((ord(x) >> 1, cc), ()),
                                 *index.get(_least_rotation(cc), ())):
                if i in dropped:
                    continue
                # [x, c] = x^g [x, cc x^e] x^-g, c = x^g cc
                u = conjugacy_test(Word._trusted(alph, cc + run), rels[i] ** sign)
                v = free_reduce(Word._trusted(alph, c[:len(c) - len(cc)] + u.text))
                return ((free_reduce(Word._trusted(alph, x + v.text)), i, sign), (v, i, -sign))
        return None

    for j, s in enumerate(rels):
        if j not in targets and (factors := certificate(s.text)) is not None:
            if NormalClosureElement.expand(P, factors) != s.text:
                raise AssertionError("commutator drop failed to re-expand (internal error)")
            dropped[j] = factors
            targets.add(factors[0][1])
    kept = tuple(s for j, s in enumerate(rels) if j not in dropped)
    return FinitePresentation(alph, kept), list(dropped.items())


def finite_quotient_certificate(P: FinitePresentation, K: int,
                                budget: int | None = None) -> QuotientCertificate:
    """Decide whether P has a proper subgroup of index <= K: commutator
    drops, block reduction, then a low-index search on what is left.

    Drops.  s = [x, c], x a letter and c x^f a rotation of a kept relator r
    or of its inverse, is in <<r>> as [x, c] = [x, c x^f]; relators in the
    normal closure of kept ones change neither the group nor any subgroup,
    so the certificate means what it meant.  Each drop carries two
    conjugates of r that `NormalClosureElement.expand` must re-expand to s.

    Lemma.  Let R' be the relators supported in a generator set Y.  If
    <Y | R'> has no proper subgroup of index <= K, every homomorphism
    P -> S_k with k <= K is trivial on Y: restricted to <Y> it factors
    through <Y | R'>, and a nontrivial image has an orbit on which it acts
    nontrivially, whose point stabilizer would be a proper subgroup of
    index <= k.  So P and P/<<Y>> have the same transitive actions of
    degree <= K, and Y can be set to 1.

    Candidate blocks Y come from the relator supports alone
    (`_candidate_blocks`); each is searched once at bound K, and the first that certifies is
    killed (relators cyclically reduced and deduplicated) before the
    candidates are recomputed.  What is left gets one search at bound K;
    when it finds a proper subgroup of index k it searches again at k - 1,
    so the counterexample has the least degree of a nontrivial
    homomorphism.  That action is lifted (killed generators act trivially)
    and re-checked on P: a nontrivial transitive action that satisfies
    every relator.  Raises BudgetExhausted once the search nodes of
    all searches together pass `budget`.
    """
    if K < 2:
        raise ValueError("certificate degree bound must be >= 2")
    nodes = [0]

    def proper(Q: FinitePresentation, n: int) -> PermAssignment | None:
        return next((a for a in low_index_subgroups(Q, n, nodes, budget)
                     if a.degree >= 2), None)

    (Q, drops), killed, failed = _drop_commutators(P), [], set()
    reduced = True
    while reduced:
        reduced = False
        supports = [frozenset(c >> 1 for c in letter_codes(r)) for r in Q.relators]
        for Y in _candidate_blocks(supports, Q.alphabet.rank):
            inside = set(Y)
            block = _restrict(Q, Y, (r for r, s in zip(Q.relators, supports)
                                     if s <= inside))
            if block in failed:
                continue
            before = nodes[0]
            if proper(block, K) is not None:
                failed.add(block)
                continue
            killed.append(KilledBlock(block.generators, nodes[0] - before))
            Q = _restrict(Q, [i for i in range(Q.alphabet.rank) if i not in inside],
                          Q.relators)
            reduced = True
            break

    action, bound = None, K
    while bound >= 2 and (found := proper(Q, bound)) is not None:
        action, bound = found, found.degree - 1
    if action is None:
        return QuotientCertificate(K, True, None, list(range(2, K + 1)),
                                   nodes[0], tuple(killed), len(drops))
    k = action.degree
    images = dict(action.images)
    lifted = PermAssignment(k, tuple((g, images.get(g, identity_perm(k)))
                                     for g in P.generators))
    if not (lifted.verify(P) and lifted.is_transitive()) or lifted.is_trivial:
        raise AssertionError(
            "low-index search produced an invalid counterexample (internal error)")
    return QuotientCertificate(K, False, lifted, list(range(2, k + 1)),
                               nodes[0], tuple(killed), len(drops))


# --- coset enumeration -----------------------------------------------------

@dataclass
class CosetTable:
    """Result of coset enumeration: the action of the generators on the
    cosets (coset 0 = the subgroup), or None after an overflow, which is
    never treated as an answer.  cosets_defined counts every coset ever
    defined, peak_live the most cosets live at once, deductions the
    entries closed by deduce-only scans; all are deterministic work
    counters.
    """

    action: PermAssignment | None
    cosets_defined: int
    peak_live: int
    deductions: int = 0

    @property
    def complete(self) -> bool:
        return self.action is not None

    @property
    def status(self) -> str:
        return "complete" if self.complete else "overflow"

    @property
    def index(self) -> int | None:
        return self.action.degree if self.action is not None else None

    def verify(self, P: FinitePresentation, subgroup_gens: Sequence[Word] = ()) -> bool:
        """Check a complete table against the presentation: the action
        passes `PermAssignment.verify` with the subgroup generators fixing
        coset 0, and it is transitive."""
        return (self.action is not None and self.action.verify(P, subgroup_gens)
                and self.action.is_transitive())


class _Overflow(Exception):
    """A definition in `todd_coxeter` would pass max_cosets."""


def todd_coxeter(
    P: FinitePresentation,
    subgroup_gens: Sequence[Word] = (),
    max_cosets: int = 100_000,
) -> CosetTable:
    """Enumerate cosets of <subgroup_gens> in the presented group by HLT
    with Felsch deductions, in Sims' order (see the module docstring).

    Each subgroup generator is scanned and filled at coset 0 first.  A
    relator is short when its cyclic core, which is what is scanned, has at
    most 1.5 times the letters of the shortest core, squares included; the
    short and the long ones are each scanned shortest first.  A generator g
    is involutory when some core is g^2 or g^-2: g and g^-1 then share one
    column, every g-edge c -> d also writes d -> c, and those relators are
    not scanned.  After each scan and each definition `_deduce` drains the
    stacked entries over the short relators, merging meeting cosets by
    COINCIDENCE.  Deterministic.  The count of all cosets ever defined
    (including ones later merged away) is capped by max_cosets; exceeding
    the cap returns an overflow table.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be >= 1")
    if any(w.alphabet != P.alphabet for w in subgroup_gens):
        raise ValueError("subgroup generator over the wrong alphabet")
    cores = sorted((letter_codes(cyclically_reduce(r)[0]) for r in P.relators), key=len)
    # the generators g with a core g^2 or g^-2
    squares = {c[0] >> 1 for c in cores if len(c) == 2 and c[0] == c[1]}
    # cols[x][c]: coset c times letter x, or 0 while undefined, one list
    # shared by both letters of an involutory generator.  Cosets are
    # numbered from 1 here, so entry 0 of every list is unused.
    cols: list[list[int]] = []
    for g in range(P.alphabet.rank):
        cols += [[0, 0]] * 2 if g in squares else [[0, 0], [0, 0]]
    # one letter per distinct list, for appends and coincidences
    owners = [x for x in range(len(cols)) if cols[x] is not cols[x ^ 1] or not x & 1]
    rep = [0, 1]  # rep[c] == c iff coset c is live
    live = peak = 1
    stack: list[tuple[int, int]] = []  # entries (c, x) whose deductions are due
    closed: list[tuple[int, int]] = []  # the entries deductions closed
    scanned = [_scan(cols, c) for c in cores if not (len(c) == 2 and c[0] == c[1])]
    short = [w for w in scanned if 2 * len(w[2]) <= 3 * len(cores[0])]
    long = scanned[len(short):]
    conj = _conjugates(cols, [w[2] for w in short])

    def new_coset() -> int:
        nonlocal live, peak
        n = len(rep)
        if n > max_cosets:
            raise _Overflow
        rep.append(n)
        for x in owners:
            cols[x].append(0)
        live += 1
        peak = max(peak, live)
        return n

    def find(c: int) -> int:
        root = c
        while rep[root] != root:
            root = rep[root]
        while rep[c] != root:
            rep[c], c = root, rep[c]
        return root

    def coincidence(a: int, b: int) -> None:
        nonlocal live
        dead: list[int] = []

        def merge(a: int, b: int) -> None:
            a, b = find(a), find(b)
            if a != b:
                a, b = min(a, b), max(a, b)
                rep[b] = a
                dead.append(b)

        merge(a, b)
        for g in dead:  # grows while it is read
            for x in owners:  # a shared column twice would undo its own fill
                col, inv = cols[x], cols[x ^ 1]
                d = col[g]
                if d:
                    inv[d] = 0
                    m, n = find(g), find(d)
                    if col[m]:
                        merge(n, col[m])
                    elif inv[n]:
                        merge(m, inv[n])
                    else:
                        col[m], inv[n] = n, m
                        if conj[x]:
                            stack.append((m, x))
        live -= len(dead)

    def scan(a: int, w: tuple) -> None:
        """Scan and fill w, a `_scan`, at coset a."""
        fwd, bwd, xs, j = w
        f, i, b = a, 0, a
        while True:
            while i <= j and (g := fwd[i][f]):
                f, i = g, i + 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and (g := bwd[j][b]):
                b, j = g, j - 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                fwd[i][f], bwd[i][b] = b, f
                if conj[xs[i]]:
                    stack.append((f, xs[i]))
                return
            n = new_coset()
            fwd[i][f], bwd[i][n] = n, f

    def scan_all(a: int, words: list) -> None:
        for w in words:
            if rep[a] != a:
                return
            scan(a, w)
            if stack:
                _deduce(cols, conj, rep, stack, closed, coincidence)

    try:
        scan_all(1, [_scan(cols, letter_codes(w)) for w in subgroup_gens])
        a = 1
        while a < len(rep):
            scan_all(a, short)
            for x in owners:
                if rep[a] == a and not cols[x][a]:
                    n = new_coset()
                    cols[x][a], cols[x ^ 1][n] = n, a
                    if conj[x]:
                        stack.append((a, x))
                        _deduce(cols, conj, rep, stack, closed, coincidence)
            scan_all(a, long)
            a += 1
    except _Overflow:
        return CosetTable(None, cosets_defined=len(rep) - 1, peak_live=peak,
                          deductions=len(closed))

    alive = [c for c in range(1, len(rep)) if rep[c] == c]
    renum = {c: i for i, c in enumerate(alive)}
    images = []
    for name, x in zip(P.alphabet.symbols, range(0, 2 * P.alphabet.rank, 2)):
        if any(cols[x][c] not in renum for c in alive):
            raise AssertionError("incomplete table at termination (internal error)")
        images.append((name, tuple(renum[cols[x][c]] for c in alive)))
    table = CosetTable(PermAssignment(len(alive), tuple(images)),
                       cosets_defined=len(rep) - 1, peak_live=peak, deductions=len(closed))
    if not table.verify(P, subgroup_gens):
        raise AssertionError("coset table failed verification (internal error)")
    return table
