"""Finite-quotient certificates and coset enumeration.

`low_index_subgroups` is Sims' low-index subgroups search: a backtrack
over standardized coset tables with relator deductions, which finds every
subgroup of index <= n exactly once.  A nontrivial finite quotient acts
nontrivially on some orbit, so it exists iff a proper subgroup of finite
index does.  `hom_search` (backtracking over generator images in S_k) is
the independent oracle the tests compare it against.

`finite_quotient_certificate` searches index bound K and never claims
anything beyond it.  It first kills generator blocks, which pays off on
presentations glued from Higman copies, where one row-major backtrack
interleaves the copies' columns and rediscovers each copy's dead ends
under every partial table of the others.  Lemma: if the relators R'
supported in a generator set Y present a group with no proper subgroup of
index <= K, every homomorphism P -> S_k with k <= K is trivial on Y, so P
and P/<<Y>> have the same transitive actions of degree <= K.  The
candidate blocks are read off the presentation: for each generator g, the
connected components of the relators that avoid g, two relators being
connected when they share a generator.

`todd_coxeter` is HLT coset enumeration (Holt, Eick and O'Brien, Handbook
of Computational Group Theory, 2005, ch. 5).  Each live coset in creation
order has every relator scanned and filled at it: scanned forward, then
backward, as far as the table is defined, with new cosets defined only
inside the gap and a gap of one letter closed by a deduction.  A scan
that closes on two different cosets starts the Handbook's COINCIDENCE,
which moves each dead row into its representative at once, so scans read
table entries with no union-find lookup.  A completed table is
re-verified (`CosetTable.verify`) before being returned: the generators
must act by permutations, transitively, satisfying every relator and
fixing coset 0 under the subgroup generators.

Both coset tables have one column per letter, numbered by the
`freewords.encode_letters` code.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .freewords import Alphabet, Letter, Word, cyclically_reduce, encode_letters, render_word
from .presentations import FinitePresentation
from .uce import BudgetExhausted

Perm = tuple[int, ...]


def identity_perm(k: int) -> Perm:
    return tuple(range(k))


def compose(p: Perm, q: Perm) -> Perm:
    """Apply p first, then q."""
    return tuple(q[p[i]] for i in range(len(p)))


def inverse_perm(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


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


def _partitions(k: int) -> Iterator[tuple[int, ...]]:
    """Partitions of k, largest part first, lexicographically descending."""
    if k == 0:
        yield ()
        return
    def rec(rest: int, maxp: int) -> Iterator[tuple[int, ...]]:
        if rest == 0:
            yield ()
            return
        for p in range(min(rest, maxp), 0, -1):
            for tail in rec(rest - p, p):
                yield (p,) + tail
    yield from rec(k, k)


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
    """A homomorphism into S_degree given by generator images."""

    degree: int
    images: tuple[tuple[str, Perm], ...]

    def image_of(self, name: str) -> Perm:
        return dict(self.images)[name]

    @property
    def is_trivial(self) -> bool:
        ident = identity_perm(self.degree)
        return all(p == ident for _, p in self.images)

    def evaluate(self, w: Word) -> Perm:
        table = dict(self.images)
        pos = {name: table[name] for name in table}
        neg = {name: inverse_perm(p) for name, p in table.items()}
        acc = identity_perm(self.degree)
        for idx, sign in w.letters:
            name = w.alphabet.symbols[idx]
            acc = compose(acc, pos[name] if sign > 0 else neg[name])
        return acc

    def verify(self, P: FinitePresentation) -> bool:
        ident = identity_perm(self.degree)
        return all(self.evaluate(r) == ident for r in P.relators)

    def image_order(self) -> int:
        return group_order([p for _, p in self.images], self.degree)


def _compiled_relators(P: FinitePresentation) -> list[tuple[int, list[tuple[int, int]]]]:
    """(latest generator index used, letters) per relator."""
    out = []
    for r in P.relators:
        latest = max(idx for idx, _ in r.letters)
        out.append((latest, list(r.letters)))
    return out


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
    ident = identity_perm(k)
    first = conjugacy_class_reps(k) if prune else all_perms
    rel_by_latest: dict[int, list[list[tuple[int, int]]]] = {}
    for latest, letters in _compiled_relators(P):
        rel_by_latest.setdefault(latest, []).append(letters)

    assigned: list[Perm] = []
    inverses: list[Perm] = []
    results: list[PermAssignment] = []

    def relators_ok(level: int) -> bool:
        for letters in rel_by_latest.get(level, ()):
            acc = ident
            for idx, sign in letters:
                acc = compose(acc, assigned[idx] if sign > 0 else inverses[idx])
            if acc != ident:
                return False
        return True

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
            inverses.append(inverse_perm(p))
            if relators_ok(level) and rec(level + 1):
                return True
            assigned.pop()
            inverses.pop()
        return False

    rec(0)
    for hom in results:
        if not hom.verify(P):
            raise AssertionError("hom_search produced a non-homomorphism (internal error)")
    return results


def _columns(letters: Iterable[Letter]) -> list[int]:
    """Coset-table columns of a letter sequence: its `encode_letters` codes,
    so a letter's inverse has column `col ^ 1`."""
    return [ord(ch) - 256 for ch in encode_letters(letters)]


def low_index_subgroups(P: FinitePresentation, n: int, nodes: list[int] | None = None,
                        budget: int | None = None) -> Iterator[PermAssignment]:
    """Every subgroup of index <= n, each exactly once, as the action of the
    generators on its cosets (coset 0 = the subgroup).

    Backtrack (Sims, Computation with Finitely Presented Groups, 1994,
    ch. 5): fill the first undefined entry (c, x) in row-major order with
    each existing coset d whose (d, x^-1) is free, in increasing order,
    then with a new coset while fewer than n exist.  New cosets are
    numbered in order of first appearance, so every table is standardized
    and no canonicity test is needed.  After each definition
    the cyclic conjugates of the relators and their inverses that start
    with the defined letter are scanned at the defined coset, and each
    single-gap fill is deduced and scanned in turn; a scan that closes on
    the wrong coset, or a fill whose inverse slot is taken, backs up.  A
    complete table has scanned every relator at every coset.  Each search
    node (the root and each definition that survives its deductions) adds
    1 to nodes[0]; BudgetExhausted is raised once nodes[0] passes `budget`.
    """
    if n < 1:
        raise ValueError("index bound must be >= 1")
    if nodes is None:
        nodes = [0]
    ncols = 2 * P.alphabet.rank
    gen_cols = _columns((i, 1) for i in range(P.alphabet.rank))
    # scans[x]: the distinct cyclic conjugates starting with x of the
    # relators and their inverses
    scans: list[dict[tuple[int, ...], None]] = [{} for _ in range(ncols)]
    for r in P.relators:
        for w in (r, r.inverse()):
            cols = _columns(w.letters)
            for k in range(len(cols)):
                scans[cols[k]][tuple(cols[k:] + cols[:k])] = None
    tab = [-1] * (n * ncols)  # tab[c * ncols + x]: coset c times letter x
    trail: list[int] = []     # entries set, for undoing

    def define(c: int, x: int, d: int) -> None:
        tab[c * ncols + x] = d
        tab[d * ncols + (x ^ 1)] = c
        trail.extend((c * ncols + x, d * ncols + (x ^ 1)))

    def deduce(c: int, x: int) -> bool:
        todo = [(c, x)]
        while todo:
            c, x = todo.pop()
            for w in scans[x]:
                m = len(w)
                f, i = c, 0
                while i < m and tab[f * ncols + w[i]] >= 0:
                    f, i = tab[f * ncols + w[i]], i + 1
                if i == m:
                    if f != c:
                        return False
                    continue
                b, j = c, m - 1
                while j > i and tab[b * ncols + (w[j] ^ 1)] >= 0:
                    b, j = tab[b * ncols + (w[j] ^ 1)], j - 1
                if j == i:
                    if tab[b * ncols + (w[i] ^ 1)] >= 0:
                        return False
                    define(f, w[i], b)
                    todo.append((f, w[i]))
        return True

    def search(ncos: int, pos: int) -> Iterator[PermAssignment]:
        nodes[0] += 1
        if budget is not None and nodes[0] > budget:
            raise BudgetExhausted(
                f"low-index search passed its budget of {budget} nodes ({nodes[0]} nodes)")
        end = ncos * ncols
        while pos < end and tab[pos] >= 0:
            pos += 1
        if pos == end:
            yield PermAssignment(ncos, tuple(
                (g, tuple(tab[c * ncols + x] for c in range(ncos)))
                for g, x in zip(P.alphabet.symbols, gen_cols)))
            return
        c, x = divmod(pos, ncols)
        for d in range(ncos + (ncos < n)):
            if tab[d * ncols + (x ^ 1)] >= 0:
                continue
            mark = len(trail)
            define(c, x, d)
            if deduce(c, x):
                yield from search(max(ncos, d + 1), pos + 1)
            while len(trail) > mark:
                tab[trail.pop()] = -1

    yield from search(1, 0)


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
    killed_blocks the blocks removed before the last search, in order."""

    presentation: FinitePresentation
    max_degree: int
    certified: bool
    counterexample: PermAssignment | None
    degrees_checked: list[int]
    search_nodes: int
    killed_blocks: tuple[KilledBlock, ...]

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
    new = {old: i for i, old in enumerate(keep)}
    rels: dict[tuple[Letter, ...], Word] = {}
    for r in relators:
        w = Word(alph, tuple((new[i], s) for i, s in r.letters if i in new))
        core, _ = cyclically_reduce(w)
        if core:
            rels.setdefault(core.letters, core)
    return FinitePresentation(alph, tuple(rels.values()))


def finite_quotient_certificate(P: FinitePresentation, K: int,
                                budget: int | None = None) -> QuotientCertificate:
    """Decide whether P has a proper subgroup of index <= K: block
    reduction, then a low-index search on what is left.

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
    and re-checked on P.  Raises BudgetExhausted once the search nodes of
    all searches together pass `budget`.
    """
    if K < 2:
        raise ValueError("certificate degree bound must be >= 2")
    nodes = [0]

    def proper(Q: FinitePresentation, n: int) -> PermAssignment | None:
        return next((a for a in low_index_subgroups(Q, n, nodes, budget)
                     if a.degree >= 2), None)

    Q, killed, failed = P, [], set()
    reduced = True
    while reduced:
        reduced = False
        supports = [frozenset(idx for idx, _ in r.letters) for r in Q.relators]
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
        return QuotientCertificate(P, K, True, None, list(range(2, K + 1)),
                                   nodes[0], tuple(killed))
    k = action.degree
    images = dict(action.images)
    lifted = PermAssignment(k, tuple((g, images.get(g, identity_perm(k)))
                                     for g in P.generators))
    if lifted.is_trivial or not lifted.verify(P):
        raise AssertionError(
            "low-index search produced an invalid counterexample (internal error)")
    return QuotientCertificate(P, K, False, lifted, list(range(2, k + 1)),
                               nodes[0], tuple(killed))


# --- coset enumeration -----------------------------------------------------

@dataclass
class CosetTable:
    """Result of coset enumeration.

    status is "complete" (index == number of live cosets, action verified)
    or "overflow" (budget exhausted; never treated as an answer).
    cosets_defined counts every coset ever defined, peak_live the most
    cosets live at once; both are deterministic work counters.
    """

    status: str
    index: int | None
    generator_perms: dict[str, Perm] | None
    cosets_defined: int
    peak_live: int
    max_cosets: int
    subgroup_generators: tuple[str, ...] = ()

    @property
    def complete(self) -> bool:
        return self.status == "complete"

    def evaluate(self, w: Word) -> Perm:
        if not self.complete:
            raise ValueError("cannot evaluate words against an incomplete table")
        assert self.generator_perms is not None
        acc = identity_perm(self.index or 0)
        for idx, sign in w.letters:
            p = self.generator_perms[w.alphabet.symbols[idx]]
            acc = compose(acc, p if sign > 0 else inverse_perm(p))
        return acc

    def acts_trivially(self, w: Word) -> bool:
        """Whether w acts as the identity on the cosets.  Over the trivial
        subgroup this decides the word problem (regular action)."""
        return self.evaluate(w) == identity_perm(self.index or 0)

    def verify(self, P: FinitePresentation, subgroup_gens: Sequence[Word] = ()) -> bool:
        """Check a complete table against the presentation: every generator
        image is a permutation of range(index), every relator acts as the
        identity, every subgroup generator fixes coset 0, and the action is
        transitive.  Each image is inverted once, so this costs
        O(index * (gens + relator letters))."""
        if not self.complete:
            return False
        ident = identity_perm(self.index or 0)
        points = set(ident)
        act: dict[tuple[int, int], Perm] = {}  # letter -> its permutation
        for idx, name in enumerate(P.alphabet.symbols):
            p = (self.generator_perms or {}).get(name)
            if p is None or len(p) != len(ident) or set(p) != points:
                return False
            act[idx, 1], act[idx, -1] = p, inverse_perm(p)

        def image(w: Word, coset: int) -> int:
            for letter in w.letters:
                coset = act[letter][coset]
            return coset

        if any(image(r, c) != c for r in P.relators for c in ident):
            return False
        if any(image(w, 0) != 0 for w in subgroup_gens):
            return False
        reached, todo = {0}, [0]
        while todo:
            c = todo.pop()
            for p in act.values():
                if p[c] not in reached:
                    reached.add(p[c])
                    todo.append(p[c])
        return len(reached) == len(ident)


class _Overflow(Exception):
    """A definition in `todd_coxeter` would pass max_cosets."""


def todd_coxeter(
    P: FinitePresentation,
    subgroup_gens: Sequence[Word] = (),
    max_cosets: int = 100_000,
) -> CosetTable:
    """Enumerate cosets of <subgroup_gens> in the presented group by HLT
    (Holt, Eick and O'Brien, Handbook of Computational Group Theory, 2005,
    ch. 5).

    Each subgroup generator is scanned and filled at coset 0; then every
    live coset, in creation order, has every relator scanned and filled at
    it, after which the empty entries of its row are defined.  A scan runs
    forward and then backward as far as the table is defined, defines new
    cosets only inside the gap, deduces the entry that closes a gap of one
    letter, and hands two different cosets where the scans meet to the
    Handbook's COINCIDENCE, which moves each dead row into its
    representative at once, so the table never refers to a dead coset when
    a scan reads it.  Deterministic.  The count of all cosets ever defined
    (including ones later merged away) is capped by max_cosets; exceeding
    the cap returns an overflow table.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be >= 1")
    if any(w.alphabet != P.alphabet for w in subgroup_gens):
        raise ValueError("subgroup generator over the wrong alphabet")
    ncols = 2 * P.alphabet.rank
    # cols[x][c]: coset c times letter x, or 0 while undefined.  Cosets are
    # numbered from 1 here, so entry 0 of every list is unused.
    cols: list[list[int]] = [[0, 0] for _ in range(ncols)]
    rep = [0, 1]  # rep[c] == c iff coset c is live
    live = peak = 1

    def new_coset() -> int:
        nonlocal live, peak
        n = len(rep)
        if n > max_cosets:
            raise _Overflow
        rep.append(n)
        for col in cols:
            col.append(0)
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
            for x in range(ncols):
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
        live -= len(dead)

    def scan_and_fill(a: int, fwd: list[list[int]], bwd: list[list[int]]) -> None:
        """Scan a word at coset a, where fwd[i] and bwd[i] are the columns
        of its i-th letter and of that letter's inverse."""
        f, i, b, j = a, 0, a, len(fwd) - 1
        while True:
            while i <= j and fwd[i][f]:
                f, i = fwd[i][f], i + 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and bwd[j][b]:
                b, j = bwd[j][b], j - 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                fwd[i][f], bwd[i][b] = b, f
                return
            n = new_coset()
            fwd[i][f], bwd[i][n] = n, f

    def columns(w: Word) -> tuple[list[list[int]], list[list[int]]]:
        xs = _columns(w.letters)
        return [cols[x] for x in xs], [cols[x ^ 1] for x in xs]

    relators = [columns(r) for r in P.relators]
    rendered = tuple(render_word(w) for w in subgroup_gens)
    try:
        for w in subgroup_gens:
            scan_and_fill(1, *columns(w))
        a = 1
        while a < len(rep):
            for fwd, bwd in relators:
                if rep[a] != a:
                    break
                scan_and_fill(a, fwd, bwd)
            if rep[a] == a:
                for x, col in enumerate(cols):
                    if not col[a]:
                        n = new_coset()
                        col[a], cols[x ^ 1][n] = n, a
            a += 1
    except _Overflow:
        return CosetTable(
            status="overflow", index=None, generator_perms=None,
            cosets_defined=len(rep) - 1, peak_live=peak, max_cosets=max_cosets,
            subgroup_generators=rendered)

    alive = [c for c in range(1, len(rep)) if rep[c] == c]
    renum = {c: i for i, c in enumerate(alive)}
    perms: dict[str, Perm] = {}
    for name, x in zip(P.alphabet.symbols, _columns((i, 1) for i in range(P.alphabet.rank))):
        images = []
        for c in alive:
            img = cols[x][c]
            if img not in renum:
                raise AssertionError("incomplete table at termination (internal error)")
            images.append(renum[img])
        perms[name] = tuple(images)

    table = CosetTable(
        status="complete", index=len(alive), generator_perms=perms,
        cosets_defined=len(rep) - 1, peak_live=peak, max_cosets=max_cosets,
        subgroup_generators=rendered)
    if not table.verify(P, subgroup_gens):
        raise AssertionError("coset table failed verification (internal error)")
    return table
