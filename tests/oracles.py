"""Test-only oracles that re-derive answers of presforge by brute force.

`brute_force_homs` enumerates every tuple of generator images in S_k,
`compose_evaluate` and `compose_verify` evaluate and check an action by
composing permutations (`compose`), the reference for its letter-code walk,
`group_order` and `image_order` give the order of a permutation group by
orbit closure, `word_problem_oracle` decides the word problem of a finite
group from a completed coset table over the trivial subgroup,
`hlt_todd_coxeter` is coset enumeration as plain HLT, the reference for
the enumeration in Sims' order with deductions,
`row_major_low_index_subgroups` is the low-index search that fills the
first undefined entry in row-major order, the reference for the search
that branches on the column with the fewest free entries, and
`minors_gcd` (over the
Bareiss determinant `det`) gives the products d_1 * ... * d_k of a Smith
form's invariant factors, `reference_smith_normal_form` is the Smith form
that updates the matrix and dense transforms in separate steps, the
reference whose transforms the one-loop elimination must reproduce (its
left transform is handed back as sparse rows, as `SmithForm` holds it),
`densify` makes such rows dense, and `dense_solve_row_lattice` is
`solve_row_lattice` with its size reduction over the dense kernel rows of
the left transform, the reference for the sparse one.

`recursive_parse_word` is the word grammar parsed by recursive descent, two
frames per bracket, the reference for the parser with an explicit stack,
and `divisor_primitive_root` finds a word's primitive root by trying every
divisor of its length.

`search_commutator_witnesses` is the classical blind diagonal search for
the commutator witnesses of a universal central extension, over
`commutator_subgroup_words` and the closure stream; `search_extension`
presents the extension from any witness set, so its order can be checked
against `miller_uce`'s.  `stream_fairness_bound` bounds where the closure
stream reaches short products.

`normal_closure_stream` enumerates the products of relator conjugates
fairly, over the `reduced_words` as conjugators, and `closure_inverse`
inverts such a product.  `express_in_generators` searches for a subgroup
expression certified by a closure element, walking diagonal d of the
reduced words against that stream, and `uce_word_transfer` transfers the
word problem between a perfect group and its universal central extension
through that one search (over `kernel_symbols`).  Both are budgeted
semi-decisions, since a negative instance can only run out of budget, so
no decision of presforge calls them.

The `tuple_*` functions are the word algebra on tuples of (index, sign)
letters, as presforge computed it before words became their letter-code
text: the reference the text implementation is fuzzed against.

`reference_dehn_find` is `DehnSolver._find` as it was before the scan
probed strided seeds: one lookup of the first k letters at every position,
in the index `dehn_prefix_index` builds, and a letter loop for the match
extension.

The last section holds constructions and checks that no command of
presforge calls, so they are not shipped with it:
`tietze_eliminate_generator` (with `TietzeElimination` and
`NotEliminableError`), `free_product` and `hnn_extension`; `direct_sum` of
abelian groups and `is_perfect`; `morphism_image` of a word under a
`PresentationMorphism`; `evaluate_action` and `image_of` on a
`PermAssignment`; `dehn_word_problem`, `dehn_closure_certificate` and
`dehn_certificate_holds`, which re-expands a Dehn verdict's factors;
`reduce_pair`, `pair_to_product_word` and `product_word_to_pair` on pair
words, `s_plus` of a `delta_amalgam`, `killed_quotient` of a transform and
`fibre_membership`.  `gadget_conjugacy_decision` (over `primitive_root`)
decides a word problem through the conjugacy gadget and fibre membership,
the second route to a verdict that the acceptance suite compares with
Dehn's algorithm.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, lcm
from typing import Callable, Iterator, Sequence

from presforge.constructions import (
    ConstructionError,
    DeltaResult,
    GeneratingSet,
    PairWord,
    RipsOutput,
    conjugacy_gadget,
)
from presforge.freewords import (
    Alphabet,
    Word,
    _Tokens,
    apply_map,
    commutator,
    conjugacy_test,
    cyclically_reduce,
    exponent_vector,
    free_reduce,
    identity_images,
    letter_codes,
    relabel,
    render_word,
)
from presforge.homology import AbelianGroupDescriptor, IntegerMatrix, SmithForm, _identity, h1
from presforge.presentations import (
    FinitePresentation,
    PresentationError,
    PresentationMorphism,
    _disjoint_names,
)
from presforge.quotients import (
    BudgetExhausted,
    CosetTable,
    Perm,
    PermAssignment,
    _Overflow,
    _walk,
    identity_perm,
    inverse_perm,
    todd_coxeter,
)
from presforge.smallcancel import DehnResult, DehnSolver
from presforge.uce import CommutatorWitness, NormalClosureElement, UcePresentation


def brute_force_homs(P: FinitePresentation, k: int) -> list[PermAssignment]:
    """Raw product enumeration (no backtracking); independent oracle for
    small inputs."""
    gens = P.alphabet.symbols
    all_perms = [tuple(p) for p in itertools.permutations(range(k))]
    ident = identity_perm(k)
    out = []
    for combo in itertools.product(all_perms, repeat=len(gens)):
        hom = PermAssignment(k, tuple(zip(gens, combo)))
        if all(evaluate_action(hom, r) == ident for r in P.relators):
            out.append(hom)
    return out


def compose(p: Perm, q: Perm) -> Perm:
    """Apply p first, then q."""
    return tuple(q[p[i]] for i in range(len(p)))


def compose_evaluate(hom: PermAssignment, w: Word) -> Perm:
    """The permutation by which w acts, by composing each letter's image
    (or its inverse) onto the product so far, as `evaluate_action`
    computed it before one letter-code walk carried every action."""
    table = dict(hom.images)
    neg = {name: inverse_perm(p) for name, p in table.items()}
    acc = identity_perm(hom.degree)
    for i, s in w.letters:
        name = w.alphabet.symbols[i]
        acc = compose(acc, neg[name] if s < 0 else table[name])
    return acc


def compose_verify(hom: PermAssignment, P: FinitePresentation,
                   fixing: Sequence[Word] = ()) -> bool:
    """`PermAssignment.verify` over `compose_evaluate`: every generator of P
    has an image holding each of range(degree) once, every relator acts
    trivially and every word in `fixing` fixes point 0."""
    table = dict(hom.images)
    points = set(range(hom.degree))
    if any(name not in table or len(table[name]) != hom.degree
           or set(table[name]) != points for name in P.generators):
        return False
    ident = identity_perm(hom.degree)
    return (all(compose_evaluate(hom, r) == ident for r in P.relators)
            and all(compose_evaluate(hom, w)[0] == 0 for w in fixing))


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
    return lambda w: evaluate_action(action, w) == ident


def hlt_todd_coxeter(
    P: FinitePresentation,
    subgroup_gens: Sequence[Word] = (),
    max_cosets: int = 100_000,
) -> CosetTable:
    """`todd_coxeter` as presforge ran it before Sims' order: plain HLT.
    Each subgroup generator is scanned and filled at coset 0; then every
    live coset, in creation order, has every relator but the squares of
    involutory generators scanned and filled at it (in relator order),
    after which the empty entries of its row are defined.  No deductions;
    same columns, scans, COINCIDENCE and final `verify`."""
    if max_cosets < 1:
        raise ValueError("max_cosets must be >= 1")
    if any(w.alphabet != P.alphabet for w in subgroup_gens):
        raise ValueError("subgroup generator over the wrong alphabet")
    # the relators whose core is g^2 or g^-2, each with its generator g
    squares = {r: c[0] >> 1 for r in P.relators
               if len(c := letter_codes(cyclically_reduce(r)[0])) == 2 and c[0] == c[1]}
    # cols[x][c]: coset c times letter x, or 0 while undefined, one list
    # shared by both letters of an involutory generator.  Cosets are
    # numbered from 1 here, so entry 0 of every list is unused.
    cols: list[list[int]] = []
    for g in range(P.alphabet.rank):
        cols += [[0, 0]] * 2 if g in squares.values() else [[0, 0], [0, 0]]
    # one letter per distinct list, for appends and coincidences
    owners = [x for x in range(len(cols)) if cols[x] is not cols[x ^ 1] or not x & 1]
    rep = [0, 1]  # rep[c] == c iff coset c is live
    live = peak = 1

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
        xs = letter_codes(w)
        return [cols[x] for x in xs], [cols[x ^ 1] for x in xs]

    relators = [columns(r) for r in P.relators if r not in squares]
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
                for x in owners:
                    if not cols[x][a]:
                        n = new_coset()
                        cols[x][a], cols[x ^ 1][n] = n, a
            a += 1
    except _Overflow:
        return CosetTable(None, cosets_defined=len(rep) - 1, peak_live=peak)

    alive = [c for c in range(1, len(rep)) if rep[c] == c]
    renum = {c: i for i, c in enumerate(alive)}
    images = []
    for name, x in zip(P.alphabet.symbols, range(0, 2 * P.alphabet.rank, 2)):
        if any(cols[x][c] not in renum for c in alive):
            raise AssertionError("incomplete table at termination (internal error)")
        images.append((name, tuple(renum[cols[x][c]] for c in alive)))
    table = CosetTable(PermAssignment(len(alive), tuple(images)),
                       cosets_defined=len(rep) - 1, peak_live=peak)
    if not table.verify(P, subgroup_gens):
        raise AssertionError("coset table failed verification (internal error)")
    return table


def row_major_low_index_subgroups(P: FinitePresentation, n: int,
                                  nodes: list[int] | None = None) -> Iterator[PermAssignment]:
    """Sims' low-index search as presforge ran it before it branched on the
    column with the fewest free entries: always fill the first undefined
    entry in row-major order, with the same definitions and deductions.
    Its tables come out standardized in row-major order, in lexicographic
    order of the search tree; each search node adds 1 to nodes[0]."""
    if nodes is None:
        nodes = [0]
    ncols = 2 * P.alphabet.rank
    scans: list[dict[tuple[int, ...], None]] = [{} for _ in range(ncols)]
    for r in P.relators:
        for w in (r, r.inverse()):
            cols = letter_codes(w)
            for k in range(len(cols)):
                scans[cols[k]][tuple(cols[k:] + cols[:k])] = None
    tab = [-1] * (n * ncols)
    trail: list[int] = []

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
        end = ncos * ncols
        while pos < end and tab[pos] >= 0:
            pos += 1
        if pos == end:
            yield PermAssignment(ncos, tuple(
                (g, tuple(tab[c * ncols + x] for c in range(ncos)))
                for g, x in zip(P.alphabet.symbols, range(0, ncols, 2))))
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


def reference_smith_normal_form(M: IntegerMatrix) -> SmithForm:
    """Exact SNF with transforms.

    Pivot rule: smallest nonzero absolute value in the working block,
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
    left = [{t: x for t, x in enumerate(row) if x} for row in L]
    form = SmithForm(diagonal=diagonal, left=left, right=R, rows=m, cols=n)
    if not form.verify(M):
        raise AssertionError("SNF transform verification failed (internal error)")
    return form


def densify(rows: list[dict[int, int]], width: int) -> IntegerMatrix:
    """Sparse rows, such as a Smith form's `left`, as a dense matrix."""
    return [[row.get(j, 0) for j in range(width)] for row in rows]


def dense_solve_row_lattice(M: IntegerMatrix, target: list[int],
                            form: SmithForm) -> list[int] | None:
    """y with y*M == target, size-reduced against every kernel row of
    `form.left` made dense, with norms and dot products over all m
    entries; None if target is outside the row lattice."""
    m, n = len(M), len(M[0])
    left = densify(form.left, m)
    tR = [sum(target[i] * form.right[i][j] for i in range(n)) for j in range(n)]
    diag = form.diagonal
    r = len(diag)
    if any(tR[j] for j in range(r, n)) or any(tR[i] % diag[i] for i in range(r)):
        return None
    z = [tR[i] // diag[i] for i in range(r)]
    y = [sum(z[i] * left[i][j] for i in range(r)) for j in range(m)]
    kernel = [left[i] for i in range(r, m)]
    changed = True
    while changed:
        changed = False
        for kv in kernel:
            norm = sum(x * x for x in kv)
            if norm == 0:
                continue
            t, rem = divmod(sum(a * b for a, b in zip(y, kv)), norm)
            if 2 * rem > norm or (2 * rem == norm and t % 2):
                t += 1
            if t:
                y = [a - t * b for a, b in zip(y, kv)]
                changed = True
    return y


def recursive_parse_word(alphabet: Alphabet, text: str) -> Word:
    """`parse_word` by recursive descent: a word is factors up to the next
    delimiter, and a bracketed factor reads its inner words by recursion."""
    toks = _Tokens(text)

    def read_word() -> str:
        parts: list[str] = []
        while True:
            t = toks.peek()
            if t is None or t[1] in (",", ")", "]", ">", "|", "="):
                return "".join(parts)
            if t[1] == "*":
                toks.next()
                continue
            parts.append(parse_factor())

    def parse_factor() -> str:
        t = toks.next()
        if t is None:
            raise toks.error("expected a word factor")
        kind, val, _ = t
        if kind == "name":
            atom = chr(256 + 2 * alphabet.index(val))
        elif kind == "int" and val == "1":
            atom = ""  # identity literal
        elif val == "(":
            atom = read_word()
            toks.expect(")")
        elif val == "[":
            u = read_word()
            toks.expect(",")
            v = read_word()
            toks.expect("]")
            atom = commutator(Word._trusted(alphabet, u), Word._trusted(alphabet, v)).text
        else:
            raise toks.error(f"unexpected {val!r} in word", t)
        nxt = toks.peek()
        if nxt is not None and nxt[1] == "^":
            toks.next()
            e = toks.next()
            if e is None or e[0] != "int":
                raise toks.error("expected integer exponent after '^'", e)
            return (Word._trusted(alphabet, atom) ** int(e[1])).text
        return atom

    w = Word._trusted(alphabet, read_word())
    t = toks.peek()
    if t is not None:
        raise toks.error(f"trailing {t[1]!r} after word", t)
    return w


def divisor_primitive_root(w: Word) -> tuple[Word, int]:
    """(z, k) with the cyclic core of w equal to z^k and z primitive: the
    shortest prefix z whose length divides the core's and which repeats
    to the whole core."""
    core, _ = cyclically_reduce(w)
    L = len(core)
    if L == 0:
        return core, 0
    for d in range(1, L + 1):
        if L % d == 0 and core.text[:d] * (L // d) == core.text:
            return Word._trusted(core.alphabet, core.text[:d]), L // d
    raise AssertionError("unreachable")


# --- the blind closure searches ----------------------------------------------

DEFAULT_BUDGET = 10**6


def closure_inverse(P: FinitePresentation, rho: NormalClosureElement) -> NormalClosureElement:
    """The closure element whose expansion is the inverse of rho's."""
    rev = tuple((conj, idx, -sign) for conj, idx, sign in reversed(rho.factors))
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
    words pi and closure elements along finite diagonals, pairing the i-th
    word with the (d - i)-th closure element on diagonal d, and testing
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


def commutator_subgroup_words(alphabet: Alphabet) -> Iterator[Word]:
    """Reduced words with zero exponent vector, in (length, lex) order; a
    fair enumeration of the commutator subgroup of the free group.  Finite
    (just the identity) when the rank is at most 1."""
    if alphabet.rank <= 1:
        yield alphabet.identity()
        return
    for w in reduced_words(alphabet):
        if not any(exponent_vector(w)):
            yield w


def stream_fairness_bound(P: FinitePresentation, k: int) -> int:
    """Number of `normal_closure_stream` emissions within which every
    product of at most k factors with conjugators of length <= k is
    guaranteed to appear."""
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


def search_commutator_witnesses(P: FinitePresentation,
                                budget: int) -> list[CommutatorWitness]:
    """One witness per generator by the blind enumeration over pairs
    (commutator word d, closure element rho) along finite diagonals, until
    x * d * rho is freely trivial.  Raises BudgetExhausted once `budget`
    pair checks are spent; never returns an unverified witness."""
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
            while len(ds) <= diag and (d := next(d_iter, None)) is not None:
                ds.append(d)
            while len(rhos) <= diag and (rho := next(rho_iter, None)) is not None:
                rhos.append(rho)
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
        witness = CommutatorWitness(name, c, closure_inverse(P, rho_j))
        if not witness.verify(P):
            raise AssertionError("searched witness failed verification")
        out.append(witness)
    return out


def search_extension(P: FinitePresentation,
                     witnesses: Sequence[CommutatorWitness]) -> FinitePresentation:
    """The extension presented from `witnesses`: relators x * c_x, then
    every nontrivial [x, r] (x-major order)."""
    alph = P.alphabet
    rels = [free_reduce(alph.gen(w.generator).concat(w.c)) for w in witnesses]
    rels += [cw for name in alph.symbols for r in P.relators
             if (cw := commutator(alph.gen(name), r)).letters]
    return FinitePresentation(alph, tuple(rels))


# --- the tuple word algebra --------------------------------------------------

Letters = tuple[tuple[int, int], ...]


def tuple_free_reduce(ls: Letters) -> Letters:
    out: list[tuple[int, int]] = []
    for idx, sign in ls:
        if out and out[-1][0] == idx and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((idx, sign))
    return tuple(out)


def tuple_is_reduced(ls: Letters) -> bool:
    return all(ls[k][0] != ls[k + 1][0] or ls[k][1] == ls[k + 1][1]
               for k in range(len(ls) - 1))


def tuple_inverse(ls: Letters) -> Letters:
    return tuple((i, -s) for i, s in reversed(ls))


def tuple_pow(ls: Letters, n: int) -> Letters:
    if n == 0:
        return ()
    base = ls if n > 0 else tuple_inverse(ls)
    return tuple_free_reduce(base * abs(n))


def tuple_cyclically_reduce(ls: Letters) -> tuple[Letters, Letters]:
    """(core, conjugator), peeling one letter from each end at a time."""
    core = list(tuple_free_reduce(ls))
    pre = []
    while len(core) >= 2 and core[0][0] == core[-1][0] and core[0][1] == -core[-1][1]:
        pre.append(core[0])
        core = core[1:-1]
    return tuple(core), tuple(pre)


def tuple_apply_map(ls: Letters, images: Sequence[Letters]) -> Letters:
    """images[i]: the letters of the image of symbol i; reduced as it goes."""
    out: list[tuple[int, int]] = []
    for idx, sign in ls:
        for jdx, jsign in (images[idx] if sign > 0 else tuple_inverse(images[idx])):
            if out and out[-1][0] == jdx and out[-1][1] == -jsign:
                out.pop()
            else:
                out.append((jdx, jsign))
    return tuple(out)


def tuple_relabel(ls: Letters, table: Sequence[int]) -> Letters:
    return tuple((table[i], s) for i, s in ls)


def tuple_exponent_vector(ls: Letters, rank: int) -> tuple[int, ...]:
    v = [0] * rank
    for idx, sign in ls:
        v[idx] += sign
    return tuple(v)


def tuple_render(ls: Letters, symbols: Sequence[str]) -> str:
    if not ls:
        return "1"
    parts, i = [], 0
    while i < len(ls):
        j = i
        while j < len(ls) and ls[j] == ls[i]:
            j += 1
        k = (j - i) * ls[i][1]
        name = symbols[ls[i][0]]
        parts.append(name if k == 1 else f"{name}^{k}")
        i = j
    return "*".join(parts)


def tuple_conjugacy_witness(u: Letters, v: Letters) -> Letters | None:
    """w with u = w v w^-1 in the free group, or None: v's cyclic core must
    be a rotation of u's, the least one found."""
    cu, gu = tuple_cyclically_reduce(u)
    cv, gv = tuple_cyclically_reduce(v)
    if len(cu) != len(cv):
        return None
    for j in range(max(len(cu), 1)):
        if cu[j:] + cu[:j] == cv:
            return tuple_free_reduce(gu + cu[:j] + tuple_inverse(gv))
    return None


def dehn_prefix_index(solver: DehnSolver) -> dict[str, list[int]]:
    """The first k letters of each slot of `solver`, k its shortest
    more-than-half length, mapped to their slot ids in increasing order."""
    index: dict[str, list[int]] = {}
    for sid, (tid, o, _) in enumerate(solver.slots):
        index.setdefault(solver.texts[tid][o:o + solver.k], []).append(sid)
    return index


def reference_dehn_find(solver: DehnSolver, by_prefix: dict[str, list[int]], cur: str,
                        start: int) -> tuple[int, int, int] | None:
    """(position, match length, slot id): the leftmost position >= start
    where more than half of a slot starts, with the slot's full match there;
    one probe per position."""
    k, n = solver.k, len(cur)
    for i in range(start, n - k + 1):
        for sid in by_prefix.get(cur[i:i + k], ()):
            tid, o, L = solver.slots[sid]
            D, h = solver.texts[tid], L // 2 + 1
            if cur[i + k:i + h] != D[o + k:o + h]:
                continue
            m = h
            while m < L and i + m < n and cur[i + m] == D[o + m]:
                m += 1
            return i, m, sid
    return None


# --- constructions, checks and conveniences that only tests call -------------

class NotEliminableError(PresentationError):
    """The chosen relator does not define the generator to eliminate."""


@dataclass(frozen=True)
class TietzeElimination:
    """Result of eliminating a generator: the new presentation plus the
    substitution that realizes the isomorphism on generators."""

    presentation: FinitePresentation
    eliminated: str
    replacement: Word           # word (over the new alphabet) equal to the old generator
    to_new: PresentationMorphism
    to_old: PresentationMorphism


def _eliminable_shape(r: Word, gen: Word) -> Word | None:
    """If r or r^-1 is g*w^-1 or w^-1*g with w free of the generator
    g = `gen`, return w."""
    g, g_inv = gen.text, gen.inverse().text
    for cand in (r, r.inverse()):
        t = cand.text
        if t[:1] == g and g not in t[1:] and g_inv not in t[1:]:
            return Word._trusted(r.alphabet, t[1:]).inverse()
        if t[-1:] == g and g not in t[:-1] and g_inv not in t[:-1]:
            return Word._trusted(r.alphabet, t[:-1]).inverse()
    return None


def tietze_eliminate_generator(
    P: FinitePresentation, g: str, defining: int
) -> TietzeElimination:
    """Remove generator g using relator P.relators[defining], which must be
    freely equal to g*w^-1 or w^-1*g (up to inversion) with w free of g.

    Every other occurrence of g is replaced by w; relators that become
    freely trivial are dropped (they were copies of the defining relation).
    """
    gen = P.alphabet.gen(g)
    if not (0 <= defining < len(P.relators)):
        raise NotEliminableError(f"no relator with index {defining}")
    w = _eliminable_shape(P.relators[defining], gen)
    if w is None:
        raise NotEliminableError(
            f"relator {render_word(P.relators[defining])!r} does not define {g!r}")
    new_alph = Alphabet(s for s in P.alphabet.symbols if s != g)
    down = {s: new_alph.gen(s) for s in new_alph.symbols}
    # w avoids g, so deleting g's letters only renames the others
    down[g], = relabel([w], new_alph, [None if s == g else s for s in P.alphabet.symbols])
    new_rels = []
    for k, r in enumerate(P.relators):
        if k == defining:
            continue
        img = apply_map(r, down, target=new_alph)
        if img:
            new_rels.append(img)
    newP = FinitePresentation(new_alph, tuple(new_rels), aspherical=P.aspherical)
    up = {s: P.alphabet.gen(s) for s in new_alph.symbols}
    return TietzeElimination(
        presentation=newP,
        eliminated=g,
        replacement=down[g],
        to_new=PresentationMorphism(P, newP, down, witness="generator elimination"),
        to_old=PresentationMorphism(newP, P, up, witness="inclusion of surviving generators"),
    )


def free_product(P1: FinitePresentation, P2: FinitePresentation,
                 auto_rename: bool = False) -> FinitePresentation:
    """Union of generators and relators (disjoint names required)."""
    n1, n2 = _disjoint_names(P1, P2, auto_rename)
    alph = Alphabet(n1 + n2)
    rels = relabel(P1.relators, alph, n1) + relabel(P2.relators, alph, n2)
    note = None
    if P1.aspherical and P2.aspherical:
        note = "free product of aspherical presentations"
    return FinitePresentation(alph, tuple(rels), aspherical=note)


def hnn_extension(
    P: FinitePresentation,
    t: str,
    pairs: Sequence[tuple[Word, Word]],
    associated_subgroups_free: bool = False,
) -> FinitePresentation:
    """Add stable letter t and relators t u_i t^-1 v_i^-1."""
    if t in P.alphabet:
        raise PresentationError(f"stable letter {t!r} already a generator")
    alph = Alphabet(P.alphabet.symbols + (t,))
    rels = relabel(P.relators, alph)
    tw = alph.gen(t)
    for u, v in pairs:
        if u.alphabet != P.alphabet or v.alphabet != P.alphabet:
            raise PresentationError("associated pair over the wrong alphabet")
        uu, vv = relabel([u, v], alph)
        r = free_reduce(tw.concat(uu).concat(tw.inverse()).concat(vv.inverse()))
        if not r:
            raise PresentationError("associated pair freely cancels")
        rels.append(r)
    note = None
    if P.aspherical and associated_subgroups_free:
        note = ("HNN extension of an aspherical presentation along subgroups "
                "asserted free by the caller")
    return FinitePresentation(alph, tuple(rels), aspherical=note)


def morphism_image(p: PresentationMorphism, w: Word) -> Word:
    """The image under p of a word over p's source."""
    if w.alphabet != p.source.alphabet:
        raise PresentationError("word not over the morphism's source alphabet")
    return apply_map(w, p.images, target=p.target.alphabet)


def direct_sum(A: AbelianGroupDescriptor, B: AbelianGroupDescriptor) -> AbelianGroupDescriptor:
    """Z/a + Z/b is Z/gcd(a, b) + Z/lcm(a, b); applied to every pair i < j
    in turn, this leaves each entry dividing all the entries after it."""
    chain = list(A.torsion + B.torsion)
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            chain[i], chain[j] = gcd(chain[i], chain[j]), lcm(chain[i], chain[j])
    return AbelianGroupDescriptor(A.rank + B.rank, tuple(t for t in chain if t > 1))


def is_perfect(P: FinitePresentation) -> bool:
    return h1(P).group.is_trivial


def evaluate_action(hom: PermAssignment, w: Word) -> Perm:
    """The permutation by which w acts, its letters applied left to right;
    ValueError unless the images permute range(degree)."""
    if (act := hom._action(w.alphabet)) is None:
        raise ValueError("generator images do not permute the points")
    return tuple(_walk(act, letter_codes(w), range(hom.degree)))


def image_of(hom: PermAssignment, name: str) -> Perm:
    return dict(hom.images)[name]


def dehn_word_problem(P: FinitePresentation, w: Word,
                      collect_trace: bool = False) -> DehnResult:
    """Decide triviality of w in a C'(1/6)-certified presentation with a
    solver built (and certified) for this one word."""
    return DehnSolver(P).solve(w, collect_trace=collect_trace)


def dehn_closure_certificate(res: DehnResult, P: FinitePresentation) -> NormalClosureElement:
    return NormalClosureElement.build(P, res.factors)


def dehn_certificate_holds(res: DehnResult, P: FinitePresentation, original: Word) -> bool:
    """Whether a Dehn verdict is "trivial" with factors that expand to the
    free reduction of `original`."""
    if not res.trivial:
        return False
    return dehn_closure_certificate(res, P).expanded == free_reduce(original)


def reduce_pair(pw: PairWord) -> PairWord:
    return PairWord(free_reduce(pw.left), free_reduce(pw.right))


def pair_to_product_word(pw: PairWord, ambient: FinitePresentation) -> Word:
    """Canonical image of a pair in the tagged product alphabet: left
    letters (as *_L), then right letters (as *_R)."""
    syms = pw.left.alphabet.symbols
    left, = relabel([pw.left], ambient.alphabet, [s + "_L" for s in syms])
    right, = relabel([pw.right], ambient.alphabet, [s + "_R" for s in syms])
    return left.concat(right)


def product_word_to_pair(w: Word, factor: Alphabet) -> PairWord:
    """Componentwise projections of a tagged product word; interleaving is
    not remembered (the ambient commutators justify this only inside the
    product presentation)."""
    syms = w.alphabet.symbols
    left, = relabel([w], factor, [s[:-2] if s.endswith("_L") else None for s in syms])
    right, = relabel([w], factor, [s[:-2] if s.endswith("_R") else None for s in syms])
    if len(left) + len(right) != len(w):
        untagged = [s for s in syms if not s.endswith(("_L", "_R"))]
        raise ConstructionError(f"untagged generator among {untagged} in product word")
    return PairWord(left, right)


def s_plus(res: DeltaResult, S: GeneratingSet) -> GeneratingSet:
    """S_n read as words over the amalgam, extended by the attachment
    letters C."""
    words = [free_reduce(pair_to_product_word(pw, res.delta)) for pw in S.elements]
    return GeneratingSet("S_plus", res.delta, tuple(words) + res.C.elements, factor=res.factor,
                         notes="fibre generators extended by attachment letters")


def killed_quotient(rips: RipsOutput) -> FinitePresentation:
    """Apply the kernel-killing map to every relator and drop the kernel
    generators; recovers a presentation of the transform's input."""
    rels = []
    for r in rips.gamma.relators:
        img = morphism_image(rips.p, r)
        if img:
            rels.append(img)
    return FinitePresentation(rips.p.target.alphabet, tuple(rels))


def fibre_membership(pw: PairWord, p: PresentationMorphism,
                     wp_oracle: Callable[[Word], bool]) -> bool:
    """(u,v) lies in the fibre product of p iff p(u v^-1) dies in the
    target; the caller supplies the target's word-problem oracle."""
    image = morphism_image(p, free_reduce(pw.left.concat(pw.right.inverse())))
    if not image:
        return True
    return wp_oracle(image)


def primitive_root(w: Word) -> tuple[Word, int]:
    """Write the cyclic core of w as z^k with z primitive; returns (z, k)."""
    core, _ = cyclically_reduce(w)
    t = core.text
    if not t:
        return core, 0
    d = (t + t).find(t, 1)  # the least rotation fixing t: t is t[:d] repeated
    return Word._trusted(core.alphabet, t[:d]), len(t) // d


def gadget_conjugacy_decision(
    w: Word,
    kernel_word: Word,
    p: PresentationMorphism,
    wp_oracle: Callable[[Word], bool],
) -> bool:
    """Decide conjugacy of the gadget pairs inside the fibre product of p.

    The componentwise free-group conjugacy test produces one conjugating
    pair; all others differ by centralizer elements, which are powers of
    the kernel word's primitive root.  When the kernel word is not a
    proper power, membership of the found conjugator in the fibre product
    settles the question, and it is equivalent to the triviality of w in
    the target -- giving a second, independent route to that verdict.
    """
    root, k = primitive_root(kernel_word)
    if k != 1:
        raise ConstructionError(
            f"kernel element {render_word(kernel_word)} is a proper power "
            f"({render_word(root)})^{k}; the centralizer argument needs a primitive element")
    first, second = conjugacy_gadget(w, kernel_word)
    left = conjugacy_test(first.left, second.left)
    right = conjugacy_test(first.right, second.right)
    if left is None or right is None:
        return False
    return fibre_membership(PairWord(left, right), p, wp_oracle)
