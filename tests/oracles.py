"""Test-only oracles that re-derive answers of presforge by brute force.

`brute_force_homs` enumerates every tuple of generator images in S_k,
`compose_evaluate` and `compose_verify` evaluate and check an action by
composing permutations (`compose`), the reference for its letter-code walk,
`group_order` and `image_order` give the order of a permutation group by
orbit closure, `word_problem_oracle` decides the word problem of a finite
group from a completed coset table over the trivial subgroup, and
`minors_gcd` (over the
Bareiss determinant `det`) gives the products d_1 * ... * d_k of a Smith
form's invariant factors, `reference_smith_normal_form` is the Smith form
that updates the matrix and each transform in separate steps, the
reference whose transforms the one-loop elimination must reproduce, and
`dense_solve_row_lattice` is `solve_row_lattice` with its size reduction
over the dense kernel rows of the left transform, the reference for the
sparse one.

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

The `tuple_*` functions are the word algebra on tuples of (index, sign)
letters, as presforge computed it before words became their letter-code
text: the reference the text implementation is fuzzed against.
"""

from __future__ import annotations

import itertools
from math import gcd
from typing import Callable, Iterator, Sequence

from presforge.freewords import (
    Alphabet,
    Word,
    _Tokens,
    commutator,
    cyclically_reduce,
    exponent_vector,
    free_reduce,
)
from presforge.homology import IntegerMatrix, SmithForm, _identity
from presforge.presentations import FinitePresentation
from presforge.quotients import (
    BudgetExhausted,
    Perm,
    PermAssignment,
    identity_perm,
    inverse_perm,
    todd_coxeter,
)
from presforge.uce import (
    CommutatorWitness,
    NormalClosureElement,
    normal_closure_stream,
    reduced_words,
)


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


def compose(p: Perm, q: Perm) -> Perm:
    """Apply p first, then q."""
    return tuple(q[p[i]] for i in range(len(p)))


def compose_evaluate(hom: PermAssignment, w: Word) -> Perm:
    """The permutation by which w acts, by composing each letter's image
    (or its inverse) onto the product so far, as `PermAssignment.evaluate`
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
    form = SmithForm(diagonal=diagonal, left=L, right=R, rows=m, cols=n)
    if not form.verify(M):
        raise AssertionError("SNF transform verification failed (internal error)")
    return form


def dense_solve_row_lattice(M: IntegerMatrix, target: list[int],
                            form: SmithForm) -> list[int] | None:
    """y with y*M == target, size-reduced against every kernel row of
    `form.left` read densely, with norms and dot products over all m
    entries; None if target is outside the row lattice."""
    m, n = len(M), len(M[0])
    tR = [sum(target[i] * form.right[i][j] for i in range(n)) for j in range(n)]
    diag = form.diagonal
    r = len(diag)
    if any(tR[j] for j in range(r, n)) or any(tR[i] % diag[i] for i in range(r)):
        return None
    z = [tR[i] // diag[i] for i in range(r)]
    y = [sum(z[i] * form.left[i][j] for i in range(r)) for j in range(m)]
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
        witness = CommutatorWitness(name, c, rho_j.inverse(P))
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
