import hashlib
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import dehn_certificate_holds, dehn_prefix_index, dehn_word_problem, reference_dehn_find
from piece_oracles import piece_table, reference_certificate, slots_sorted, threshold_scan
from presforge.freewords import (
    Alphabet,
    AlphabetMismatchError,
    Word,
    free_reduce,
    relabel,
    render_word,
)
from presforge.presentations import FinitePresentation, presentation
from presforge.smallcancel import (
    CertificateRequired,
    DehnSolver,
    _cores,
    _doubled_texts,
    _agreement,
    _letter_bytes,
    _sorted_rotations,
    metric_certificate,
)
from presforge.uce import NormalClosureElement

# frozen single-relator example: blocks a b^(j+2) c^2 with j = 0..23; all
# b-runs distinct, so pieces stay short relative to the relator
LONG_RELATOR = "*".join(f"a*b^{j + 2}*c^2" for j in range(24))


def brute_force_pieces(P):
    """Independent piece oracle: enumerate every cyclic subword occurrence
    of every symmetrized relator and find, per relator pair, the longest
    word occurring at two distinct slots."""
    texts = []
    for t, r in enumerate(P.relators):
        from presforge.freewords import cyclically_reduce
        core, _ = cyclically_reduce(r)
        for sign in (1, -1):
            base = core if sign > 0 else core.inverse()
            texts.append((base.letters, t, sign))
    occ = {}
    for letters, t, sign in texts:
        L = len(letters)
        doubled = letters + letters
        for o in range(L):
            for ln in range(1, L + 1):
                sub = doubled[o:o + ln]
                occ.setdefault(tuple(sub), set()).add((t, sign, o))
    best = {}
    for sub, slots in occ.items():
        if len(slots) < 2:
            continue
        rels = sorted({t for t, _, _ in slots})
        for i in rels:
            for j in rels:
                if i <= j:
                    pair_slots = [s for s in slots if s[0] in (i, j)]
                    if len(pair_slots) >= 2 and (i != j or len(
                            [s for s in pair_slots if s[0] == i]) >= 2):
                        key = (i, j)
                        best[key] = max(best.get(key, 0), len(sub))
    return best


class TestMetricCertificate:
    def test_abab_fails(self):
        cert = metric_certificate(presentation(["a", "b"], ["a*b*a*b"]))
        assert not cert.passed
        assert cert.offending is not None
        assert cert.offending.length >= 2
        # the offending piece really is a cyclic subword of the relator
        assert cert.offending.relator_a == cert.offending.relator_b == 0

    def test_long_aperiodic_relator_passes(self):
        P = presentation(["a", "b", "c"], [LONG_RELATOR])
        cert = metric_certificate(P)
        assert cert.passed
        assert cert.max_piece_by_relator[0] * 6 < cert.relator_lengths[0]

    def test_rips_outputs_pass(self, rips_trivial, rips_higman):
        for out in (rips_trivial, rips_higman):
            assert out.certificate.passed
            assert metric_certificate(out.gamma).passed

    def test_threshold_scan_agrees(self, rips_trivial):
        corpus = [
            presentation(["a", "b"], ["a*b*a*b"]),
            presentation(["a", "b", "c"], [LONG_RELATOR]),
            presentation(["a", "b"], ["a^2", "b^3", "(a*b)^5"]),
            presentation(["x"], ["x"]),
            rips_trivial.gamma,
        ]
        for P in corpus:
            assert threshold_scan(P) == metric_certificate(P).passed

    def test_monotone_in_lambda(self):
        corpus = [
            presentation(["a", "b"], ["a*b*a*b"]),
            presentation(["a", "b"], ["a^2", "b^3", "(a*b)^5"]),
            presentation(["a", "b", "c"], [LONG_RELATOR]),
        ]
        for P in corpus:
            passed = [metric_certificate(P, lam).passed
                      for lam in (Fraction(1, 8), Fraction(1, 6), Fraction(1, 4),
                                  Fraction(1, 2))]
            # once passing, passing at every larger lambda
            assert passed == sorted(passed)

    def test_no_relators(self):
        cert = metric_certificate(presentation(["a"], []))
        assert cert.passed and cert.min_relator_length is None

    def test_nonpositive_lambda(self):
        # C'(lam) bounds pieces only: a relator with none passes at any lam,
        # and one with a piece fails at lam <= 0 with that piece as witness
        for lam in (Fraction(0), Fraction(-1, 6)):
            cert = metric_certificate(presentation(["x"], ["x"]), lam)
            assert cert.passed and cert.offending is None
            cert = metric_certificate(presentation(["a", "b"], ["a^2", "b^3", "(a*b)^5"]), lam)
            assert not cert.passed and cert.offending.length == 2

    def test_relators_cyclically_reduced_first(self):
        # a b a^-1 has cyclic core b: certificate sees length-1 relators
        cert = metric_certificate(presentation(["a", "b"], ["a*b*a^-1"]))
        assert cert.relator_lengths == (1,)


_FUZZ_ALPHABET = Alphabet(["a", "b", "c"])
_fuzz_letters = st.lists(st.tuples(st.integers(0, 2), st.sampled_from((1, -1))),
                         min_size=1, max_size=12)


@st.composite
def fuzz_presentations(draw):
    """Relators from random letters, with proper powers, repeated relators
    and relators next to their inverses, so that long runs of rotations
    tie and equal rotation words occur at distinct slots; block words
    a b^(j+2) c^(s+2), as in LONG_RELATOR, give long relators that pass."""
    rels = []
    for letters in draw(st.lists(_fuzz_letters, max_size=4)):
        w = free_reduce(Word(_FUZZ_ALPHABET, tuple(letters)))
        if not w:
            continue
        kind = draw(st.sampled_from(("plain", "power", "repeated", "inverse", "blocks")))
        if kind == "power":
            w = w ** draw(st.integers(2, 6))
        elif kind == "blocks":
            s = draw(st.integers(0, 3))
            w = _FUZZ_ALPHABET.word("*".join(
                f"a*b^{j + 2}*c^{s + 2}" for j in range(draw(st.integers(2, 24)))))
        rels.append(w)
        if kind == "repeated":
            rels.append(w)
        elif kind == "inverse":
            rels.append(w.inverse())
    return FinitePresentation(_FUZZ_ALPHABET, tuple(rels))


@settings(max_examples=300, deadline=None, database=None)
@given(P=fuzz_presentations(),
       lam=st.sampled_from((Fraction(-1, 6), Fraction(0), Fraction(1, 6), Fraction(1, 2))))
def test_fuzz_certificate_matches_rotation_strings(P, lam):
    """The rotation-free scanner gives the rotation-string scanner's
    certificate field for field, offending witness included, and the
    window-table scan's verdict."""
    cert = metric_certificate(P, lam)
    assert cert == reference_certificate(P, lam)
    assert cert.passed == threshold_scan(P, lam)


@settings(max_examples=300, deadline=None, database=None)
@given(P=fuzz_presentations())
def test_fuzz_lcp_list_matches_rotation_strings(P):
    """The sort gives the rotation-string scanner's sorted rotation words,
    equal words in slot order, and its full list of neighbour
    common-prefix lengths."""
    cores = _cores(P)
    texts = _doubled_texts(cores)
    slots, lcp = _sorted_rotations(texts)
    ref_slots, ref_lcp = slots_sorted(cores)
    assert [(texts[t][o:o + L], t // 2) for t, o, L in slots] == [
        (sl.text, sl.rel) for sl in ref_slots]
    assert lcp == ref_lcp


@pytest.mark.parametrize("gens,rels", [
    (["a", "b"], ["a^300*b"]),
    (["a", "b", "c"], ["(a*b)^40*c", "(a*b)^45*c^-1", "(a*b)^45*c"]),
    (["a", "b", "c"], ["(a*b*c)^30*a", "(a*b*c)^30*b", "c*(a*b*c)^100"]),
    ([f"g{i}" for i in range(128)], ["g127^300*g0", "(g126*g127)^70*g0"]),
])
def test_deep_rounds_match_rotation_strings(gens, rels):
    """Rotations that tie past 64 and 256 letters without being equal are
    sorted again on the letters past those they share, one-byte and
    four-byte letters alike; the sorted slots, the common-prefix list and
    the certificate are still the rotation-string scanner's."""
    P = presentation(gens, rels)
    cores = _cores(P)
    texts = _doubled_texts(cores)
    slots, lcp = _sorted_rotations(texts)
    ref_slots, ref_lcp = slots_sorted(cores)
    assert [(texts[t][o:o + L], t // 2) for t, o, L in slots] == [
        (sl.text, sl.rel) for sl in ref_slots]
    assert lcp == ref_lcp and max(lcp) > 64
    assert metric_certificate(P) == reference_certificate(P)


# letter codes 256 + 2i + (0 or 1) fit one byte up to code 510, and from
# the inverse of generator 127 on they take four, surrogate codes from
# U+D800 (generator 27,520) included; the fuzz relators are carried onto
# three generators of each alphabet, often among its last ten
_WIDE_ALPHABETS = {128: Alphabet([f"g{i}" for i in range(128)]),
                   27_530: Alphabet([f"g{i}" for i in range(27_530)])}


@pytest.mark.parametrize("rank,width", [(127, 1), (128, 4), (27_520, 4), (27_521, 4)])
def test_letter_bytes_keep_letter_order(rank, width):
    """Every letter of a rank-`rank` alphabet becomes `width` bytes, never
    all zero, in the order of the letter codes."""
    text = "".join(map(chr, range(256, 256 + 2 * rank)))
    w, (data,) = _letter_bytes([text])
    units = [data[i:i + w] for i in range(0, len(data), w)]
    assert w == width and len(units) == len(text)
    assert all(map(any, units)) and units == sorted(set(units))


@settings(max_examples=300, deadline=None, database=None)
@given(P=fuzz_presentations(), rank=st.sampled_from(sorted(_WIDE_ALPHABETS)),
       data=st.data(), lam=st.sampled_from((Fraction(1, 6), Fraction(1, 2))))
def test_fuzz_wide_alphabets_match_rotation_strings(P, rank, data, lam):
    """Where letters take four bytes, the certificate and the sorted
    slots with their common-prefix list are the rotation-string
    scanner's."""
    target = _WIDE_ALPHABETS[rank]
    last_ten = st.integers(target.rank - 10, target.rank - 1)
    names = [target.symbols[i] for i in data.draw(st.lists(
        last_ten | st.integers(0, target.rank - 1), min_size=3, max_size=3, unique=True))]
    Q = FinitePresentation(target, tuple(relabel(P.relators, target, names)))
    assert metric_certificate(Q, lam) == reference_certificate(Q, lam)
    cores = _cores(Q)
    texts = _doubled_texts(cores)
    slots, lcp = _sorted_rotations(texts)
    ref_slots, ref_lcp = slots_sorted(cores)
    assert [(texts[t][o:o + L], t // 2) for t, o, L in slots] == [
        (sl.text, sl.rel) for sl in ref_slots]
    assert lcp == ref_lcp


def test_proper_power_certificate_memory_is_linear():
    """Every rotation of a^4000 ties with every other over its whole
    length; the sort settles the run by comparing words, not by growing
    8,000 keys to 4,000 letters each."""
    P = presentation(["a"], ["a^4000"])
    tracemalloc.start()
    try:
        cert = metric_certificate(P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.max_piece_by_relator == (4000,) and not cert.passed
    assert peak < 6_000_000


def test_near_power_certificate_memory():
    """The rotations a^i b a^(4000 - i) tie over long prefixes without
    being equal, so the sort re-sorts one long run on ever longer keys;
    one byte a letter, and keys of only the letters past those the run
    shares, keep the peak under 25 MB (two-byte whole prefixes: 33 MB)."""
    P = presentation(["a", "b"], ["a^4000*b"])
    tracemalloc.start()
    try:
        cert = metric_certificate(P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.max_piece_by_relator == (3999,) and not cert.passed
    assert peak < 25_000_000


class TestPieceTable:
    @pytest.mark.parametrize("gens,rels", [
        (["a", "b"], ["a*b*a*b"]),
        (["a", "b"], ["a^2", "b^3", "(a*b)^5"]),
        (["a", "b"], ["a*b*a^-1*b^-2", "b*a*b^-1*a^-2"]),
    ])
    def test_matches_brute_force(self, gens, rels):
        P = presentation(gens, rels)
        table = piece_table(P)
        brute = brute_force_pieces(P)
        for key, val in table.pair_max.items():
            assert val == brute.get(key, 0), key

    def test_bounded_by_pair_lengths(self, higman_J):
        table = piece_table(higman_J)
        for (i, j), val in table.pair_max.items():
            assert val <= min(table.relator_lengths[i], table.relator_lengths[j])

    def test_symmetrized_size(self):
        P = presentation(["a", "b"], ["a*b*a*b"])
        table = piece_table(P)
        assert len(table.symmetrized) == 2 * 4  # rotations of r and r^-1


def random_reduced_word(alph, n, rng):
    return free_reduce(Word(alph, tuple(
        (rng.randrange(alph.rank), rng.choice((1, -1))) for _ in range(n))))


def conjugate_product(P, count, rng, conj_len=3):
    acc = P.alphabet.identity()
    for _ in range(count):
        r = P.relators[rng.randrange(len(P.relators))]
        if rng.random() < 0.5:
            r = r.inverse()
        c = random_reduced_word(P.alphabet, rng.randrange(conj_len + 1), rng)
        acc = acc.concat(c).concat(r).concat(c.inverse())
    return free_reduce(acc)


class TestDehn:
    def test_relator_is_trivial(self, rips_trivial):
        solver = DehnSolver(rips_trivial.gamma, certificate=rips_trivial.certificate)
        res = solver.solve(rips_trivial.gamma.relators[0])
        assert res.trivial and res.replacements == 1

    def test_generator_is_nontrivial(self, rips_trivial):
        solver = DehnSolver(rips_trivial.gamma, certificate=rips_trivial.certificate)
        res = solver.solve(rips_trivial.gamma.alphabet.gen("x"))
        assert not res.trivial and render_word(res.residual) == "x"

    def test_constructed_trivial_words(self, rips_trivial):
        G = rips_trivial.gamma
        solver = DehnSolver(G, certificate=rips_trivial.certificate)
        rng = random.Random(40)
        done = 0
        while done < 30:
            w = conjugate_product(G, rng.randint(1, 5), rng)
            if not w.letters:
                continue
            res = solver.solve(w)
            assert res.trivial
            assert dehn_certificate_holds(res, G, w)
            done += 1

    def test_short_random_words_nontrivial(self, rips_trivial):
        G = rips_trivial.gamma
        solver = DehnSolver(G, certificate=rips_trivial.certificate)
        rng = random.Random(41)
        done = 0
        while done < 30:
            w = random_reduced_word(G.alphabet, rng.randint(1, 12), rng)
            if not w.letters:
                continue
            res = solver.solve(w)
            # short words cannot contain more than half of any relator here
            assert not res.trivial and res.replacements == 0
            done += 1

    def test_replacements_bounded_by_length(self, rips_trivial):
        G = rips_trivial.gamma
        solver = DehnSolver(G, certificate=rips_trivial.certificate)
        rng = random.Random(42)
        for _ in range(10):
            w = conjugate_product(G, rng.randint(1, 4), rng)
            res = solver.solve(w)
            assert res.replacements <= max(1, len(w))

    def test_precondition(self):
        bad = presentation(["a", "b"], ["a*b*a*b"])
        with pytest.raises(CertificateRequired):
            DehnSolver(bad)

    def test_supplied_certificate_must_fit(self, rips_trivial):
        # Z^2 is not C'(1/6): Dehn's algorithm would call the trivial word
        # a^2 b^2 a^-2 b^-2 nontrivial, so no supplied certificate may
        # open the solver, whether it is weaker than C'(1/6) or certifies
        # other relators
        Z2 = presentation(["a", "b"], ["a*b*a^-1*b^-1"])
        loose = metric_certificate(Z2, Fraction(1, 2))
        assert loose.passed
        for cert in (loose, rips_trivial.certificate):
            with pytest.raises(CertificateRequired):
                DehnSolver(Z2, certificate=cert)
        with pytest.raises(CertificateRequired):
            DehnSolver(Z2)

    def test_certificate_of_other_relators_rejected(self):
        # <a,b,c,d | a*b*c*d> is C'(1/6) and its one core has the length of
        # the commutator's, so only the scanned cores tell the two apart;
        # the commutator relator makes a^2 b^2 a^-2 b^-2 trivial, which
        # Dehn's algorithm cannot see
        Z2 = presentation(["a", "b", "c", "d"], ["a*b*a^-1*b^-1"])
        foreign = metric_certificate(presentation(["a", "b", "c", "d"], ["a*b*c*d"]))
        assert foreign.passed and foreign.relator_lengths == (4,)
        with pytest.raises(CertificateRequired):
            DehnSolver(Z2, certificate=foreign)

    def test_wrapper_and_trace(self, rips_trivial):
        G = rips_trivial.gamma
        res = dehn_word_problem(G, G.relators[1], collect_trace=True)
        assert res.trivial and res.trace

    def test_deterministic(self, rips_trivial):
        G = rips_trivial.gamma
        solver = DehnSolver(G, certificate=rips_trivial.certificate)
        rng = random.Random(43)
        w = conjugate_product(G, 3, rng)
        r1 = solver.solve(w)
        r2 = solver.solve(w)
        assert r1.factors == r2.factors and r1.residual == r2.residual


def nested_product(P, count, rng, conj_len=3):
    """Like `conjugate_product`, but each conjugate is inserted at a seeded
    position of the word built so far, so relators nest inside each other
    and a replacement can complete a match that starts before it."""
    acc = ()
    for _ in range(count):
        c = conjugate_product(P, 1, rng, conj_len).letters
        k = rng.randrange(len(acc) + 1)
        acc = acc[:k] + c + acc[k:]
    return free_reduce(Word(P.alphabet, acc))


def spliced(w, rng):
    """w with one generator letter (either sign) inserted at a seeded
    position, freely reduced."""
    k = rng.randrange(len(w) + 1)
    letter = (rng.randrange(w.alphabet.rank), rng.choice((1, -1)))
    return free_reduce(Word(w.alphabet, w.letters[:k] + (letter,) + w.letters[k:]))


def dehn_digest(solver, words):
    """sha256 over everything the replacement rule decides: trace, rendered
    certificate factors, residual and replacement count, word by word."""
    h = hashlib.sha256()
    for w in words:
        res = solver.solve(w, collect_trace=True)
        factors = [(render_word(g), t, s) for g, t, s in res.factors]
        h.update(repr((res.trace, factors, render_word(res.residual),
                       res.replacements)).encode())
    return h.hexdigest()


# recorded with the rolling-hash solver this rule was first written for;
# a change to where a match starts or ends, to the rescan point or to the
# certificate factors changes a digest (on C'(1/6) input no two slots
# share a more-than-half prefix, so each position has at most one
# candidate and the tie-breaks never fire)
DEHN_GOLDEN = {
    "rips_trivial": "cb026b91225ded9838cf2e224c7ad3702825d68d83eefa022156fc825b450181",
    "rips_higman": "d36257fb597f30dc564115511f7dd03c80274924bc8fe3fb307b600611f11cf9",
}


@pytest.mark.parametrize("name", sorted(DEHN_GOLDEN))
def test_dehn_replacement_rule_golden(name, request):
    out = request.getfixturevalue(name)
    G = out.gamma
    rng = random.Random(4711)
    words = []
    while len(words) < 40:
        for make in (conjugate_product, nested_product):
            w = make(G, rng.randint(2, 6), rng, conj_len=6)
            if w.letters:
                words += [w, spliced(w, rng)]
    solver = DehnSolver(G, certificate=out.certificate)
    assert dehn_digest(solver, words) == DEHN_GOLDEN[name]


@pytest.fixture(scope="module")
def trivial_solver(rips_trivial):
    return DehnSolver(rips_trivial.gamma, certificate=rips_trivial.certificate)


_letters = st.lists(st.tuples(st.integers(0, 3), st.sampled_from((1, -1))), max_size=4)


@settings(max_examples=100, deadline=None, database=None)
@given(conjugates=st.lists(st.tuples(st.integers(0, 6), st.booleans(), _letters),
                           min_size=1, max_size=6),
       splice_at=st.integers(0, 10**6), generator=st.integers(0, 3),
       inverse=st.booleans())
def test_fuzz_dehn_certificate_checks(trivial_solver, conjugates, splice_at, generator,
                                      inverse):
    """Products of relator conjugates reduce to 1 with a certificate that
    re-expands to the word; splicing in one generator letter gives a
    conjugate of that generator, which is nontrivial because a single
    letter is never more than half of a relator."""
    G = trivial_solver.presentation
    acc = G.alphabet.identity()
    for t, inv, conj in conjugates:
        r = G.relators[t % len(G.relators)]
        c = Word(G.alphabet, tuple(conj))
        acc = acc.concat(c).concat(r.inverse() if inv else r).concat(c.inverse())
    w = free_reduce(acc)
    res = trivial_solver.solve(w)
    assert res.trivial and dehn_certificate_holds(res, G, w)
    assert len(res.factors) == res.replacements
    k = splice_at % (len(w) + 1)
    letter = (generator, -1 if inverse else 1)
    twin = free_reduce(Word(G.alphabet, w.letters[:k] + (letter,) + w.letters[k:]))
    res = trivial_solver.solve(twin)
    assert not res.trivial


@settings(max_examples=100, deadline=None, database=None)
@given(conjugates=st.lists(st.tuples(st.integers(0, 6), st.booleans(), _letters), max_size=4),
       tail=_letters,
       pairs=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 3), st.sampled_from((1, -1))),
                      min_size=1, max_size=4))
def test_fuzz_dehn_unreduced_input(trivial_solver, conjugates, tail, pairs):
    """A word with letter-inverse pairs spliced in is decided exactly like
    its free reduction, and every returned word is a valid word."""
    G = trivial_solver.presentation
    alph = G.alphabet
    letters = ()
    for t, inv, conj in conjugates:
        r = G.relators[t % len(G.relators)]
        c = Word(alph, tuple(conj))
        letters += c.concat(r.inverse() if inv else r).concat(c.inverse()).letters
    letters += tuple(tail)
    for at, i, e in pairs:
        k = at % (len(letters) + 1)
        letters = letters[:k] + ((i, e), (i, -e)) + letters[k:]
    w = Word(alph, letters)
    res = trivial_solver.solve(w, collect_trace=True)
    ref = trivial_solver.solve(free_reduce(w), collect_trace=True)
    assert res.trivial == ref.trivial and res.residual == ref.residual
    assert res.factors == ref.factors and res.replacements == ref.replacements
    assert res.trace == ref.trace
    if not res.replacements:
        assert res.residual == free_reduce(w)
    for u in (res.residual, *(g for g, _, _ in res.factors)):
        assert type(u.letters) is tuple and u == Word(alph, u.letters)
    # letters handed over as a list still give a hashable tuple residual
    listed = trivial_solver.solve(Word(alph, list(free_reduce(w).letters)))
    assert type(listed.residual.letters) is tuple and listed.residual == ref.residual


def test_dehn_without_relators():
    # the free group: a word is trivial iff it freely reduces to 1
    F = presentation(["a", "b"], [])
    solver = DehnSolver(F)
    for text, trivial in (("1", True), ("a*a^-1", True), ("a*b*b^-1*a^-1", True),
                          ("a*b*a^-1", False), ("b^-1*a*a^-1*b*a", False)):
        w = F.word(text)
        res = solver.solve(w)
        assert res.trivial == trivial and res.residual == free_reduce(w)
        assert res.replacements == 0 and res.factors == ()
    with pytest.raises(AlphabetMismatchError):
        solver.solve(Alphabet(["a", "c"]).gen("a"))


def test_dehn_recheck_refuses_wrong_factors(rips_trivial):
    """Corrupting the solver's own conjugator texts makes every factor
    conjugator wrong by a trailing letter; the re-check expands the
    returned factors over P's relators, so it must refuse them (by a
    raise, which python -O keeps)."""
    G = rips_trivial.gamma
    solver = DehnSolver(G, certificate=rips_trivial.certificate)
    good = solver.solve(G.relators[1])
    assert good.trivial
    assert NormalClosureElement.expand(G, good.factors) == G.relators[1].text
    # the valid certificate with every sign flipped does not expand to the word
    flipped = tuple((g, t, -s) for g, t, s in good.factors)
    assert NormalClosureElement.expand(G, flipped) != G.relators[1].text
    x = Word(G.alphabet, ((0, 1),)).text
    solver.conj_inv = [c + x for c in solver.conj_inv]
    assert not solver.solve(G.alphabet.gen("x")).trivial  # no certificate, no re-check
    for r in G.relators[:3]:
        with pytest.raises(AssertionError, match=r"\(internal error\)"):
            solver.solve(r)


def test_dehn_relators_not_cyclically_reduced():
    # each relator is a conjugate of its cyclic core, so a factor's
    # conjugator carries the relator's own conjugator and the re-check
    # must expand P's relators, not the cores the solver scans
    P = presentation(list("abcdefghkmnp"), ["g*a*b*c*d*e*f*g^-1", "a^-1*g*h*k*m*n*p*a"])
    solver = DehnSolver(P)
    rng = random.Random(44)
    done = 0
    while done < 30:
        w = conjugate_product(P, rng.randint(1, 4), rng)
        if w.letters:
            res = solver.solve(w)
            assert res.trivial and dehn_certificate_holds(res, P, w)
            done += 1


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data(), common=st.text("ab", max_size=80), i=st.integers(0, 5),
       j=st.integers(0, 5))
@example(data=None, common="ab" * 20, i=0, j=0)  # the match runs to m
def test_extend_matches_letter_loop(data, common, i, j):
    """`_agreement` against a plain letter loop, from every known length h
    up to any bound m: m == h, a mismatch right after the first h letters,
    and matches that run to m; run back over the reversed texts, the
    search must give the same length."""
    a = "x" * i + common + "ab"
    b = "y" * j + common + ("ab" if data is None or data.draw(st.booleans()) else "ba")
    top = min(len(a) - i, len(b) - j)
    for m in ({top} if data is None else {top, data.draw(st.integers(0, top))}):
        for h in range(min(m, len(common)) + 1):
            want = h
            while want < m and a[i + want] == b[j + want]:
                want += 1
            assert _agreement(a, i, b, j, h, m) == want
            assert _agreement(a[::-1], len(a) - i, b[::-1], len(b) - j, h, m, back=True) == want


def _mixed_lengths():
    """C'(1/6) with relators of 13, 201 and 201 letters: k = 7, so seeds are
    4 letters long, and the seed a^4 starts 152 slots."""
    longs = ["[a^9, b^10]*[a^11, b^12]*[a^13, b^14]*[a^15, b^16]*c",
             "[b^9, a^10]*[b^11, a^12]*[b^13, a^14]*[b^15, a^16]*d"]
    return presentation(list("abcd"), ["b*c*d^-2*b*d*a^-1*c*a^-1*d^2*b^-1*d"] + longs)


def _gamma_solver(out):
    return DehnSolver(out.gamma, certificate=out.certificate)


@pytest.fixture(scope="module")
def scanners(rips_trivial, rips_higman):
    solvers = {"rips_trivial": _gamma_solver(rips_trivial),
               "rips_higman": _gamma_solver(rips_higman),
               "mixed_lengths": DehnSolver(_mixed_lengths())}
    return {name: (solver, dehn_prefix_index(solver)) for name, solver in solvers.items()}


def test_mixed_lengths_seeds_are_shared(scanners):
    solver, _ = scanners["mixed_lengths"]
    assert (solver.k, solver.q, solver.stride) == (7, 4, 4)
    assert max(len(sids) for sids in solver.by_seed.values()) > 100


_fragments = st.lists(st.tuples(st.sampled_from(("slot", "near-miss", "splice")),
                                st.integers(0, 10**6), st.integers(0, 10**6),
                                st.integers(0, 10**6)), max_size=8)


@pytest.mark.parametrize("name", ["rips_trivial", "rips_higman", "mixed_lengths"])
@settings(max_examples=150, deadline=None, database=None)
@given(fragments=_fragments, start=st.integers(0, 10**6))
def test_fuzz_strided_scan_matches_every_position_probe(scanners, name, fragments, start):
    """The strided seed scan finds the same (position, match length, slot
    id) as one probe per position, on texts of relator fragments (up to
    twice around the relator), fragments with one letter changed and
    spliced letters, from any start."""
    solver, by_prefix = scanners[name]
    letters = sorted(set("".join(solver.texts)))
    parts = []
    for kind, x, y, z in fragments:
        if kind == "splice":
            parts.append("".join(letters[(x + d) % len(letters)] for d in range(1 + y % 3)))
            continue
        tid, o, L = solver.slots[x % len(solver.slots)]
        size = (L // 2, L // 2 + 1, L, y % (2 * L + 1))[y % 4]  # around more than half
        frag = (solver.texts[tid][:L] * 3)[o:o + size]
        if kind == "near-miss" and frag:
            at = z % len(frag)
            other = [c for c in letters if c != frag[at]]
            frag = frag[:at] + other[z % len(other)] + frag[at + 1:]
        parts.append(frag)
    cur = "".join(parts)
    at = start % (len(cur) + 1)
    assert solver._find(cur, at) == reference_dehn_find(solver, by_prefix, cur, at)


@pytest.mark.parametrize("name", ["rips_trivial", "rips_higman", "mixed_lengths"])
def test_strided_scan_from_every_start(scanners, name):
    """A match of exactly k letters between fillers and at the end of the
    text, scanned from every start: every phase of the probes, a match
    just before or at the start and a match only the last probe sees."""
    solver, by_prefix = scanners[name]
    tid, o, L = next(slot for slot in solver.slots if slot[2] // 2 + 1 == solver.k)
    match = solver.texts[tid][o:o + solver.k]
    rng = random.Random(46)
    letters = sorted(set("".join(solver.texts)))
    filler = "".join(rng.choice(letters) for _ in range(2 * solver.stride + 1))
    for cur in (filler + match + filler[::-1], filler + match):
        starts = range(len(cur) + 1)
        found = [solver._find(cur, at) for at in starts]
        assert found == [reference_dehn_find(solver, by_prefix, cur, at) for at in starts]
        assert found[len(filler)][0] == len(filler)


class CountingDict(dict):
    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


def test_scan_only_word_probes_once_per_stride(rips_higman):
    """A 20k-letter word with no more-than-half of a relator costs at most
    ceil(n / s) + 1 seed lookups, s the stride, where one probe per
    position would make n - k + 1."""
    solver = _gamma_solver(rips_higman)
    solver.by_seed = CountingDict(solver.by_seed)
    w = random_reduced_word(rips_higman.gamma.alphabet, 24_000, random.Random(45))
    res = solver.solve(w)
    n = len(w)
    assert res.replacements == 0 and not res.trivial and n >= 20_000
    assert 0 < solver.by_seed.lookups <= -(-n // solver.stride) + 1
