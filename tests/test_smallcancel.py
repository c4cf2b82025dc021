import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from presforge.freewords import Word, free_reduce, render_word
from presforge.presentations import presentation
from presforge.smallcancel import (
    CertificateRequired,
    DehnSolver,
    dehn_word_problem,
    metric_certificate,
    piece_table,
    threshold_scan,
)

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
            assert res.verify_certificate(G, w)
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
    assert res.trivial and res.verify_certificate(G, w)
    assert len(res.factors) == res.replacements
    k = splice_at % (len(w) + 1)
    letter = (generator, -1 if inverse else 1)
    twin = free_reduce(Word(G.alphabet, w.letters[:k] + (letter,) + w.letters[k:]))
    res = trivial_solver.solve(twin)
    assert not res.trivial
