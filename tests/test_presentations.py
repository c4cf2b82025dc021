import random
import tracemalloc

import pytest

from presforge.freewords import (
    MAX_POWER_LETTERS,
    Alphabet,
    MalformedWordError,
    Word,
    free_reduce,
    parse_word,
    relabel,
    render_word,
)
from presforge.homology import h1
from presforge.presentations import (
    FinitePresentation,
    PresentationError,
    direct_product_presentation,
    parse_presentation,
    parse_relator,
    presentation,
    render_presentation,
)

from oracles import (
    NotEliminableError,
    amalgamated_product,
    direct_sum,
    free_product,
    hnn_extension,
    morphism_image,
    rename_generators,
    tietze_eliminate_generator,
)


def rand_presentation(rng, max_gens=3, max_rels=3, max_len=6):
    n = rng.randint(1, max_gens)
    gens = [f"g{i}" for i in range(n)]
    alph = Alphabet(gens)
    rels = []
    for _ in range(rng.randrange(max_rels + 1)):
        w = free_reduce(Word(alph, tuple(
            (rng.randrange(n), rng.choice((1, -1)))
            for _ in range(rng.randint(1, max_len)))))
        if w.letters:
            rels.append(w)
    return FinitePresentation(alph, tuple(rels))


class TestGrammar:
    def test_basic(self):
        P = parse_presentation("< a, b | a*b*a^-1*b^-2 >")
        assert P.alphabet.symbols == ("a", "b") and len(P.relators) == 1

    def test_free_group(self):
        P = parse_presentation("< a | >")
        assert P.alphabet.rank == 1 and P.relators == ()

    def test_equation_normalized(self):
        P = parse_presentation("< a, b | a*b*a^-1 = b^2 >")
        assert render_word(P.relators[0]) == "a*b*a^-1*b^-2"

    def test_roundtrip(self):
        rng = random.Random(11)
        for _ in range(100):
            P = rand_presentation(rng)
            assert parse_presentation(render_presentation(P)) == P

    def test_higman_text_matches_builder(self, higman_J):
        text = "< a, b, c, d | a*b*a^-1=b^2, b*c*b^-1=c^2, c*d*c^-1=d^2, d*a*d^-1=a^2 >"
        assert parse_presentation(text) == higman_J

    def test_duplicate_generator(self):
        with pytest.raises(Exception) as e:
            parse_presentation("< a, a | >")
        assert "duplicate" in str(e.value)

    def test_unknown_generator_in_relator(self):
        with pytest.raises(Exception) as e:
            parse_presentation("< a | a*q >")
        assert "q" in str(e.value)

    def test_syntax_error_reports_position(self):
        with pytest.raises(Exception) as e:
            parse_presentation("< a |\n a ^ x >")
        assert "line 2" in str(e.value)

    def test_trivial_relator_rejected(self):
        with pytest.raises(PresentationError):
            parse_presentation("< a | a*a^-1 >")

    def test_unreduced_relator_rejected_however_built(self):
        """Relators whose reducedness no constructor proved are scanned:
        from unchecked text, from letters, and relabelled with a generator
        deleted from a word known to be reduced."""
        alph = Alphabet(["a", "b"])
        aba = free_reduce(parse_word(alph, "a*b*a^-1"))
        assert aba.is_reduced()
        for r in (Word._trusted(alph, parse_word(alph, "a*a^-1*b").text),
                  Word(alph, [(1, 1), (0, 1), (0, -1)]),
                  relabel([aba], alph, ["a", None])[0]):
            with pytest.raises(PresentationError, match="not freely reduced"):
                FinitePresentation(alph, (r,))

    @pytest.mark.parametrize("text, message", [
        ("< ", "expected generator name at end of input"),
        ("< 3 | >", "expected generator name, found '3' at line 1, column 3"),
        ("< a, | >", "expected generator name, found '|' at line 1, column 6"),
        ("< a", "unterminated generator list at end of input"),
        ("< a b | >", "expected ',' or '|', found 'b' at line 1, column 5"),
        ("< a,\n  a | >", "duplicate generator 'a' at line 2, column 3"),
        ("< a | a", "unterminated relator list at end of input"),
        ("< a | a ) >", "expected ',' or '>', found ')' at line 1, column 9"),
        ("< a | a > b", "trailing input after '>' at line 1, column 11"),
        ("< a | a #", "syntax error at line 1, column 9: unexpected '#'"),
        ("< a | (a^2)^99999999999999999999 >", "exponent too large at line 1, column 13"),
        pytest.param("< a | a^" + "9" * 5000 + " >", "exponent too large at line 1, column 9",
                     id="5000-digit-exponent"),
    ])
    def test_malformed_presentation_messages(self, text, message):
        with pytest.raises(MalformedWordError) as e:
            parse_presentation(text)
        assert str(e.value) == message

    def test_trailing_tokens_after_relator_and_word(self):
        AB = Alphabet(["a", "b"])
        with pytest.raises(MalformedWordError) as e:
            parse_relator(AB, "a > b")
        assert str(e.value) == "trailing '>' after relator at line 1, column 3"
        with pytest.raises(MalformedWordError) as e:
            parse_relator(AB, "a = b = a")
        assert str(e.value) == "trailing '=' after relator at line 1, column 7"
        with pytest.raises(MalformedWordError) as e:
            parse_word(AB, "a , b")
        assert str(e.value) == "trailing ',' after word at line 1, column 3"

    def test_power_letter_budget(self):
        # a^1000000000 would be about 2 GB of text; it is refused unbuilt
        tracemalloc.start()
        try:
            with pytest.raises(MalformedWordError) as e:
                parse_presentation("< a | a^1000000000 >")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(e.value) == "exponent too large at line 1, column 9" and peak < 2**20
        n = MAX_POWER_LETTERS // 2
        assert len(parse_presentation(f"< a, b | (a*b)^{n} >").relators[0]) == 2 * n
        with pytest.raises(MalformedWordError, match="exponent too large at line 1, column 16"):
            parse_presentation(f"< a, b | (a*b)^{n + 1} >")

    def test_power_of_unreduced_base_builds_no_letter_stack(self):
        # g c^n g^-1 is written from the base's cyclic core: 333,335 letters
        # in about 0.7 MB of text, with no per-letter reduction
        tracemalloc.start()
        try:
            P = parse_presentation("< a, b | (a*b*a^-1)^333333 >")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert P.relators[0] == P.word("a") * P.word("b") ** 333333 * P.word("a^-1")
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("text, column", [
        # ten powers of 10^6 letters each: 10,000,001 letters unbounded
        ("< a, b | " + "*".join(["a^1000000", "b^1000000"] * 5) + "*a >", 22),
        # each nested commutator doubles the word: 2,097,152 letters unbounded
        ("< a, b | " + "[" * 20 + "a,b]" + ",b]" * 19 + " >", 87),
    ], ids=["ten-powers", "nested-commutators"])
    def test_word_letter_budget(self, text, column):
        tracemalloc.start()
        try:
            with pytest.raises(MalformedWordError) as e:
                parse_presentation(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(e.value) == f"word too long at line 1, column {column}" and peak < 16 * 2**20


class TestHigman:
    def test_counts(self, higman_J, higman_D):
        assert higman_J.alphabet.rank == 4 and len(higman_J.relators) == 4
        assert higman_D.alphabet.rank == 3 and len(higman_D.relators) == 2

    def test_aspherical_flags(self, higman_J, higman_D):
        assert higman_J.aspherical and higman_D.aspherical

    def test_h1(self, higman_J):
        assert h1(higman_J).group.is_trivial


def higman_amalgam_presentation():
    """The six-generator amalgam of two copies of D identified along the
    free subgroups <alpha_i, gamma_i>: alpha_1 = gamma_2, gamma_1 = alpha_2."""
    D1 = presentation(["alpha_1", "beta_1", "gamma_1"],
                      ["alpha_1*beta_1*alpha_1^-1=beta_1^2",
                       "beta_1*gamma_1*beta_1^-1=gamma_1^2"],
                      aspherical="cyclic HNN tower")
    D2 = presentation(["alpha_2", "beta_2", "gamma_2"],
                      ["alpha_2*beta_2*alpha_2^-1=beta_2^2",
                       "beta_2*gamma_2*beta_2^-1=gamma_2^2"],
                      aspherical="cyclic HNN tower")
    return amalgamated_product(
        D1, D2,
        [(D1.word("alpha_1"), D2.word("gamma_2")),
         (D1.word("gamma_1"), D2.word("alpha_2"))],
        identified_subgroups_free=True)


class TestTietze:
    def test_simple_elimination(self):
        P = presentation(["x", "y"], ["x*y^-1", "x*y*x"])
        out = tietze_eliminate_generator(P, "x", 0)
        assert out.presentation.alphabet.symbols == ("y",)
        assert [render_word(r) for r in out.presentation.relators] == ["y^3"]

    def test_not_eliminable(self):
        P = presentation(["x", "y"], ["x^2*y"])
        with pytest.raises(NotEliminableError):
            tietze_eliminate_generator(P, "x", 0)

    def test_morphism_pair(self):
        P = presentation(["x", "y"], ["x*y^-2", "y^3*x"])
        out = tietze_eliminate_generator(P, "x", 0)
        # substituting forward then reading back is consistent on relators
        img = morphism_image(out.to_new, P.relators[1])
        assert img in out.presentation.relators

    def test_amalgam_simplifies_to_higman(self, higman_J):
        amalgam = higman_amalgam_presentation()
        assert amalgam.alphabet.rank == 6 and len(amalgam.relators) == 6
        # eliminate alpha_2 via gamma_1*alpha_2^-1 and gamma_2 via alpha_1*gamma_2^-1
        step1 = tietze_eliminate_generator(
            amalgam, "alpha_2",
            next(i for i, r in enumerate(amalgam.relators)
                 if "alpha_2" in render_word(r) and len(r) == 2))
        P1 = step1.presentation
        step2 = tietze_eliminate_generator(
            P1, "gamma_2",
            next(i for i, r in enumerate(P1.relators)
                 if "gamma_2" in render_word(r) and len(r) == 2))
        P2 = step2.presentation
        renamed = rename_generators(
            P2, {"alpha_1": "a", "beta_1": "b", "gamma_1": "c", "beta_2": "d"})
        # same 4-generator presentation, up to relator order and the renaming
        target = rename_generators(renamed, {})  # normalize type
        assert set(map(render_word, target.relators)) == \
            set(map(render_word, higman_J.relators))
        assert sorted(target.alphabet.symbols) == sorted(higman_J.alphabet.symbols)

    def test_preserves_h1(self):
        rng = random.Random(12)
        tried = 0
        for _ in range(200):
            P = rand_presentation(rng, max_gens=3, max_rels=3)
            for k, r in enumerate(P.relators):
                for g in P.alphabet.symbols:
                    gi = P.alphabet.index(g)
                    try:
                        out = tietze_eliminate_generator(P, g, k)
                    except NotEliminableError:
                        continue
                    assert h1(out.presentation).group == h1(P).group
                    tried += 1
                    break
                break
        assert tried >= 20


class TestFreeProduct:
    def test_basic(self):
        P = free_product(presentation(["a"], []), presentation(["b"], []))
        assert P.alphabet.symbols == ("a", "b") and P.relators == ()

    def test_two_higman_copies(self, higman_J):
        other = rename_generators(higman_J, {s: s + "2" for s in "abcd"})
        P = free_product(higman_J, other)
        assert P.alphabet.rank == 8 and len(P.relators) == 8

    def test_name_clash(self, higman_J):
        with pytest.raises(PresentationError):
            free_product(higman_J, higman_J)
        P = free_product(higman_J, higman_J, auto_rename=True)
        assert P.alphabet.rank == 8 and "a_1" in P.alphabet

    def test_h1_additive(self):
        rng = random.Random(13)
        for _ in range(20):
            P1, P2 = rand_presentation(rng), rand_presentation(rng)
            P = free_product(P1, P2, auto_rename=True)
            assert h1(P).group == direct_sum(h1(P1).group, h1(P2).group)


class TestAmalgam:
    def test_single_pair(self):
        A, B = presentation(["a"], []), presentation(["b"], [])
        P = amalgamated_product(A, B, [(A.word("a"), B.word("b"))])
        assert [render_word(r) for r in P.relators] == ["a*b^-1"]
        assert h1(P).group.rank == 1 and not h1(P).group.torsion

    def test_relator_count(self, higman_D):
        other = rename_generators(higman_D, {s: s + "2" for s in higman_D.alphabet.symbols})
        P = amalgamated_product(higman_D, other,
                                [(higman_D.word("alpha"), other.word("gamma2"))])
        assert len(P.relators) == 2 + 2 + 1

    def test_empty_pairs_rejected(self, higman_D):
        with pytest.raises(PresentationError):
            amalgamated_product(higman_D, higman_D, [], auto_rename=True)

    def test_asphericity_propagation(self):
        amalgam = higman_amalgam_presentation()
        assert amalgam.aspherical and "asserted" in amalgam.aspherical


class TestHNN:
    def test_d_from_two_hnn_steps(self, higman_D):
        Z = presentation(["gamma"], [], aspherical="free presentation")
        step1 = hnn_extension(Z, "beta", [(Z.word("gamma"), Z.word("gamma^2"))],
                              associated_subgroups_free=True)
        step2 = hnn_extension(step1, "alpha",
                              [(step1.word("beta"), step1.word("beta^2"))],
                              associated_subgroups_free=True)
        assert step2.alphabet.rank == 3 and len(step2.relators) == 2
        # the two relator sets agree: beta gamma beta^-1 gamma^-2, alpha beta alpha^-1 beta^-2
        assert set(map(render_word, step2.relators)) == \
            set(map(render_word, higman_D.relators))
        assert step2.aspherical

    def test_commuting_stable_letter(self):
        P = presentation(["a"], [])
        Q = hnn_extension(P, "t", [(P.word("a"), P.word("a"))])
        assert [render_word(r) for r in Q.relators] == ["t*a*t^-1*a^-1"]
        assert h1(Q).group.rank == 2

    def test_relator_count_and_clash(self, higman_D):
        Q = hnn_extension(higman_D, "t",
                          [(higman_D.word("alpha"), higman_D.word("beta")),
                           (higman_D.word("gamma"), higman_D.word("gamma"))])
        assert len(Q.relators) == len(higman_D.relators) + 2
        with pytest.raises(PresentationError):
            hnn_extension(higman_D, "alpha", [])


class TestDirectProduct:
    def test_rank_one_factors(self):
        P = direct_product_presentation(presentation(["a"], []), presentation(["b"], []))
        assert P.alphabet.symbols == ("a_L", "b_R")
        assert [render_word(r) for r in P.relators] == ["a_L*b_R*a_L^-1*b_R^-1"]

    def test_count_formula(self):
        rng = random.Random(14)
        gens = [f"x{i}" for i in range(7)]
        alph = Alphabet(gens)
        rels = []
        while len(rels) < 28:
            w = free_reduce(Word(alph, tuple((rng.randrange(7), rng.choice((1, -1)))
                                             for _ in range(5))))
            if w.letters:
                rels.append(w)
        G = FinitePresentation(alph, tuple(rels))
        P = direct_product_presentation(G, G)
        assert P.alphabet.rank == 14 and len(P.relators) == 28 + 28 + 49

    def test_h1_additive(self):
        rng = random.Random(15)
        for _ in range(20):
            P1, P2 = rand_presentation(rng), rand_presentation(rng)
            P = direct_product_presentation(P1, P2)
            assert h1(P).group == direct_sum(h1(P1).group, h1(P2).group)
