import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from presforge.constructions import (
    ConstructionError,
    PairWord,
    acyclic_subdirect,
    conjugacy_gadget,
    delta_amalgam,
    fibre_generators,
    free_product_of_copies,
    kill_finite_quotients,
    rips_wise,
    super_perfectify,
)
from presforge.freewords import Alphabet, Word, apply_map, free_reduce, render_word
from presforge.homology import h1, h2_aspherical
from presforge.presentations import (
    FinitePresentation,
    PresentationMorphism,
    direct_product_presentation,
    higman_presentations,
    presentation,
)
from presforge.quotients import finite_quotient_certificate, todd_coxeter
from presforge.smallcancel import DehnSolver

from oracles import (
    amalgamated_product,
    divisor_primitive_root,
    fibre_membership,
    gadget_conjugacy_decision,
    is_perfect,
    killed_quotient,
    morphism_image,
    pair_to_product_word,
    primitive_root,
    product_word_to_pair,
    reduce_pair,
    rename_generators,
    s_plus,
    tietze_eliminate_generator,
    word_problem_oracle,
)


def rand_reduced(alph, n, rng):
    return free_reduce(Word(alph, tuple(
        (rng.randrange(alph.rank), rng.choice((1, -1))) for _ in range(n))))


class TestRips:
    def test_counts_free_rank_one(self):
        out = rips_wise(presentation(["x"], []))
        assert out.gamma.alphabet.rank == 4
        assert len(out.gamma.relators) == 0 + 6 * 1

    def test_counts_higman(self, rips_higman, higman_J):
        assert rips_higman.gamma.alphabet.rank == 7
        assert len(rips_higman.gamma.relators) == len(higman_J.relators) + 6 * 4

    def test_certificate_passes(self, rips_trivial, rips_higman):
        assert rips_trivial.certificate.passed
        assert rips_higman.certificate.passed

    def test_killing_recovers_relators(self, rips_higman, higman_J):
        # each new relator maps to the matching input relator or dies
        for t, r in enumerate(rips_higman.gamma.relators):
            img = morphism_image(rips_higman.p, r)
            if t < len(higman_J.relators):
                assert img == higman_J.relators[t]
            else:
                assert not img.letters
        assert killed_quotient(rips_higman) == higman_J

    def test_killing_preserves_h1_on_corpus(self, higman_D, icosahedral):
        for P in (higman_D, icosahedral, presentation(["x"], ["x^2"])):
            out = rips_wise(P)
            assert h1(killed_quotient(out)).group == h1(P).group

    def test_kernel_names_avoid_clashes(self):
        P = presentation(["a1", "a2"], ["a1*a2"])
        out = rips_wise(P)
        assert set(out.kernel_generators).isdisjoint(P.alphabet.symbols)

    def test_escalation_on_hostile_input(self):
        # two identical long relators share themselves as a piece until the
        # padding dominates
        P = presentation(["x", "y"], ["(x*y)^3", "(y*x)^3"])
        out = rips_wise(P, initial_blocks=4)
        assert out.certificate.passed and out.blocks == 16
        # a^60 outruns the default 16 blocks' padding, not 32's
        out = rips_wise(presentation(["a", "b"], ["a^60*b", "a^60*b^2"]))
        assert out.certificate.passed and out.blocks == 32


class TestKillFiniteQuotients:
    def test_counts_four_generators(self):
        P = presentation(["w", "x", "y", "z"],
                         ["w*x*y*z", "w^2*x^-1", "y^3", "z*w*z^-1*w^-2"])
        kr = kill_finite_quotients(P)
        assert kr.pi_prime.alphabet.rank == 4 + 16
        assert len(kr.pi_prime.relators) == 4 + 16 + 4
        assert kr.simplified.alphabet.rank == 16
        assert len(kr.simplified.relators) == 20

    def test_simplified_form_is_substitution(self):
        P = presentation(["x", "y"], ["x*y*x^-1*y^-2"])
        kr = kill_finite_quotients(P)
        subst = {x: kr.simplified.alphabet.gen(y)
                 for x, y in zip(P.alphabet.symbols, kr.copy_distinguished)}
        expected = [apply_map(r, subst, target=kr.simplified.alphabet)
                    for r in P.relators]
        assert list(kr.v_words) == expected
        # the simplified form is exactly <copies | rewritten relators, copy relators>
        copy_rels = []
        for copy in kr.copies:
            imap = {g: kr.simplified.alphabet.gen(n)
                    for g, n in zip(kr.attach.alphabet.symbols, copy)}
            copy_rels.extend(apply_map(r, imap, target=kr.simplified.alphabet)
                             for r in kr.attach.relators)
        assert list(kr.simplified.relators) == expected + copy_rels
        assert kr.simplified.alphabet.symbols == tuple(
            n for copy in kr.copies for n in copy)

    def test_input_relator_shaped_like_an_identification(self):
        # a^-1*b has the shape x^-1*y of the identification relators
        P = presentation(["a", "b"], ["a^-1*b", "b^3"])
        kr = kill_finite_quotients(P)
        assert [render_word(v) for v in kr.v_words] == ["d_1^-1*d_2", "d_2^3"]
        # oracle: Tietze elimination against the true identification relators
        S = kr.pi_prime
        for x, y in zip(P.alphabet.symbols, kr.copy_distinguished):
            S = tietze_eliminate_generator(
                S, x, S.relators.index(S.word(f"{x}^-1*{y}"))).presentation
        assert S == kr.simplified
        assert S.aspherical == kr.simplified.aspherical
        theta = fibre_generators("theta", kill=kr)
        assert [render_word(pw.left) for pw in theta.elements[-2:]] == \
            ["d_1^-1*d_2", "d_2^3"]

    def test_output_is_perfect(self, kill_trivial):
        assert is_perfect(kill_trivial.pi_prime)
        assert is_perfect(kill_trivial.simplified)

    def test_trivial_input_collapses(self, kill_trivial):
        table = todd_coxeter(kill_trivial.pi_prime, (), max_cosets=100_000)
        assert table.complete and table.index == 1

    def test_no_small_quotients(self, kill_trivial):
        cert = finite_quotient_certificate(kill_trivial.pi_prime, 5)
        assert cert.certified

    def test_h1_equal_between_forms(self):
        for rel in ("x^2", "x^5"):
            kr = kill_finite_quotients(presentation(["x"], [rel]))
            assert h1(kr.pi_prime).group == h1(kr.simplified).group

    def test_asphericity_flag_conditional(self, trivial_pres):
        kr = kill_finite_quotients(trivial_pres)
        assert kr.pi_prime.aspherical  # input was flagged
        kr2 = kill_finite_quotients(presentation(["x"], ["x"]))
        assert kr2.pi_prime.aspherical is None  # input was not

    def test_h2_rank_formula(self, trivial_pres):
        kr = kill_finite_quotients(trivial_pres)
        m = len(kr.pi_prime.relators)
        n = kr.pi_prime.alphabet.rank
        assert h2_aspherical(kr.pi_prime).group.rank == m - n == 1


class TestSuperPerfectify:
    def test_trivial_input_collapses(self, trivial_pres):
        sp = super_perfectify(trivial_pres)
        table = todd_coxeter(sp.presentation, (), max_cosets=100_000)
        assert table.complete and table.index == 1

    def test_h1_zero_on_corpus(self, trivial_pres):
        for P in (trivial_pres, presentation(["x"], ["x^2"]),
                  presentation(["x", "y"], ["x*y", "x^3"])):
            sp = super_perfectify(P)
            assert h1(sp.presentation).group.is_trivial

    def test_fixed_generator_set_across_family(self):
        ps = [super_perfectify(presentation(["x"], [rel]))
              for rel in ("x", "x^3", "x^5")]
        gens = {sp.presentation.alphabet.symbols for sp in ps}
        assert len(gens) == 1
        counts = {len(sp.presentation.relators) for sp in ps}
        assert len(counts) == 1

    def test_no_small_quotients(self):
        sp = super_perfectify(presentation(["x"], ["x^2"]))
        assert finite_quotient_certificate(sp.presentation, 4).certified


class TestFibreGenerators:
    def test_s_cardinality_and_membership(self, icosahedral):
        gs = fibre_generators("S", quotient=icosahedral)
        assert len(gs) == 2 + 3
        oracle = word_problem_oracle(icosahedral)
        p = PresentationMorphism(
            gs.factor, icosahedral,
            {s: icosahedral.alphabet.gen(s) for s in gs.factor.alphabet.symbols},
            witness="free presentation projects onto the quotient")
        for pw in gs.elements:
            assert fibre_membership(pw, p, oracle)

    def test_u_cardinality_and_membership(self, rips_trivial):
        gs = fibre_generators("U", rips=rips_trivial)
        assert len(gs) == 6 + rips_trivial.gamma.alphabet.rank
        # quotient is the trivial group here, so membership is universal,
        # and the projection map verifies each element anyway
        oracle = word_problem_oracle(presentation(["x"], ["x"]))
        for pw in gs.elements:
            assert fibre_membership(pw, rips_trivial.p, oracle)

    def test_theta_shape(self, kill_trivial):
        gs = fibre_generators("theta", kill=kill_trivial)
        H = gs.factor
        assert len(gs) == H.alphabet.rank + len(kill_trivial.v_words)
        # diagonal containment: (y,1)(1,y) = (y,y)
        for y in H.alphabet.symbols:
            assert PairWord(H.alphabet.gen(y), H.alphabet.gen(y)) in gs.elements
        # projections to both factors contain every generator
        lefts = {render_word(pw.left) for pw in gs.elements}
        rights = {render_word(pw.right) for pw in gs.elements}
        for y in H.alphabet.symbols:
            assert y in lefts and y in rights

    def test_theta_tilde(self, kill_trivial):
        H = free_product_of_copies(kill_trivial)
        rips_h = rips_wise(H)
        gs = fibre_generators("theta_tilde", kill=kill_trivial, rips=rips_h)
        theta = fibre_generators("theta", kill=kill_trivial)
        assert len(gs) == len(theta) + 6

    def test_unknown_kind(self):
        with pytest.raises(ConstructionError):
            fibre_generators("bogus")


class TestPairWords:
    def test_algebra(self):
        F = presentation(["a", "b"], [])
        u = PairWord(F.word("a"), F.word("b"))
        v = PairWord(F.word("b"), F.word("a^-1"))
        assert (u * v).left == F.word("a*b")
        assert u.inverse().left == F.word("a^-1")

    def test_product_word_roundtrip(self):
        F = presentation(["a", "b"], [])
        prod = direct_product_presentation(F, F)
        pw = PairWord(F.word("a*b^-1"), F.word("b*a"))
        w = pair_to_product_word(pw, prod)
        assert render_word(w) == "a_L*b_L^-1*b_R*a_R"
        back = product_word_to_pair(w, F.alphabet)
        assert back == pw


class TestGadget:
    def test_identity_random(self, perfect_certified):
        rng = random.Random(50)
        alph = perfect_certified.alphabet
        a = perfect_certified.relators[0]
        for _ in range(200):
            w = rand_reduced(alph, rng.randrange(10), rng)
            first, second = conjugacy_gadget(w, a)
            g = PairWord(w, alph.identity())
            assert second.conjugated_by(g) == reduce_pair(first)

    def test_empty_conjugator(self, icosahedral):
        a = icosahedral.relators[0]
        first, second = conjugacy_gadget(icosahedral.alphabet.identity(), a)
        assert first == second

    def test_primitive_root(self):
        F = presentation(["a", "b"], [])
        z, k = primitive_root(F.word("(a*b)^3"))
        assert render_word(z) == "a*b" and k == 3
        z, k = primitive_root(F.word("a*b^2"))
        assert k == 1

    def test_membership_negative_for_surviving_generator(self, perfect_certified):
        Q = perfect_certified
        solver = DehnSolver(Q)
        free = presentation(Q.alphabet.symbols, [])
        p = PresentationMorphism(
            free, Q, {s: Q.alphabet.gen(s) for s in Q.alphabet.symbols})
        pw = PairWord(free.alphabet.gen("a"), free.alphabet.identity())
        assert not fibre_membership(pw, p, lambda w: solver.solve(w).trivial)
        diag = PairWord(free.alphabet.gen("a"), free.alphabet.gen("a"))
        assert fibre_membership(diag, p, lambda w: solver.solve(w).trivial)

    def test_two_path_agreement(self, perfect_certified):
        Q = perfect_certified
        solver = DehnSolver(Q)
        free = presentation(Q.alphabet.symbols, [])
        p = PresentationMorphism(
            free, Q, {s: Q.alphabet.gen(s) for s in Q.alphabet.symbols},
            witness="natural projection of the free group")
        oracle = lambda w: solver.solve(w).trivial
        kernel = Word(free.alphabet, Q.relators[0].letters)
        rng = random.Random(51)
        agree = 0
        for _ in range(60):
            w = rand_reduced(free.alphabet, rng.randrange(8), rng)
            via_gadget = gadget_conjugacy_decision(w, kernel, p, oracle)
            direct = solver.solve(Word(Q.alphabet, w.letters)).trivial
            assert via_gadget == direct
            agree += 1
        assert agree == 60

    def test_rejects_proper_power_kernel(self, icosahedral):
        free = presentation(icosahedral.alphabet.symbols, [])
        p = PresentationMorphism(
            free, icosahedral,
            {s: icosahedral.alphabet.gen(s) for s in free.alphabet.symbols})
        with pytest.raises(ConstructionError):
            gadget_conjugacy_decision(
                free.word("a"), free.word("a^2"), p, lambda w: True)


class TestDeltaAmalgam:
    def test_counts_rank_one(self):
        res = delta_amalgam(["x"])
        # 2 product generators + 2 Higman copies of 4
        assert res.delta.alphabet.rank == 2 + 8
        # 1 cross commutator + 8 Higman relators + 2 identifications
        assert len(res.delta.relators) == 1 + 8 + 2
        assert len(res.C) == 6

    def test_counts_rank_two(self):
        res = delta_amalgam(["x", "y"])
        l = 2
        assert res.delta.alphabet.rank == 2 * l + 8 * l
        assert len(res.delta.relators) == l * l + 8 * l + 2 * l
        assert len(res.C) == 6 * l

    def test_aspherical(self):
        assert delta_amalgam(["x"]).delta.aspherical

    def test_no_small_quotients(self):
        res = delta_amalgam(["x"])
        cert = finite_quotient_certificate(res.delta, 4)
        assert cert.certified

    def test_s_plus(self, icosahedral):
        res = delta_amalgam(list(icosahedral.alphabet.symbols))
        S = fibre_generators("S", quotient=icosahedral)
        plus = s_plus(res, S)
        assert len(plus) == len(S) + 6 * 2
        for w in plus.elements:
            assert w.alphabet == res.delta.alphabet

    def test_attachment_subgroup_maps_onto_Z(self, higman_D):
        # the three non-glued letters of a copy generate a group with the
        # two-layer relator pattern; its abelianization is infinite cyclic
        assert h1(higman_D).group.rank == 1


def delta_by_amalgams(names):
    """F x F, then one amalgam per copy a_i, b_i, c_i, d_i of J along
    d_i = x_L for the first l copies and d_i = x_R for the next l: the
    reference for `delta_amalgam`."""
    F = presentation(names, [], aspherical="free presentation")
    fxf = direct_product_presentation(F, F)
    current = FinitePresentation(fxf.alphabet, fxf.relators, aspherical="torus complex")
    J, _ = higman_presentations()
    for i, x in enumerate(fxf.alphabet.symbols, start=1):
        Ji = rename_generators(J, {g: f"{g}_{i}" for g in J.alphabet.symbols})
        current = amalgamated_product(current, Ji, [(current.alphabet.gen(x), Ji.word(f"d_{i}"))],
                                      identified_subgroups_free=True)
    return current


def cyclic_word_class(w):
    """The least text among the rotations of w and of its inverse."""
    return min(t[i:] + t[:i] for t in (w.text, w.inverse().text) for i in range(len(t)))


@pytest.mark.parametrize("names", [["x"], ["x", "y"], ["x", "y", "z"]])
def test_delta_amalgam_matches_amalgam_chain(names):
    res = delta_amalgam(names)
    ref = delta_by_amalgams(names)
    assert res.delta.alphabet.symbols == ref.alphabet.symbols
    assert sorted(map(cyclic_word_class, res.delta.relators)) == \
        sorted(map(cyclic_word_class, ref.relators))
    assert res.delta.aspherical and ref.aspherical
    assert sum(res.copies, ()) == res.delta.alphabet.symbols[2 * len(names):]


class TestAcyclicSubdirect:
    def test_shapes_for_four_generator_input(self):
        P = presentation(["w", "x", "y", "z"],
                         ["w*x*y*z", "w^2*x^-1", "y^3", "z*w*z^-1*w^-2"])
        kr = kill_finite_quotients(P)
        res = acyclic_subdirect(kr)
        assert res.H.alphabet.rank == 16 and len(res.H.relators) == 16
        assert len(res.theta) == 16 + 4
        assert res.predicted_h1.rank == len(P.relators)
        assert res.predicted_h1.torsion == ()

    def test_epimorphism_sends_relators_to_relators(self, kill_trivial):
        res = acyclic_subdirect(kill_trivial)
        for r in res.H.relators:
            img = morphism_image(res.q, r)
            assert img in kill_trivial.simplified.relators

    def test_rejects_bare_presentation(self, trivial_pres):
        with pytest.raises(ConstructionError):
            acyclic_subdirect(trivial_pres)

    def test_theta_membership_trivial_case(self, kill_trivial):
        res = acyclic_subdirect(kill_trivial)
        oracle = word_problem_oracle(kill_trivial.simplified)
        for pw in res.theta.elements:
            assert fibre_membership(pw, res.q, oracle)


@settings(max_examples=300, deadline=None, database=None)
@given(root=st.lists(st.tuples(st.integers(0, 1), st.sampled_from((1, -1))), max_size=6),
       power=st.integers(1, 5),
       conj=st.lists(st.tuples(st.integers(0, 1), st.just(1)), max_size=3))
def test_fuzz_primitive_root_matches_divisor_loop(root, power, conj):
    """Powers of short words, conjugated, so proper powers are common."""
    AB = Alphabet(["a", "b"])
    g = Word(AB, conj)
    w = free_reduce(g.concat(Word(AB, root) ** power).concat(g.inverse()))
    assert primitive_root(w) == divisor_primitive_root(w)
