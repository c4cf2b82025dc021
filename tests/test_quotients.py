import random

import pytest

from presforge.freewords import parse_word
from presforge.presentations import presentation
from presforge.quotients import (
    CosetTable,
    brute_force_homs,
    compose,
    conjugacy_class_reps,
    finite_quotient_certificate,
    group_order,
    hom_search,
    identity_perm,
    inverse_perm,
    todd_coxeter,
    word_problem_oracle,
)


class TestPermBasics:
    def test_compose_inverse(self):
        rng = random.Random(30)
        for _ in range(100):
            p = tuple(rng.sample(range(5), 5))
            assert compose(p, inverse_perm(p)) == identity_perm(5)

    def test_class_reps_count(self):
        # number of partitions of k
        assert len(conjugacy_class_reps(4)) == 5
        assert len(conjugacy_class_reps(5)) == 7
        assert len(conjugacy_class_reps(6)) == 11

    def test_reps_are_distinct_cycle_types(self):
        reps = conjugacy_class_reps(5)
        assert len(set(reps)) == len(reps)
        assert identity_perm(5) in reps


class TestHomSearch:
    def test_z2_into_s2(self):
        homs = hom_search(presentation(["a"], ["a^2"]), 2)
        assert len(homs) == 2
        assert sorted(h.is_trivial for h in homs) == [False, True]

    def test_higman_trivial_only(self, higman_J):
        for k in range(2, 6):
            homs = hom_search(higman_J, k)
            assert len(homs) == 1 and homs[0].is_trivial, f"k={k}"

    def test_icosahedral_image_order_60(self, icosahedral):
        homs = hom_search(icosahedral, 5)
        nontrivial = [h for h in homs if not h.is_trivial]
        assert nontrivial
        assert {h.image_order() for h in nontrivial} == {60}

    def test_pruned_vs_unpruned_vs_brute(self, higman_J, icosahedral):
        reps = {2: set(conjugacy_class_reps(2)), 3: set(conjugacy_class_reps(3))}
        for P in (higman_J, icosahedral, presentation(["a", "b"], ["a^2", "[a,b]"])):
            first = P.alphabet.symbols[0]
            for k in (2, 3):
                brute = brute_force_homs(P, k)
                unpruned = hom_search(P, k, prune=False)
                pruned = hom_search(P, k, prune=True)
                assert sorted(map(hash, unpruned)) == sorted(map(hash, brute))
                expected = [h for h in brute if h.image_of(first) in reps[k]]
                assert sorted(map(hash, pruned)) == sorted(map(hash, expected))

    def test_shard_union(self, icosahedral):
        full = hom_search(icosahedral, 4)
        pieces = []
        for s in range(3):
            pieces.extend(hom_search(icosahedral, 4, shard=(s, 3)))
        assert sorted(map(hash, pieces)) == sorted(map(hash, full))

    def test_every_result_verifies(self, icosahedral):
        for h in hom_search(icosahedral, 4):
            assert h.verify(icosahedral)

    def test_first_nontrivial_mode(self, icosahedral):
        found = hom_search(icosahedral, 5, mode="first_nontrivial")
        assert len(found) == 1 and not found[0].is_trivial
        assert hom_search(presentation(["a"], ["a"]), 4,
                          mode="first_nontrivial") == []


class TestCertificate:
    def test_higman(self, higman_J):
        cert = finite_quotient_certificate(higman_J, 5)
        assert cert.certified and cert.degrees_checked == [2, 3, 4, 5]
        assert "bounded" in cert.describe()

    def test_counterexample(self):
        cert = finite_quotient_certificate(presentation(["a"], ["a^2"]), 2)
        assert not cert.certified
        assert cert.counterexample is not None
        assert cert.counterexample.degree == 2

    def test_consistency_with_hom_search(self, higman_J):
        cert = finite_quotient_certificate(higman_J, 4)
        assert cert.certified
        for k in cert.degrees_checked:
            assert all(h.is_trivial for h in hom_search(higman_J, k))


class TestToddCoxeter:
    def test_triangle_group_order(self, icosahedral):
        table = todd_coxeter(icosahedral, ())
        assert table.complete and table.index == 60

    def test_trivial_presentation(self):
        table = todd_coxeter(presentation(["x"], ["x"]), ())
        assert table.complete and table.index == 1

    def test_s3(self):
        P = presentation(["a", "b"], ["a^2", "b^2", "(a*b)^3"])
        assert todd_coxeter(P, ()).index == 6

    def test_subgroup_index(self, icosahedral):
        table = todd_coxeter(icosahedral, [icosahedral.word("a")])
        assert table.complete and table.index == 30
        table = todd_coxeter(icosahedral, [icosahedral.word("a*b")])
        assert table.complete and table.index == 12

    def test_overflow_on_infinite_group(self):
        table = todd_coxeter(presentation(["a", "b"], []), (), max_cosets=50)
        assert table.status == "overflow" and table.index is None
        with pytest.raises(ValueError):
            table.evaluate(parse_word(presentation(["a", "b"], []).alphabet, "a"))

    def test_completed_action_is_verified(self, icosahedral):
        table = todd_coxeter(icosahedral, ())
        ident = identity_perm(table.index)
        for r in icosahedral.relators:
            assert table.evaluate(r) == ident
        perms = list(table.generator_perms.values())
        assert group_order(perms, table.index) == 60

    def test_word_problem_oracle(self, icosahedral):
        oracle = word_problem_oracle(icosahedral)
        assert oracle(icosahedral.word("a^2"))
        assert oracle(icosahedral.word("(a*b)^5"))
        assert not oracle(icosahedral.word("a"))
        assert not oracle(icosahedral.word("a*b"))
        with pytest.raises(RuntimeError):
            word_problem_oracle(presentation(["a", "b"], []), max_cosets=50)

    def test_deterministic(self, icosahedral):
        t1 = todd_coxeter(icosahedral, ())
        t2 = todd_coxeter(icosahedral, ())
        assert t1.generator_perms == t2.generator_perms
        assert t1.cosets_defined == t2.cosets_defined


def _table(index, perms):
    return CosetTable("complete", index, perms, cosets_defined=index, max_cosets=index)


class TestCosetTableVerify:
    def test_enumerated_tables_verify(self, icosahedral):
        for subgroup in ((), [icosahedral.word("a")], [icosahedral.word("a*b")]):
            assert todd_coxeter(icosahedral, subgroup).verify(icosahedral, subgroup)

    def test_incomplete_table_fails(self):
        P = presentation(["a", "b"], [])
        assert not todd_coxeter(P, (), max_cosets=50).verify(P)

    def test_non_bijective_image(self):
        for rels in (["a^2"], []):
            # with no relator to violate, (0, 0) "reaches" coset 1 through
            # its unchecked inverse, so only the bijectivity check rejects it
            assert not _table(2, {"a": (0, 0)}).verify(presentation(["a"], rels))

    def test_relator_violation(self):
        P = presentation(["a"], ["a^3"])
        assert _table(2, {"a": (1, 0)}).verify(presentation(["a"], ["a^2"]))
        assert not _table(2, {"a": (1, 0)}).verify(P)

    def test_intransitive_identity_action(self):
        P = presentation(["a"], ["a^2"])
        assert _table(1, {"a": (0,)}).verify(P)
        assert not _table(2, {"a": (0, 1)}).verify(P)

    def test_subgroup_must_fix_coset_0(self):
        P = presentation(["a"], ["a^2"])
        table = _table(2, {"a": (1, 0)})
        assert table.verify(P, [P.word("a^2")])
        assert not table.verify(P, [P.word("a")])

    def test_missing_generator_image(self):
        assert not _table(1, {}).verify(presentation(["a"], []))
