import functools
import random
from collections import Counter
from math import comb, factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from presforge import quotients
from presforge.constructions import delta_amalgam, kill_finite_quotients, super_perfectify
from presforge.freewords import Alphabet, Word, commutator, free_reduce, render_word
from presforge.presentations import FinitePresentation, presentation
from presforge.quotients import (
    BudgetExhausted,
    CosetTable,
    PermAssignment,
    conjugacy_class_reps,
    finite_quotient_certificate,
    hom_search,
    identity_perm,
    inverse_perm,
    low_index_subgroups,
    todd_coxeter,
)
from presforge.uce import NormalClosureElement, miller_uce

from oracles import (
    brute_force_homs,
    compose,
    compose_evaluate,
    compose_verify,
    evaluate_action,
    group_order,
    hlt_todd_coxeter,
    image_of,
    image_order,
    row_major_low_index_subgroups,
    word_problem_oracle,
)

PSL27 = presentation(["a", "b"], ["a^2", "b^3", "(a*b)^7", "[a,b]^4"])
_ICO = presentation(["a", "b"], ["a^2", "b^3", "(a*b)^5"])
Z2_TIMES_Z = presentation(["a", "b"], ["a^2", "[a,b]"])


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

    def test_verify_rejects_non_permutation_images(self):
        # no relator to violate: only the permutation check rejects a -> (0, 0)
        free = presentation(["a"], [])
        assert not PermAssignment(2, (("a", (0, 0)),)).verify(free)
        assert not PermAssignment(2, (("a", (1,)),)).verify(free)
        assert PermAssignment(2, (("a", (1, 0)),)).verify(free)


_ABC = Alphabet(["a", "b", "c"])
_letters = st.lists(st.tuples(st.integers(0, 2), st.sampled_from((1, -1))), max_size=7)


@st.composite
def _actions(draw):
    """A degree k <= 4 and permutations of range(k) as the images of a, b
    and c, or with one image replaced by a tuple that may repeat, miss or
    overshoot points, or with the image of c missing."""
    k = draw(st.integers(1, 4))
    images = [draw(st.permutations(range(k)).map(tuple)) for _ in "abc"]
    fault = draw(st.sampled_from((None, None, "image", "missing")))
    if fault == "image":
        images[draw(st.integers(0, 2))] = draw(
            st.lists(st.integers(-1, k), max_size=k + 1).map(tuple))
    return PermAssignment(k, tuple(zip("ab" if fault == "missing" else "abc", images)))


@settings(max_examples=400, deadline=None, database=None)
@given(hom=_actions(), relators=st.lists(st.tuples(_letters, st.booleans()), max_size=3),
       words=st.lists(_letters, max_size=3))
def test_fuzz_action_matches_compose(hom, relators, words):
    """`evaluate` and `verify` against composing permutations.  A relator
    may be a 12th power, which every permutation of at most 4 points
    satisfies; images that are not permutations make `evaluate` raise and
    `verify` refuse."""
    rels = [free_reduce(Word(_ABC, tuple(ls)) ** (12 if power else 1))
            for ls, power in relators]
    P = FinitePresentation(_ABC, tuple(r for r in rels if r))
    fixing = [Word(_ABC, tuple(ls)) for ls in words]
    assert hom.verify(P, fixing) == compose_verify(hom, P, fixing)
    if compose_verify(hom, presentation(["a", "b", "c"], [])):
        for w in fixing:
            assert evaluate_action(hom, w) == compose_evaluate(hom, w)
    else:
        for w in fixing:
            with pytest.raises(ValueError, match="do not permute"):
                evaluate_action(hom, w)


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
        assert {image_order(h) for h in nontrivial} == {60}

    def test_pruned_vs_unpruned_vs_brute(self, higman_J, icosahedral):
        reps = {2: set(conjugacy_class_reps(2)), 3: set(conjugacy_class_reps(3))}
        for P in (higman_J, icosahedral, presentation(["a", "b"], ["a^2", "[a,b]"])):
            first = P.alphabet.symbols[0]
            for k in (2, 3):
                brute = brute_force_homs(P, k)
                unpruned = hom_search(P, k, prune=False)
                pruned = hom_search(P, k, prune=True)
                assert sorted(map(hash, unpruned)) == sorted(map(hash, brute))
                expected = [h for h in brute if image_of(h, first) in reps[k]]
                assert sorted(map(hash, pruned)) == sorted(map(hash, expected))

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

    def test_higman_degree_7(self, higman_J):
        assert finite_quotient_certificate(higman_J, 7).certified

    def test_search_nodes_deterministic(self, higman_J, icosahedral):
        for P, K in ((higman_J, 6), (icosahedral, 5)):
            first = finite_quotient_certificate(P, K)
            assert first.search_nodes > 0
            assert finite_quotient_certificate(P, K).search_nodes == first.search_nodes

    def test_higman_amalgams_certified_by_blocks(self, icosahedral):
        # pinned counts: one search per killed block, one on what is left
        delta = finite_quotient_certificate(delta_amalgam(["x"]).delta, 6)
        assert delta.certified and delta.search_nodes == 1349
        assert [(b.generators, b.search_nodes) for b in delta.killed_blocks] == [
            (("a_1", "b_1", "c_1", "d_1"), 631), (("x_L",), 2),
            (("a_2", "b_2", "c_2", "d_2"), 631)]
        killfq = finite_quotient_certificate(
            kill_finite_quotients(icosahedral).simplified, 6)
        assert killfq.certified and killfq.search_nodes == 731
        assert [(b.generators, b.search_nodes) for b in killfq.killed_blocks] == [
            (("a_1", "b_1", "c_1", "d_1"), 540), (("a_2", "b_2", "d_2"), 143)]

    def test_commutator_consequences_dropped(self, higman_J):
        # Miller's [y, x] relators of super_perfectify(<x | x>) lie in <<x>>:
        # once they are dropped, the block x dies alone before the J copies
        # are searched (682 nodes when the J block was searched in full)
        P = super_perfectify(presentation(["x"], ["x"])).presentation
        cert = finite_quotient_certificate(P, 6)
        assert cert.certified and cert.search_nodes == 585 and cert.relators_dropped == 26
        assert [(b.generators, b.search_nodes) for b in cert.killed_blocks] == [(("x",), 2)]
        C2 = super_perfectify(presentation(["x"], ["x^2"])).presentation
        assert finite_quotient_certificate(C2, 3).relators_dropped == 20
        assert finite_quotient_certificate(higman_J, 3).relators_dropped == 0

    def test_commutator_drop_ignores_relator_order(self):
        # the target may come before or after the commutator it certifies
        for rels in (["b^2*c", "[a, b^2*c]"], ["[a, b^2*c]", "b^2*c"]):
            Q, drops = quotients._drop_commutators(presentation("abc", rels))
            assert len(drops) == 1 and render_word(Q.relators[0]) == "b^2*c"

    def test_counterexample_lifted_through_killed_block(self, higman_J):
        # J * <z | z^3>: the J block dies and the S_3 action of z is lifted
        P = presentation(["a", "b", "c", "d", "z"],
                         [*map(render_word, higman_J.relators), "z^3"])
        cert = finite_quotient_certificate(P, 4)
        assert [b.generators for b in cert.killed_blocks] == [("a", "b", "c", "d")]
        action = cert.counterexample
        assert action.degree == 3 and action.verify(P) and not action.is_trivial
        assert all(image_of(action, g) == identity_perm(3) for g in "abcd")

    def test_intransitive_counterexample_rejected(self, monkeypatch):
        # a valid nontrivial action of <a | a^2> on 3 points that fixes
        # point 2: a least-index counterexample must be transitive
        def fake_search(Q, n, nodes=None, budget=None):
            if n >= 3:
                yield PermAssignment(3, (("a", (1, 0, 2)),))

        monkeypatch.setattr(quotients, "low_index_subgroups", fake_search)
        with pytest.raises(AssertionError, match="invalid counterexample"):
            finite_quotient_certificate(presentation(["a"], ["a^2"]), 3)

    def test_budget(self, higman_J):
        with pytest.raises(BudgetExhausted, match="691 nodes"):
            finite_quotient_certificate(higman_J, 6, budget=690)
        assert finite_quotient_certificate(higman_J, 6, budget=691).certified

    def test_consistency_with_hom_search(self, higman_J):
        cert = finite_quotient_certificate(higman_J, 4)
        assert cert.certified
        for k in cert.degrees_checked:
            assert all(h.is_trivial for h in hom_search(higman_J, k))


def _transitive(action) -> bool:
    reached, todo = {0}, [0]
    while todo:
        c = todo.pop()
        for _, p in action.images:
            if p[c] not in reached:
                reached.add(p[c])
                todo.append(p[c])
    return len(reached) == action.degree


def _index_counts(P, n) -> Counter:
    return Counter(action.degree for action in low_index_subgroups(P, n))


def _hall_counts(P, n) -> dict[int, int]:
    """Number a_k of index-k subgroups, k <= n, from h_k = |Hom(P, S_k)|
    (M. Hall 1949): t_k = h_k - sum_{j<k} C(k-1, j-1) t_j h_{k-j} counts
    the transitive homs, and a_k = t_k / (k-1)!."""
    h = [1] + [len(hom_search(P, k, prune=False)) for k in range(1, n + 1)]
    t = [0] * (n + 1)
    for k in range(1, n + 1):
        t[k] = h[k] - sum(comb(k - 1, j - 1) * t[j] * h[k - j] for j in range(1, k))
    assert all(t[k] % factorial(k - 1) == 0 for k in range(1, n + 1))
    return {k: t[k] // factorial(k - 1) for k in range(1, n + 1) if t[k]}


class TestLowIndexSubgroups:
    @pytest.mark.parametrize("name,n", [("icosahedral", 5), ("psl27", 5), ("z2_times_z", 5),
                                        ("higman_J", 5), ("delta", 3), ("superperfect", 4)])
    def test_hall_formula(self, request, name, n):
        built = {"psl27": lambda: PSL27, "z2_times_z": lambda: Z2_TIMES_Z,
                 "delta": lambda: delta_amalgam(["x"]).delta,
                 "superperfect": lambda: super_perfectify(
                     presentation(["x"], ["x^2"])).presentation}
        P = built[name]() if name in built else request.getfixturevalue(name)
        assert _index_counts(P, n) == _hall_counts(P, n)

    def test_known_counts(self, icosahedral, higman_J):
        # A_5: the point stabilizers A_4 (5) and the Sylow-5 normalizers D_10 (6);
        # PSL(2,7): two classes of S_4 (7 + 7) and the Borel subgroups 7:3 (8)
        assert _index_counts(icosahedral, 6) == {1: 1, 5: 5, 6: 6}
        assert _index_counts(PSL27, 8) == {1: 1, 7: 14, 8: 8}
        assert _index_counts(Z2_TIMES_Z, 4) == {1: 1, 2: 3, 3: 1, 4: 3}
        assert _index_counts(higman_J, 5) == {1: 1}

    def test_actions_are_standardized_transitive_homs(self, icosahedral):
        actions = list(low_index_subgroups(icosahedral, 6))
        assert len(set(actions)) == len(actions)
        for action in actions:
            assert action.verify(icosahedral) and _transitive(action)
            # in row-major order over the columns a, a^-1, b, b^-1, coset k
            # first appears after cosets 0..k-1
            columns = [q for _, p in action.images for q in (p, inverse_perm(p))]
            seen = [0]
            for c in range(action.degree):
                for q in columns:
                    if q[c] not in seen:
                        assert q[c] == len(seen)
                        seen.append(q[c])

    def test_rank_zero_and_bad_bound(self):
        P = presentation([], [])
        assert [a.degree for a in low_index_subgroups(P, 3)] == [1]
        with pytest.raises(ValueError):
            next(low_index_subgroups(P, 0))


@settings(max_examples=100, deadline=None, database=None)
@given(rank=st.sampled_from([0, 2, 3]), n=st.integers(1, 5), data=st.data())
def test_low_index_matches_row_major_reference(rank, n, data):
    """Branching on the column with the fewest free entries lists the same
    standardized tables as the row-major search, each once, in fewer or
    more nodes but never a different set."""
    alph = Alphabet("abc"[:rank])
    letters = st.tuples(st.integers(0, max(rank - 1, 0)), st.sampled_from([1, -1]))
    relators = data.draw(st.lists(st.lists(letters, min_size=1, max_size=5),
                                  min_size=1, max_size=3)) if rank else []
    words = [free_reduce(Word(alph, tuple(r))) for r in relators]
    assume(all(words))
    P = presentation(alph.symbols, words)
    found = list(low_index_subgroups(P, n))
    assert len(set(found)) == len(found)
    assert sorted(found, key=repr) == sorted(row_major_low_index_subgroups(P, n), key=repr)


_LETTERS = st.tuples(st.integers(0, 1), st.sampled_from([1, -1]))


@settings(max_examples=50, deadline=None, database=None)
@given(relators=st.lists(st.lists(_LETTERS, min_size=1, max_size=6), min_size=1, max_size=3),
       K=st.integers(2, 4))
def test_certificate_agrees_with_hom_search(relators, K):
    alph = Alphabet(["a", "b"])
    words = [free_reduce(Word(alph, tuple(r))) for r in relators]
    assume(all(words))
    P = presentation(["a", "b"], words)
    cert = finite_quotient_certificate(P, K)
    found = {k: hom_search(P, k, mode="first_nontrivial") for k in range(2, K + 1)}
    assert cert.certified == (not any(found.values()))
    if not cert.certified:
        action = cert.counterexample
        assert action.degree == min(k for k, homs in found.items() if homs)
        assert action.verify(P) and not action.is_trivial and _transitive(action)
        assert cert.degrees_checked == list(range(2, action.degree + 1))


_ABC = Alphabet("abc")
_ABC_LETTERS = st.tuples(st.integers(0, 2), st.sampled_from([1, -1]))


@settings(max_examples=60, deadline=None, database=None)
@given(base=st.lists(st.lists(_ABC_LETTERS, min_size=1, max_size=5), min_size=1, max_size=3),
       comms=st.lists(st.tuples(_ABC_LETTERS, st.integers(0, 2), st.integers(0, 9),
                                st.booleans()), max_size=4),
       K=st.integers(2, 4), rng=st.randoms(use_true_random=False))
def test_dropped_commutators_change_no_answer(base, comms, K, rng):
    """UCE-style inputs: random relators plus commutators [x, t], t a
    rotation or inverse of one of them, in shuffled order.  Every drop
    re-expands from kept relators, and dropping changes neither the answer
    nor the subgroups."""
    words = [free_reduce(Word(_ABC, tuple(r))) for r in base]
    assume(all(words))
    rels = list(words)
    for letter, which, shift, invert in comms:
        t = words[which % len(words)].letters
        t = t[shift % len(t):] + t[:shift % len(t)]
        t = Word(_ABC, t).inverse() if invert else Word(_ABC, t)
        if cw := commutator(Word(_ABC, [letter]), t):
            rels.append(cw)
    rng.shuffle(rels)
    P = presentation("abc", rels)
    Q, drops = quotients._drop_commutators(P)
    assert len(Q.relators) + len(drops) == len(P.relators)
    dropped = {j for j, _ in drops}
    for j, factors in drops:
        assert NormalClosureElement.build(P, factors).expanded == P.relators[j]
        assert all(i not in dropped for _, i, _ in factors)
    # the subgroups, not their order, which follows the deductions
    assert sorted(low_index_subgroups(Q, K), key=repr) == \
        sorted(low_index_subgroups(P, K), key=repr)
    cert = finite_quotient_certificate(P, K)
    assert cert.relators_dropped == len(drops)
    found = [k for k in range(2, K + 1) if hom_search(P, k, mode="first_nontrivial")]
    assert cert.certified == (not found)
    if found:
        assert cert.counterexample.degree == found[0]


def _least_proper_index(P, K):
    """Least index of a proper subgroup, by sweeping k = 2..K: the first
    one found at bound k has index k."""
    for k in range(2, K + 1):
        if any(a.degree >= 2 for a in low_index_subgroups(P, k)):
            return k
    return None


def _block_words(names):
    letters = st.tuples(st.sampled_from(names), st.sampled_from([1, -1]))
    return st.lists(st.lists(letters, min_size=1, max_size=6), min_size=1, max_size=2)


@settings(max_examples=60, deadline=None, database=None)
@given(left=_block_words(["a", "b"]), right=_block_words(["c", "d"]),
       glue=st.lists(st.tuples(st.sampled_from("abcd"), st.sampled_from([1, -1])),
                     min_size=2, max_size=4),
       K=st.integers(2, 4))
def test_blocks_agree_with_direct_sweep(left, right, glue, K):
    """Two random blocks glued by one relator: the block reduction finds
    the same certificate and least degree as the direct search."""
    alph = Alphabet("abcd")
    words = [free_reduce(Word(alph, tuple((alph.index(g), e) for g, e in r)))
             for r in [*left, *right, glue]]
    assume(all(words))
    P = presentation("abcd", words)
    cert = finite_quotient_certificate(P, K)
    least = _least_proper_index(P, K)
    assert cert.certified == (least is None)
    if least is not None:
        action = cert.counterexample
        assert action.degree == least
        assert action.verify(P) and not action.is_trivial and _transitive(action)


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
        assert table.action is None

    def test_completed_action_is_verified(self, icosahedral):
        table = todd_coxeter(icosahedral, ())
        ident = identity_perm(table.index)
        for r in icosahedral.relators:
            assert evaluate_action(table.action, r) == ident
        perms = [p for _, p in table.action.images]
        assert group_order(perms, table.index) == 60

    def test_word_problem_oracle(self, icosahedral):
        oracle = word_problem_oracle(icosahedral)
        assert oracle(icosahedral.word("a^2"))
        assert oracle(icosahedral.word("(a*b)^5"))
        assert not oracle(icosahedral.word("a"))
        assert not oracle(icosahedral.word("a*b"))
        with pytest.raises(RuntimeError):
            word_problem_oracle(presentation(["a", "b"], []), max_cosets=50)

    def test_fourth_power_and_infinite_dihedral(self):
        # a^4 is no square, so a keeps two columns; two involutions alone
        # generate the infinite dihedral group
        assert todd_coxeter(presentation(["a"], ["a^4"]), ()).index == 4
        table = todd_coxeter(presentation(["a", "b"], ["a^2", "b^2"]), (), max_cosets=200)
        assert table.status == "overflow"

    def test_deterministic(self, icosahedral):
        t1 = todd_coxeter(icosahedral, ())
        t2 = todd_coxeter(icosahedral, ())
        assert t1.action == t2.action
        assert t1.cosets_defined == t2.cosets_defined

    @pytest.mark.parametrize("build, max_cosets, counters", [
        (lambda: _coxeter_symmetric(6), 100_000, (786, 723, 0)),
        (lambda: _coxeter_symmetric(7), 100_000, (6086, 5044, 0)),
        (lambda: miller_uce(_ICO).result, 100_000, (3222, 1897, 1359)),
        (lambda: super_perfectify(presentation(["x"], ["x"])).presentation, 100_000,
         (59, 25, 0)),
        (lambda: miller_uce(super_perfectify(presentation(["x"], ["x^2"])).presentation).result,
         100_000, (17723, 6785, 3697)),
        (lambda: miller_uce(super_perfectify(_ICO).presentation).result, 100_000,
         (100_000, 75910, 2226)),
    ], ids=["coxeter-S6", "coxeter-S7", "uce-icosahedral", "superperfect-trivial",
            "uce-superperfect-C2", "uce-superperfect-icosahedral-overflow"])
    def test_work_counters(self, build, max_cosets, counters):
        """(cosets_defined, peak_live, deductions) are pinned: the order of
        definitions and deductions is part of the deterministic output."""
        table = todd_coxeter(build(), (), max_cosets=max_cosets)
        assert (table.cosets_defined, table.peak_live, table.deductions) == counters


# a faithful action of <a, b | a^2, b^3, (a*b)^5> = A_5 on 5 points
_A5_ACTION = {0: (1, 0, 3, 2, 4), 1: (2, 1, 4, 3, 0)}


def _act(word):
    """The permutation of `word` under _A5_ACTION, left letter first."""
    acc = tuple(range(5))
    for idx, sign in word:
        p = _A5_ACTION[idx] if sign > 0 else inverse_perm(_A5_ACTION[idx])
        acc = tuple(p[i] for i in acc)
    return acc


def _closure_size(perms, degree=5):
    """Order of the permutation group on `degree` points that `perms`
    generate."""
    seen = {tuple(range(degree))}
    todo = list(seen)
    while todo:
        g = todo.pop()
        for p in perms:
            h = tuple(p[i] for i in g)
            if h not in seen:
                seen.add(h)
                todo.append(h)
    return len(seen)


def test_a5_action_is_faithful(icosahedral):
    ident = tuple(range(5))
    assert all(_act(r.letters) == ident for r in icosahedral.relators)
    assert _closure_size(list(_A5_ACTION.values())) == 60


@settings(max_examples=80, deadline=None, database=None)
@given(words=st.lists(st.lists(_LETTERS, max_size=10), max_size=3))
def test_todd_coxeter_index_matches_a5_action(icosahedral, words):
    """Differential check: the index of H = <words> found by coset
    enumeration is 60 / |H|, with |H| read off the faithful A_5 action."""
    subgroup = [Word(icosahedral.alphabet, tuple(w)) for w in words]
    table = todd_coxeter(icosahedral, subgroup)
    assert table.complete and table.verify(icosahedral, subgroup)
    assert table.index == 60 // _closure_size([_act(w) for w in words])
    assert table.cosets_defined >= table.peak_live >= table.index


@pytest.mark.parametrize("k, order", [(2, 6), (3, 12), (4, 24), (5, 60)])
def test_triangle_group_orders_with_square_spellings(k, order):
    """<a, b | a^2, b^3, (a*b)^k>: a is involutory however its square is
    written, since the rule reads the cyclic core, so the enumeration is
    the same for each spelling."""
    tables = [todd_coxeter(presentation(["a", "b"], [sq, "b^3", f"(a*b)^{k}"]), ())
              for sq in ("a^2", "a^-2", "b*a^2*b^-1")]
    assert all(t.complete and t.index == order for t in tables)
    assert len({(t.cosets_defined, t.peak_live) for t in tables}) == 1


def _coxeter_symmetric(n):
    """Coxeter presentation of S_n on the involutions s1 .. s(n-1)."""
    gens = [f"s{i}" for i in range(1, n)]
    rels = [f"{g}^2" for g in gens]
    rels += [f"(s{i}*s{i + 1})^3" for i in range(1, n - 1)]
    rels += [f"(s{i}*s{j})^2" for i in range(1, n) for j in range(i + 2, n)]
    return presentation(gens, rels)


@pytest.mark.parametrize("n, order", [(6, 720), (7, 5040)])
def test_coxeter_overshoot_is_bounded(n, order):
    """With one column per involution, scan-and-fill defines at most 1.5x
    the index on the Coxeter S_n."""
    table = todd_coxeter(_coxeter_symmetric(n), ())
    assert table.complete and table.index == order
    assert table.cosets_defined <= 1.5 * order


def test_uce_icosahedral_enumeration_is_short(icosahedral):
    """Deductions from the short relators keep the binary icosahedral group
    of order 120, presented as Miller's UCE of A_5, to at most 4,000
    defined cosets (plain HLT defines 17,628)."""
    table = todd_coxeter(miller_uce(icosahedral).result, ())
    assert table.complete and table.index == 120
    assert table.cosets_defined <= 4000 and table.deductions > 0


def test_no_short_relator_means_no_deductions():
    """Squares count towards the shortest core but are not scanned, so the
    Coxeter S_5 has no short relator and nothing to deduce from."""
    table = todd_coxeter(_coxeter_symmetric(5), ())
    assert table.index == 120 and table.deductions == 0


@functools.cache
def _finite_presentations():
    """Finite groups mixing squares, short and long relators: the triangle
    groups <a, b | a^2, b^3, (a*b)^k> for k = 2..5 (with a^2 also spelled
    a^-2), PSL(2, 7), and Miller's UCE of A_5 and of PSL(2, 7)."""
    tri = [presentation(["a", "b"], [sq, "b^3", f"(a*b)^{k}"])
           for k in (2, 3, 4, 5) for sq in ("a^2", "a^-2")]
    return tri + [PSL27, miller_uce(tri[-1]).result, miller_uce(PSL27).result]


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_todd_coxeter_matches_hlt_reference(data):
    """Differential check against plain HLT on random subgroups of finite
    groups and of their quotients by one random relator (a quotient of a
    finite group is finite): whenever both enumerations complete, they
    find the same index and both tables verify."""
    P = data.draw(st.sampled_from(_finite_presentations()))
    words = data.draw(st.lists(st.lists(_LETTERS, max_size=8), min_size=1, max_size=3))
    extra = free_reduce(Word(P.alphabet, tuple(words[0])))
    if extra:
        P = presentation(P.alphabet.symbols, [*P.relators, extra])
    subgroup = [Word(P.alphabet, tuple(w)) for w in words[1:]]
    new, old = (enumerate_(P, subgroup, max_cosets=20_000)
                for enumerate_ in (todd_coxeter, hlt_todd_coxeter))
    for table in (new, old):
        assert not table.complete or table.verify(P, subgroup)
    if new.complete and old.complete:
        assert new.index == old.index


def _swap_action(n, word):
    """The permutation of a word in s1 .. s(n-1) on range(n), s_i swapping
    points i - 1 and i (each s_i is its own inverse)."""
    p = list(range(n))
    for i, _ in word:
        p[i], p[i + 1] = p[i + 1], p[i]
    return tuple(p)


@settings(max_examples=60, deadline=None, database=None)
@given(n=st.sampled_from([4, 5]),
       words=st.lists(st.lists(st.tuples(st.integers(0, 3), st.sampled_from([1, -1])),
                               max_size=8), max_size=3))
def test_coxeter_subgroup_index_matches_transposition_action(n, words):
    """The index of H = <words> in the Coxeter S_n is n! / |H|, with |H|
    read off the action of s_i as the transposition (i, i + 1)."""
    words = [[(i % (n - 1), e) for i, e in w] for w in words]
    P = _coxeter_symmetric(n)
    subgroup = [Word(P.alphabet, tuple(w)) for w in words]
    table = todd_coxeter(P, subgroup)
    assert table.complete and table.verify(P, subgroup)
    assert table.index == factorial(n) // _closure_size([_swap_action(n, w) for w in words], n)


def _table(index, perms):
    return CosetTable(PermAssignment(index, tuple(perms.items())), cosets_defined=index,
                      peak_live=index)


class TestCosetTableVerify:
    def test_enumerated_tables_verify(self, icosahedral):
        for subgroup in ((), [icosahedral.word("a")], [icosahedral.word("a*b")]):
            assert todd_coxeter(icosahedral, subgroup).verify(icosahedral, subgroup)

    def test_incomplete_table_fails(self):
        P = presentation(["a", "b"], [])
        assert not todd_coxeter(P, (), max_cosets=50).verify(P)

    def test_non_bijective_image(self):
        for rels in (["a^2"], []):
            # (0, 0) is no permutation, whatever the relators say
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
