import dataclasses
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import presforge

from presforge.homology import (
    AbelianGroupDescriptor,
    AsphericityRequired,
    h1,
    h2_aspherical,
    relation_matrix,
    smith_normal_form,
    solve_row_lattice,
)
from presforge.constructions import super_perfectify
from presforge.presentations import presentation

from oracles import (
    dense_solve_row_lattice,
    densify,
    det,
    direct_sum,
    is_perfect,
    minors_gcd,
    reference_smith_normal_form,
)


def rand_matrix(rng, max_dim=6, bound=9):
    m, n = rng.randint(1, max_dim), rng.randint(1, max_dim)
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]


class TestSmithNormalForm:
    def test_spec_example(self):
        form = smith_normal_form([[2, 0], [0, 3], [5, 5]])
        assert form.diagonal == [1, 1]

    def test_zero_matrix(self):
        form = smith_normal_form([[0, 0], [0, 0]])
        assert form.diagonal == []

    def test_identity(self):
        form = smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert form.diagonal == [1, 1, 1]

    def test_random_verified(self):
        rng = random.Random(20)
        for _ in range(200):
            M = rand_matrix(rng)
            form = smith_normal_form(M)
            assert form.verify(M)
            for i in range(len(form.diagonal) - 1):
                assert form.diagonal[i + 1] % form.diagonal[i] == 0
                assert form.diagonal[i] > 0
            assert det(densify(form.left, len(M))) in (1, -1)
            assert det(form.right) in (1, -1)

    def test_gcd_of_minors_oracle(self):
        rng = random.Random(21)
        for _ in range(100):
            M = rand_matrix(rng, max_dim=3, bound=6)
            form = smith_normal_form(M)
            prod = 1
            for k, d in enumerate(form.diagonal, start=1):
                prod *= d
                assert prod == minors_gcd(M, k)
            # one past the rank: all larger minors vanish
            k = len(form.diagonal) + 1
            if k <= min(len(M), len(M[0])):
                assert minors_gcd(M, k) == 0

    def test_large_pivot_growth_is_exact(self):
        # entries force multi-digit pivots; exactness is the contract
        M = [[10**12, 10**12 + 1], [10**12 - 1, 10**12]]
        form = smith_normal_form(M)
        assert form.verify(M)

    def test_verify_rejects_a_wrong_kernel_row(self):
        M = [[2, 4], [1, 2], [3, 6]]
        form = smith_normal_form(M)
        assert form.rank == 1 and form.verify(M)
        for row in ({0: 1}, {1: 1, 2: 1}):  # row * M != 0
            left = form.left[:2] + [row]
            assert not dataclasses.replace(form, left=left).verify(M)

    def test_verify_rejects_an_empty_kernel_row(self):
        # an empty row times M is 0, so only the row itself shows it
        M = [[2, 4], [1, 2], [3, 6]]
        form = smith_normal_form(M)
        for i in (1, 2):
            left = list(form.left)
            left[i] = {}
            assert not dataclasses.replace(form, left=left).verify(M)

    def test_verify_rejects_a_scaled_pivot_row(self):
        M = [[2, 1], [1, 1]]
        form = smith_normal_form(M)
        assert form.diagonal == [1, 1] and form.verify(M)
        left = [{t: 3 * x for t, x in form.left[0].items()}, form.left[1]]
        assert not dataclasses.replace(form, left=left).verify(M)

    def test_zero_rows_keep_memory_small(self):
        # a relation matrix of commutator relators: 12 random rows among
        # 2,988 zero rows; the left transform holds the zero rows' unit
        # vectors, not a dense 3,000 x 3,000 matrix
        rng = random.Random(5)
        M = [[rng.randint(-3, 3) for _ in range(12)] for _ in range(12)]
        M += [[0] * 12 for _ in range(2988)]
        rng.shuffle(M)
        tracemalloc.start()
        try:
            form = smith_normal_form(M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert form.rows == 3000 and peak < 8 * 2**20, peak


class TestH1:
    def test_higman_trivial(self, higman_J):
        assert h1(higman_J).group.is_trivial

    def test_d_is_Z_generated_by_alpha(self, higman_D):
        res = h1(higman_D)
        assert res.group == AbelianGroupDescriptor(rank=1)
        assert res.generator_images["alpha"] in ((1,), (-1,))
        assert res.generator_images["beta"] == (0,)
        assert res.generator_images["gamma"] == (0,)

    def test_triangle_group(self, icosahedral):
        assert h1(icosahedral).group.is_trivial

    def test_free_group(self):
        res = h1(presentation(["a", "b"], []))
        assert res.group == AbelianGroupDescriptor(rank=2)

    def test_torsion(self):
        res = h1(presentation(["a"], ["a^6"]))
        assert res.group == AbelianGroupDescriptor(rank=0, torsion=(6,))
        assert res.generator_images["a"] in ((1,), (5,))

    def test_invariance_under_relator_order(self, higman_D):
        reversed_pres = presentation(
            higman_D.alphabet.symbols, list(reversed(higman_D.relators)))
        assert h1(reversed_pres).group == h1(higman_D).group


class TestPerfect:
    def test_examples(self, higman_J, higman_D, icosahedral):
        assert is_perfect(higman_J)
        assert not is_perfect(higman_D)
        assert is_perfect(icosahedral)
        assert not is_perfect(presentation(["a"], []))


class TestH2:
    def test_higman_zero(self, higman_J):
        res = h2_aspherical(higman_J)
        assert res.group.is_trivial
        assert res.asphericity_note == higman_J.aspherical

    def test_d_zero(self, higman_D):
        assert h2_aspherical(higman_D).group.is_trivial
        assert relation_matrix(higman_D) == [[0, -1, 0], [0, 0, -1]]

    def test_rank_formula(self):
        P = presentation(["x"], ["x^2", "x^3", "x^5"], aspherical="test fixture")
        # relation matrix rank 1, three relators -> free rank 2
        assert h2_aspherical(P).group == AbelianGroupDescriptor(rank=2)

    def test_requires_flag(self, icosahedral):
        with pytest.raises(AsphericityRequired):
            h2_aspherical(icosahedral)

    def test_never_torsion(self):
        rng = random.Random(22)
        for _ in range(50):
            n = rng.randint(1, 3)
            gens = [f"g{i}" for i in range(n)]
            rels = []
            for _ in range(rng.randint(1, 4)):
                import presforge.freewords as fw
                alph = fw.Alphabet(gens)
                w = fw.free_reduce(fw.Word(alph, tuple(
                    (rng.randrange(n), rng.choice((1, -1))) for _ in range(4))))
                if w.letters:
                    rels.append(fw.render_word(w))
            if not rels:
                continue
            P = presentation(gens, rels, aspherical="fixture")
            assert h2_aspherical(P).group.torsion == ()


class TestSolveRowLattice:
    def test_membership_and_recovery(self):
        rng = random.Random(23)
        for _ in range(100):
            M = rand_matrix(rng, max_dim=4, bound=4)
            m, n = len(M), len(M[0])
            y = [rng.randint(-3, 3) for _ in range(m)]
            target = [sum(y[i] * M[i][j] for i in range(m)) for j in range(n)]
            sol = solve_row_lattice(M, target)
            assert sol is not None
            assert [sum(sol[i] * M[i][j] for i in range(m)) for j in range(n)] == target

    def test_non_membership(self):
        assert solve_row_lattice([[2, 0], [0, 2]], [1, 0]) is None
        assert solve_row_lattice([[1, 1]], [1, 0]) is None

    def test_huge_target_rounds_exactly(self):
        # a float quotient of these integers overflows; size reduction
        # against the kernel row (1, -1) must still be exact
        assert solve_row_lattice([[1], [1]], [10**400]) == [5 * 10**399] * 2

    def test_size_reduction_skips_an_empty_kernel_row(self):
        # such a form fails verify, but a caller-supplied one must not
        # divide by the empty row's zero norm
        M = [[2, 4], [1, 2], [3, 6]]
        form = smith_normal_form(M)
        for i in (1, 2):
            left = list(form.left)
            left[i] = {}
            y = solve_row_lattice(M, [2, 4], dataclasses.replace(form, left=left))
            assert [sum(y[k] * M[k][j] for k in range(3)) for j in range(2)] == [2, 4]

    def test_final_check_survives_optimize(self):
        # a Smith form whose left transform is wrong yields a y with
        # y * M != target; the re-check must raise even under python -O,
        # which strips assert statements
        script = (
            "import dataclasses\n"
            "from presforge.homology import smith_normal_form, solve_row_lattice\n"
            "M = [[2, 1], [1, 1]]\n"
            "bad = dataclasses.replace(smith_normal_form(M), left=[{0: 1}, {1: 1}])\n"
            "print(solve_row_lattice(M, [1, 0], bad))\n")
        src = str(Path(presforge.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        res = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, timeout=60)
        assert res.returncode != 0, res.stdout
        assert "AssertionError" in res.stderr and "(internal error)" in res.stderr


@st.composite
def lattice_systems(draw):
    """(M, target): random rows plus zero rows and repeated rows, so the
    left kernel has unit vectors and rows such as e_i - e_j; the target is
    y * M, shifted off the lattice in one coordinate half the time."""
    n = draw(st.integers(1, 4))
    entries = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
    rows = draw(st.lists(entries, min_size=1, max_size=5))
    rows += [[0] * n] * draw(st.integers(0, 2))
    rows += draw(st.lists(st.sampled_from(rows), max_size=3))
    M = draw(st.permutations(rows))
    y = draw(st.lists(st.integers(-3, 3), min_size=len(M), max_size=len(M)))
    target = [sum(y[i] * M[i][j] for i in range(len(M))) for j in range(n)]
    target[draw(st.integers(0, n - 1))] += draw(st.sampled_from((0, 1)))
    return M, target


@settings(max_examples=300, deadline=None, database=None)
@given(system=lattice_systems())
def test_fuzz_sparse_size_reduction_matches_dense(system):
    """The size reduction over the kernel rows' supports gives the dense
    reduction's y, so the UCE witnesses do not change."""
    M, target = system
    form = smith_normal_form(M)
    assert solve_row_lattice(M, target, form) == dense_solve_row_lattice(M, target, form)


@st.composite
def badly_presented_matrices(draw):
    """A few random rows, then many zero rows and many copies of those rows,
    shuffled: the shape of a relation matrix with many commutator relators."""
    n = draw(st.integers(1, 5))
    entries = st.lists(st.integers(-6, 6), min_size=n, max_size=n)
    rows = draw(st.lists(entries, min_size=1, max_size=4))
    rows += [[0] * n] * draw(st.integers(0, 6))
    rows += draw(st.lists(st.sampled_from(rows), max_size=6))
    return [list(row) for row in draw(st.permutations(rows))]


def assert_same_smith_form(M):
    new, ref = smith_normal_form(M), reference_smith_normal_form(M)
    assert (new.diagonal, new.left, new.right) == (ref.diagonal, ref.left, ref.right)
    assert (new.rows, new.cols) == (ref.rows, ref.cols)


@settings(max_examples=400, deadline=None, database=None)
@given(M=badly_presented_matrices())
def test_fuzz_smith_form_matches_reference(M):
    """The one-loop elimination makes the reference's elementary operations
    in the reference's order, so both transforms come out identical."""
    assert_same_smith_form(M)


@pytest.mark.parametrize("name", ["higman_J", "higman_D", "icosahedral"])
def test_super_perfect_relation_matrix_matches_reference(name, request):
    P = super_perfectify(request.getfixturevalue(name)).presentation
    assert_same_smith_form(relation_matrix(P))


@settings(max_examples=300, deadline=None, database=None)
@given(a=st.lists(st.integers(2, 60), max_size=4),
       b=st.lists(st.integers(2, 60), max_size=4),
       ranks=st.tuples(st.integers(0, 2), st.integers(0, 2)))
def test_fuzz_direct_sum_matches_smith_form(a, b, ranks):
    """Pairwise gcd/lcm gives the invariant factors that a Smith form of the
    diagonal matrix of all torsion orders gives."""
    def chain(orders):
        D = [[t if i == j else 0 for j in range(len(orders))] for i, t in enumerate(orders)]
        return tuple(d for d in reference_smith_normal_form(D).diagonal if d > 1)
    A = AbelianGroupDescriptor(ranks[0], chain(a))
    B = AbelianGroupDescriptor(ranks[1], chain(b))
    assert direct_sum(A, B) == AbelianGroupDescriptor(sum(ranks), chain(a + b))


class TestDescriptor:
    def test_direct_sum(self):
        a = AbelianGroupDescriptor(1, (2,))
        b = AbelianGroupDescriptor(0, (3,))
        assert direct_sum(a, b) == AbelianGroupDescriptor(1, (6,))
        c = AbelianGroupDescriptor(0, (2,))
        assert direct_sum(a, c) == AbelianGroupDescriptor(1, (2, 2))

    def test_str(self):
        assert str(AbelianGroupDescriptor(0)) == "0"
        assert str(AbelianGroupDescriptor(1)) == "Z"
        assert str(AbelianGroupDescriptor(2, (2, 4))) == "Z^2 + Z/2 + Z/4"

    def test_chain_validation(self):
        with pytest.raises(ValueError):
            AbelianGroupDescriptor(0, (4, 2))
        with pytest.raises(ValueError):
            AbelianGroupDescriptor(0, (1,))
