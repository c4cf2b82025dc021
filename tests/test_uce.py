import collections
import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from presforge.constructions import super_perfectify
from presforge.freewords import (
    Alphabet,
    AlphabetMismatchError,
    Word,
    commutator,
    exponent_vector,
    free_reduce,
    render_word,
)
from presforge.homology import h1, relation_matrix, solve_row_lattice
from presforge.presentations import (
    FinitePresentation,
    PresentationError,
    parse_presentation,
    presentation,
    render_presentation,
)
from presforge.quotients import BudgetExhausted, todd_coxeter
from presforge.uce import (
    NormalClosureElement,
    PerfectionRequired,
    find_commutator_witnesses,
    miller_uce,
)

from oracles import (
    closure_inverse,
    express_in_generators,
    kernel_symbols,
    normal_closure_stream,
    reduced_words,
    search_commutator_witnesses,
    search_extension,
    stream_fairness_bound,
    uce_word_transfer,
    word_problem_oracle,
)


class TestClosureStream:
    def test_first_emissions_are_relators(self, icosahedral):
        st = normal_closure_stream(icosahedral)
        first = [next(st) for _ in range(3)]
        assert [e.expanded for e in first] == list(icosahedral.relators)
        for e in first:
            assert e.factors[0][0] == icosahedral.alphabet.identity()

    def test_contains_square_of_relator(self):
        P = presentation(["a"], ["a"])
        st = normal_closure_stream(P)
        for _ in range(100):
            e = next(st)
            if render_word(e.expanded) == "a^2" and len(e.factors) == 2:
                break
        else:
            pytest.fail("a^2 not found as a two-factor product")

    def test_expansions_lie_in_relation_lattice(self, icosahedral):
        M = relation_matrix(icosahedral)
        st = normal_closure_stream(icosahedral)
        for _ in range(300):
            e = next(st)
            assert solve_row_lattice(M, list(exponent_vector(e.expanded))) is not None

    def test_deterministic(self, icosahedral):
        a = [e.factors for e in itertools.islice(normal_closure_stream(icosahedral), 50)]
        b = [e.factors for e in itertools.islice(normal_closure_stream(icosahedral), 50)]
        assert a == b

    def test_fairness_bound(self, icosahedral):
        bound = stream_fairness_bound(icosahedral, 1)
        emitted = list(itertools.islice(normal_closure_stream(icosahedral), bound))
        seen = {(e.factors[0][0].letters, e.factors[0][1], e.factors[0][2])
                for e in emitted if len(e.factors) == 1}
        alph = icosahedral.alphabet
        singles = [alph.identity()] + [Word(alph, ((i, s),))
                                       for i in range(2) for s in (1, -1)]
        for conj in singles:
            for idx in range(3):
                for sign in (1, -1):
                    assert (conj.letters, idx, sign) in seen

    def test_verify_and_inverse(self, icosahedral):
        st = normal_closure_stream(icosahedral)
        for _ in range(30):
            e = next(st)
            assert e.verify(icosahedral)
            inv = closure_inverse(icosahedral, e)
            assert inv.expanded == e.expanded.inverse()


def concat_build(P, factors):
    """Reference expansion: juxtapose every conj * r^sign * conj^-1 with
    `Word.concat`, then freely reduce once."""
    acc = P.alphabet.identity()
    for conj, idx, sign in factors:
        if not (0 <= idx < len(P.relators)) or sign not in (1, -1):
            raise PresentationError(f"bad closure factor ({idx}, {sign})")
        r = P.relators[idx] if sign > 0 else P.relators[idx].inverse()
        acc = acc.concat(conj).concat(r).concat(conj.inverse())
    return NormalClosureElement(tuple(factors), free_reduce(acc))


def _built(build, P, factors):
    try:
        return build(P, factors)
    except (PresentationError, AlphabetMismatchError) as e:
        return type(e), str(e)


_ABC = Alphabet(["a", "b", "c"])
_raw_letters = st.lists(st.tuples(st.integers(0, 2), st.sampled_from((1, -1))), max_size=8)


@settings(max_examples=300, deadline=None, database=None)
@given(relators=st.lists(_raw_letters, min_size=1, max_size=4),
       factors=st.lists(st.tuples(_raw_letters, st.integers(0, 10), st.sampled_from((1, -1))),
                        min_size=1, max_size=6),
       fault=st.sampled_from((None, "index", "sign", "alphabet")),
       at=st.integers(0, 10**6))
def test_fuzz_build_matches_concat_then_reduce(relators, factors, fault, at):
    """Conjugators are random letter strings, not freely reduced; relators
    are freely reduced, as a presentation demands, but not cyclically.  A
    bad index, a bad sign or a conjugator over another alphabet raises
    the reference's exception with the reference's message.  When every
    conjugator is freely reduced, `expand` is already the reduced
    expansion, the completeness Dehn's re-check relies on."""
    rels = [w for w in (free_reduce(Word(_ABC, tuple(ls))) for ls in relators) if w]
    if not rels:
        rels = [_ABC.gen("a")]
    P = FinitePresentation(_ABC, tuple(rels))
    fs = [(Word(_ABC, tuple(c)), i % len(rels), s) for c, i, s in factors]
    k = at % len(fs)
    conj, idx, sign = fs[k]
    if fault == "index":
        fs[k] = (conj, len(rels) + at % 3 if at % 2 else -1 - at % 3, sign)
    elif fault == "sign":
        fs[k] = (conj, idx, (0, 2, -2)[at % 3])
    elif fault == "alphabet":
        fs[k] = (Word(Alphabet(["a", "b"]), ((0, 1),) * (at % 3)), idx, sign)
    built = _built(NormalClosureElement.build, P, fs)
    assert built == _built(concat_build, P, fs)
    assert isinstance(built, NormalClosureElement) == (fault is None)
    reduced = [(free_reduce(c), i, s) for c, i, s in fs]
    if fault is None:
        assert (NormalClosureElement.expand(P, reduced)
                == concat_build(P, reduced).expanded.text)


class TestWitnesses:
    def test_single_relator_generator(self):
        P = presentation(["x"], ["x"])
        for (w,) in (find_commutator_witnesses(P), search_commutator_witnesses(P, 10_000)):
            assert w.c == P.alphabet.identity()
            assert render_word(w.rho.expanded) == "x"
            assert w.verify(P)

    def test_icosahedral_constructive(self, icosahedral):
        ws = find_commutator_witnesses(icosahedral)
        assert [w.generator for w in ws] == ["a", "b"]
        for w in ws:
            assert w.verify(icosahedral)
            assert not any(exponent_vector(w.c))

    def test_higman_witnesses(self, higman_J):
        ws = find_commutator_witnesses(higman_J)
        assert [w.generator for w in ws] == ["a", "b", "c", "d"]
        for w in ws:
            assert w.verify(higman_J)

    def test_superperfect_higman_witnesses_golden(self, higman_J):
        # 500 relators, 480 of them with zero exponent vectors: every
        # kernel row of the Smith form is a unit vector, and the size
        # reduction over their supports must keep these witnesses
        S = super_perfectify(higman_J).presentation
        digest = hashlib.sha256()
        for w in find_commutator_witnesses(S):
            powers = [(i, s) for _, i, s in w.rho.factors]
            digest.update(f"{w.generator}\0{render_word(w.c)}\0{powers}\n".encode())
        assert digest.hexdigest() == (
            "043670d3473948a3535fd7e7f505d1fa31873a98518b9490d9a96b1f3772a1a9")

    def test_non_perfect_rejected(self, higman_D):
        with pytest.raises(PerfectionRequired):
            find_commutator_witnesses(higman_D)

    def test_search_agrees_on_feasible_corpus(self):
        corpus = [
            presentation(["x"], ["x"]),
            presentation(["x", "y"], ["x", "y"]),
            presentation(["x", "y"], ["x*y^2", "x*y"]),
        ]
        for P in corpus:
            U = miller_uce(P)
            searched = search_commutator_witnesses(P, 3_000_000)
            assert len(U.witnesses) == len(searched)
            for wc, ws in zip(U.witnesses, searched):
                assert wc.generator == ws.generator
                assert wc.verify(P) and ws.verify(P)
            # the extensions built from either witness set have one order
            tables = [todd_coxeter(U.result), todd_coxeter(search_extension(P, searched))]
            assert all(t.complete for t in tables)
            assert tables[0].index == tables[1].index

    def test_search_budget_exhaustion(self, icosahedral):
        # the minimal witness for this input needs 15 relator factors; a
        # small budget must exhaust rather than mislead
        with pytest.raises(BudgetExhausted):
            search_commutator_witnesses(icosahedral, 2000)


class TestMillerUce:
    def test_icosahedral_orders(self, icosahedral):
        U = miller_uce(icosahedral)
        base = todd_coxeter(icosahedral, (), max_cosets=100_000)
        cover = todd_coxeter(U.result, (), max_cosets=100_000)
        assert base.index == 60 and cover.index == 120

    def test_relator_count_higman(self, higman_J):
        U = miller_uce(higman_J)
        assert U.expected_relator_count == 4 + 4 * 4
        assert len(U.result.relators) == 20
        assert U.dropped_trivial_relators == 0

    def test_h1_trivial_for_corpus(self, higman_J, icosahedral):
        for P in (higman_J, icosahedral, presentation(["x"], ["x"])):
            U = miller_uce(P)
            assert h1(U.result).group.is_trivial

    def test_uce_of_superperfect_keeps_order(self, icosahedral):
        # the extension of a super-perfect group is the group itself; the
        # binary icosahedral presentation is super-perfect of order 120
        U = miller_uce(icosahedral)
        UU = miller_uce(U.result)
        assert todd_coxeter(UU.result, (), max_cosets=400_000).index == 120

    def test_kernel_words_are_base_relators(self, icosahedral):
        U = miller_uce(icosahedral)
        assert U.central_kernel_words == icosahedral.relators

    def test_witness_certificates_reverify(self, icosahedral, higman_J):
        for P in (icosahedral, higman_J):
            U = miller_uce(P)
            for w in U.witnesses:
                assert w.verify(P)
                x = P.alphabet.gen(w.generator)
                assert free_reduce(x.concat(w.c)) == w.rho.expanded

    @pytest.mark.parametrize("name", ["icosahedral", "higman_J"])
    def test_smith_forms_once_per_checked_presentation(self, name, request, monkeypatch):
        # one Smith form for the input (perfection and every witness solve),
        # one for the output check, which reads only the relators x * c_x
        import presforge.homology as homology
        P = request.getfixturevalue(name)
        rows = []
        smith_normal_form = homology.smith_normal_form

        def counting(M):
            rows.append(len(M))
            return smith_normal_form(M)

        monkeypatch.setattr(homology, "smith_normal_form", counting)
        miller_uce(P)
        assert len(rows) == 2
        assert max(rows) <= max(len(P.relators), P.alphabet.rank)

    def test_output_check_rejects_nonperfect_result(self, monkeypatch):
        import presforge.uce as uce
        P = presentation(["x"], ["x"])
        (w,) = find_commutator_witnesses(P)
        bad = uce.CommutatorWitness(w.generator, P.alphabet.gen("x"), w.rho)
        monkeypatch.setattr(uce, "find_commutator_witnesses", lambda *a, **k: [bad])
        with pytest.raises(AssertionError, match="not perfect"):
            miller_uce(P)


class TestExpress:
    def test_power_in_cyclic_subgroup(self):
        F = presentation(["x"], [])
        res = express_in_generators(F, [F.word("x^2")], F.word("x^4"), budget=10_000)
        assert res.status == "found"
        assert render_word(res.word) == "s0^2"
        assert res.certificate.factors == ()

    def test_conjugate_via_commuting_relator(self):
        G = presentation(["a", "b"], ["[a,b]"])
        res = express_in_generators(G, [G.word("a")], G.word("b*a*b^-1"),
                                    budget=500_000)
        assert res.status == "found"
        assert render_word(res.word) == "s0"
        assert len(res.certificate.factors) == 1
        assert res.certificate.verify(G)

    def test_not_in_subgroup_is_inconclusive(self):
        F = presentation(["x"], [])
        res = express_in_generators(F, [F.word("x^2")], F.word("x^3"), budget=2000)
        assert res.status == "exhausted"
        assert res.word is None


@pytest.fixture(scope="module")
def setup(icosahedral):
    U = miller_uce(icosahedral)
    cover_oracle = word_problem_oracle(U.result)
    base_oracle = word_problem_oracle(icosahedral)
    return U, cover_oracle, base_oracle


class TestTransfer:
    def test_kernel_commutators_trivial(self, setup):
        U, cover_oracle, base_oracle = setup
        ext, delete, subst = kernel_symbols(U)
        for j in range(len(U.central_kernel_words)):
            for x in U.base.alphabet.symbols:
                W = commutator(ext.gen(x), ext.gen(f"z{j + 1}"))
                res = uce_word_transfer(U, "to_cover", W, base_oracle, budget=50_000)
                assert res.verdict == "trivial", (x, j, res)

    def test_to_cover_agrees_with_coset_table(self, setup):
        U, cover_oracle, base_oracle = setup
        ext, delete, subst = kernel_symbols(U)
        from presforge.freewords import apply_map
        rng = random.Random(31)

        def truth(W):
            # evaluate the substituted word in the regular action of the
            # order-120 extension
            w = apply_map(W, subst, target=U.base.alphabet)
            return cover_oracle(w)

        decided = 0
        # generic words: almost all have nontrivial base projection
        while decided < 40:
            letters = tuple((rng.randrange(ext.rank), rng.choice((1, -1)))
                            for _ in range(rng.randint(1, 8)))
            W = free_reduce(Word(ext, letters))
            res = uce_word_transfer(U, "to_cover", W, base_oracle, budget=5000)
            if res.verdict == "inconclusive":
                continue
            assert (res.verdict == "trivial") == truth(W)
            decided += 1
        # guaranteed-trivial words: short conjugates of extension relators
        for i in range(10):
            r = U.result.relators[i % len(U.result.relators)]
            g = Word(ext, ((rng.randrange(U.base.alphabet.rank), 1),))
            W = free_reduce(g.concat(Word(ext, r.letters)).concat(g.inverse()))
            res = uce_word_transfer(U, "to_cover", W, base_oracle, budget=100_000)
            assert res.verdict == "trivial" and truth(W)
            assert res.expression is not None and res.expression.certificate.verify(U.result)

    def test_to_cover_negative(self, setup):
        U, cover_oracle, base_oracle = setup
        ext, _, _ = kernel_symbols(U)
        res = uce_word_transfer(U, "to_cover", ext.gen("a"), base_oracle)
        assert res.verdict == "nontrivial" and res.stage == "base-projection"

    def test_to_base_noncentral(self, setup):
        U, cover_oracle, base_oracle = setup
        res = uce_word_transfer(U, "to_base", U.base.alphabet.gen("a"),
                                cover_oracle, budget=1000)
        assert res.verdict == "nontrivial" and res.stage == "centrality"

    def test_to_base_trivial_word(self, setup):
        U, cover_oracle, base_oracle = setup
        w = U.base.word("(a*b)^5")
        res = uce_word_transfer(U, "to_base", w, cover_oracle,
                                budget=100_000)
        assert res.verdict == "trivial" and res.stage == "kernel-membership"
        assert res.expression.certificate.verify(U.result)


class TestReducedWords:
    def test_order_and_reducedness(self):
        alph = Alphabet(["a", "b"])
        ws = list(itertools.islice(reduced_words(alph), 25))
        assert ws[0] == alph.identity()
        lengths = [len(w) for w in ws]
        assert lengths == sorted(lengths)
        assert all(w.is_reduced() for w in ws)
        assert len(set(ws)) == len(ws)


def test_superperfect_uce_scans_no_commutator_relator(monkeypatch, higman_D):
    """The 4,050 commutator relators of `miller_uce(super_perfectify(D))`
    are built known to be reduced, so neither `commutator` nor the
    presentation's check scans one for free reduction; parsing that input
    scans each of its relators once, and nothing else."""
    S = super_perfectify(higman_D).presentation
    text = render_presentation(S)
    scanned = collections.Counter()  # texts of the words is_reduced scans
    is_reduced = Word.is_reduced

    def counted(w):
        if w._reduced is None:
            scanned[w.text] += 1
        return is_reduced(w)

    monkeypatch.setattr(Word, "is_reduced", counted)
    U = miller_uce(S).result
    commutators = U.relators[U.alphabet.rank:]
    assert len(commutators) == 4050
    assert not any(r.text in scanned for r in commutators)
    scanned.clear()
    P = parse_presentation(text)
    assert P == S and scanned == collections.Counter(r.text for r in P.relators)


def test_uce_witnesses_scan_no_word(monkeypatch, higman_D):
    """Each witness is written out by joining reduced texts with
    `reduce_join`, so `miller_uce` on a presentation, whose relators are
    known to be reduced, scans no word for free reduction: not a closure
    element's expansion, not c_x and not x*c_x, when found, verified or
    written as a relator."""
    S = super_perfectify(higman_D).presentation
    scanned = []  # texts of the words is_reduced scans
    is_reduced = Word.is_reduced

    def counted(w):
        if w._reduced is None:
            scanned.append(w.text)
        return is_reduced(w)

    monkeypatch.setattr(Word, "is_reduced", counted)
    U = miller_uce(S)
    assert len(U.witnesses) == S.alphabet.rank == 15
    assert scanned == []
