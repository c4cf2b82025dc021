"""Acceptance suite: one test per criterion, each printing a pass line.

Run `pytest tests/test_acceptance.py -v -rA` to see the per-criterion
lines.  Budgets follow the stated limits; the numeric ones are asserted.
"""

import os
import random
import time

from click.testing import CliRunner

from presforge.cli import main as cli_main
from presforge.constructions import (
    PairWord,
    acyclic_subdirect,
    conjugacy_gadget,
    delta_amalgam,
    fibre_generators,
    kill_finite_quotients,
    super_perfectify,
)
from presforge.freewords import Word, free_reduce, render_word
from presforge.homology import h1, h2_aspherical, smith_normal_form
from presforge.presentations import (
    PresentationMorphism,
    direct_product_presentation,
    presentation,
    rename_generators,
)
from presforge.quotients import (
    conjugacy_class_reps,
    finite_quotient_certificate,
    hom_search,
    todd_coxeter,
)
from presforge.smallcancel import DehnSolver, metric_certificate
from presforge.uce import miller_uce

from oracles import (
    brute_force_homs,
    dehn_certificate_holds,
    direct_sum,
    fibre_membership,
    free_product,
    gadget_conjugacy_decision,
    image_of,
    killed_quotient,
    minors_gcd,
    reduce_pair,
    tietze_eliminate_generator,
    word_problem_oracle,
)

STRETCH = bool(os.environ.get("PRESFORGE_STRETCH"))


def report(n, elapsed, detail):
    print(f"[acceptance] criterion {n}: PASS ({elapsed:.2f}s) -- {detail}")


def rand_reduced(alph, n, rng):
    return free_reduce(Word(alph, tuple(
        (rng.randrange(alph.rank), rng.choice((1, -1))) for _ in range(n))))


def test_criterion_1_higman_facts(higman_J, higman_D):
    t0 = time.time()
    assert h1(higman_J).group.is_trivial
    assert h2_aspherical(higman_J).group.is_trivial

    res_d = h1(higman_D)
    assert res_d.group.rank == 1 and res_d.group.torsion == ()
    assert res_d.generator_images["alpha"] in ((1,), (-1,))
    assert res_d.generator_images["beta"] == (0,)
    assert res_d.generator_images["gamma"] == (0,)

    # the six-generator amalgam of two copies of D simplifies to J
    from test_presentations import higman_amalgam_presentation
    amalgam = higman_amalgam_presentation()
    step1 = tietze_eliminate_generator(
        amalgam, "alpha_2",
        next(i for i, r in enumerate(amalgam.relators)
             if len(r) == 2 and "alpha_2" in render_word(r)))
    P1 = step1.presentation
    step2 = tietze_eliminate_generator(
        P1, "gamma_2",
        next(i for i, r in enumerate(P1.relators)
             if len(r) == 2 and "gamma_2" in render_word(r)))
    renamed = rename_generators(
        step2.presentation,
        {"alpha_1": "a", "beta_1": "b", "gamma_1": "c", "beta_2": "d"})
    assert set(map(render_word, renamed.relators)) == \
        set(map(render_word, higman_J.relators))
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(1, elapsed, "h1(J)=0, h2(J)=0, h1(D)=Z<alpha>, amalgam -> J")


def test_criterion_2_finite_quotient_certificates(higman_J):
    t0 = time.time()
    max_j = 6 if STRETCH else 5
    for k in range(2, max_j + 1):
        homs = hom_search(higman_J, k)
        assert len(homs) == 1 and homs[0].is_trivial, f"J -> S_{k}"

    delta = delta_amalgam(["x"]).delta
    assert finite_quotient_certificate(delta, 4).certified

    sp = super_perfectify(presentation(["x"], ["x^2"])).presentation
    assert finite_quotient_certificate(sp, 4).certified

    # pruning cross-validated against unpruned and raw enumeration at k <= 3
    for P in (higman_J, delta, sp):
        first = P.alphabet.symbols[0]
        for k in (2, 3):
            unpruned = hom_search(P, k, prune=False)
            pruned = hom_search(P, k, prune=True)
            reps = set(conjugacy_class_reps(k))
            assert sorted(map(hash, pruned)) == sorted(
                map(hash, [h for h in unpruned if image_of(h, first) in reps]))
            if P.alphabet.rank <= 5:
                assert sorted(map(hash, unpruned)) == sorted(
                    map(hash, brute_force_homs(P, k)))
    elapsed = time.time() - t0
    assert elapsed < 300
    report(2, elapsed,
           f"J trivial-only to S_k (k<={max_j}), delta and super-perfect "
           "outputs certified at K=4, pruning cross-validated")


def test_criterion_3_uce_correctness(icosahedral, higman_J, perfect_certified):
    t0 = time.time()
    base = todd_coxeter(icosahedral, (), max_cosets=100_000)
    assert base.complete and base.index == 60
    U = miller_uce(icosahedral)
    cover = todd_coxeter(U.result, (), max_cosets=100_000)
    assert cover.complete and cover.index == 120

    corpus = [
        icosahedral,
        higman_J,
        perfect_certified,
        kill_finite_quotients(presentation(["x"], ["x"])).pi_prime,
        kill_finite_quotients(presentation(["x"], ["x^2"])).pi_prime,
    ]
    witnesses = 0
    for P in corpus:
        out = miller_uce(P)
        assert h1(out.result).group.is_trivial
        for w in out.witnesses:
            assert w.verify(P)
            witnesses += 1
    elapsed = time.time() - t0
    assert elapsed < 30
    report(3, elapsed,
           f"orders 60/120, h1=0 on {len(corpus)} extensions, "
           f"{witnesses} witness certificates re-verified")


def test_criterion_4_rips_contract(higman_J, trivial_pres, rips_higman, rips_trivial):
    t0 = time.time()
    for P, out in ((higman_J, rips_higman), (trivial_pres, rips_trivial)):
        assert out.gamma.alphabet.rank == P.alphabet.rank + 3
        assert len(out.gamma.relators) == len(P.relators) + 6 * P.alphabet.rank
        assert out.certificate.passed and out.certificate.lam.denominator == 6
        assert metric_certificate(out.gamma).passed  # recomputed from scratch
        assert h1(killed_quotient(out)).group == h1(P).group
    elapsed = time.time() - t0
    assert elapsed < 300
    report(4, elapsed, "counts |R|+6|X| and +3 generators, C'(1/6) pass, "
                       "killing recovers input h1")


def test_criterion_5_dehn_soundness(rips_trivial):
    t0 = time.time()
    G = rips_trivial.gamma
    solver = DehnSolver(G, certificate=rips_trivial.certificate)
    rng = random.Random(95)

    trivial_done = 0
    while trivial_done < 100:
        acc = G.alphabet.identity()
        for _ in range(rng.randint(1, 5)):
            r = G.relators[rng.randrange(len(G.relators))]
            if rng.random() < 0.5:
                r = r.inverse()
            c = rand_reduced(G.alphabet, rng.randrange(4), rng)
            acc = acc.concat(c).concat(r).concat(c.inverse())
        w = free_reduce(acc)
        if not w.letters:
            continue
        res = solver.solve(w)
        assert res.trivial, "constructed trivial word not recognized"
        assert dehn_certificate_holds(res, G, w), "certificate failed to re-expand"
        trivial_done += 1

    nontrivial_done = 0
    while nontrivial_done < 100:
        w = rand_reduced(G.alphabet, rng.randint(1, 15), rng)
        if not w.letters:
            continue
        res = solver.solve(w)
        assert res.replacements == 0, "short word unexpectedly reduced"
        assert not res.trivial
        nontrivial_done += 1
    elapsed = time.time() - t0
    assert elapsed < 300
    report(5, elapsed, "100 built trivial words certified, 100 irreducible "
                       "words reported nontrivial")


def test_criterion_6_pipeline_collapse(trivial_pres):
    t0 = time.time()
    kr = kill_finite_quotients(trivial_pres)
    table = todd_coxeter(kr.pi_prime, (), max_cosets=100_000)
    assert table.complete, (
        f"collapse overflowed the default budget ({table.cosets_defined} cosets); "
        "escalate the budget and investigate")
    assert table.index == 1

    sp = super_perfectify(trivial_pres)
    table2 = todd_coxeter(sp.presentation, (), max_cosets=100_000)
    assert table2.complete, (
        f"collapse overflowed the default budget ({table2.cosets_defined} cosets)")
    assert table2.index == 1
    elapsed = time.time() - t0
    assert elapsed < 300
    report(6, elapsed,
           f"both stages collapse to the trivial group "
           f"({table.cosets_defined} and {table2.cosets_defined} cosets defined)")


def test_criterion_7_fibre_and_gadget(icosahedral, rips_trivial, kill_trivial,
                                      perfect_certified):
    t0 = time.time()
    # membership of every listed generator, per kind
    s_set = fibre_generators("S", quotient=icosahedral)
    ico_oracle = word_problem_oracle(icosahedral)
    p_free = PresentationMorphism(
        s_set.factor, icosahedral,
        {s: icosahedral.alphabet.gen(s) for s in s_set.factor.alphabet.symbols})
    for pw in s_set.elements:
        assert fibre_membership(pw, p_free, ico_oracle)

    u_set = fibre_generators("U", rips=rips_trivial)
    collapse_oracle = word_problem_oracle(presentation(["x"], ["x"]))
    for pw in u_set.elements:
        assert fibre_membership(pw, rips_trivial.p, collapse_oracle)

    theta = fibre_generators("theta", kill=kill_trivial)
    sub = acyclic_subdirect(kill_trivial)
    theta_oracle = word_problem_oracle(kill_trivial.simplified)
    for pw in theta.elements:
        assert fibre_membership(pw, sub.q, theta_oracle)

    # gadget identity on 200 random words
    rng = random.Random(96)
    a = perfect_certified.relators[0]
    alph = perfect_certified.alphabet
    for _ in range(200):
        w = rand_reduced(alph, rng.randrange(10), rng)
        first, second = conjugacy_gadget(w, a)
        assert second.conjugated_by(PairWord(w, alph.identity())) == reduce_pair(first)

    # two independent verdict paths on a certified perfect presentation
    Q = perfect_certified
    solver = DehnSolver(Q)
    free_pres = presentation(Q.alphabet.symbols, [])
    p = PresentationMorphism(
        free_pres, Q, {s: Q.alphabet.gen(s) for s in Q.alphabet.symbols})
    dehn_oracle = lambda x: solver.solve(x).trivial
    kernel = Word(free_pres.alphabet, Q.relators[0].letters)
    for _ in range(200):
        w = rand_reduced(free_pres.alphabet, rng.randrange(8), rng)
        direct = solver.solve(Word(Q.alphabet, w.letters)).trivial
        via_membership = fibre_membership(
            PairWord(w, free_pres.alphabet.identity()), p, dehn_oracle)
        via_gadget = gadget_conjugacy_decision(w, kernel, p, dehn_oracle)
        assert via_membership == direct == via_gadget
    elapsed = time.time() - t0
    assert elapsed < 300
    report(7, elapsed, "S/U/theta membership, 200 gadget identities, "
                       "200 two-path verdict agreements")


def test_criterion_8_counting_invariants(higman_D):
    t0 = time.time()
    rng = random.Random(97)

    # closed-form h1 prediction equals the input relator count
    for rels in (["x*y", "x^3"], ["x*y*x^-1*y^-2"], ["x^2*y^2", "y^4", "x*y"]):
        P = presentation(["x", "y"], rels)
        res = acyclic_subdirect(kill_finite_quotients(P))
        assert res.predicted_h1.rank == len(P.relators)
        assert res.predicted_h1.torsion == ()

    # h1 additivity for products
    from test_presentations import rand_presentation
    for _ in range(20):
        P1, P2 = rand_presentation(rng), rand_presentation(rng)
        assert h1(direct_product_presentation(P1, P2)).group == \
            direct_sum(h1(P1).group, h1(P2).group)
        assert h1(free_product(P1, P2, auto_rename=True)).group == \
            direct_sum(h1(P1).group, h1(P2).group)

    # relator-count constancy over a family with fixed |R|
    family = [presentation(["x"], [f"x^{k}"]) for k in (1, 3, 5, 7)]
    sizes = {len(kill_finite_quotients(P).pi_prime.relators) for P in family}
    assert len(sizes) == 1
    count = sizes.pop()
    assert count > kill_finite_quotients(family[0]).pi_prime.alphabet.rank
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(8, elapsed, "predicted rank = |R|, product/free-product h1 "
                       "additivity, attachment relator-count constancy")


def test_criterion_9_infrastructure(tmp_path):
    t0 = time.time()
    rng = random.Random(98)

    # free_reduce against an independently written stack machine
    def stack_oracle(letters):
        stack = []
        for idx, sign in letters:
            if stack and stack[-1] == (idx, -sign):
                stack.pop()
            else:
                stack.append((idx, sign))
        return tuple(stack)

    from presforge.freewords import Alphabet
    alph = Alphabet(["a", "b", "c"])
    for _ in range(10_000):
        letters = tuple((rng.randrange(3), rng.choice((1, -1)))
                        for _ in range(rng.randrange(20)))
        assert free_reduce(Word(alph, letters)).letters == stack_oracle(letters)

    # SNF transform verification on 1000 random matrices up to 6x6
    for _ in range(1000):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        form = smith_normal_form(M)
        assert form.verify(M)
        for i in range(len(form.diagonal) - 1):
            assert form.diagonal[i + 1] % form.diagonal[i] == 0

    # gcd-of-minors oracle up to 3x3
    for _ in range(200):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        M = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        form = smith_normal_form(M)
        prod = 1
        for k, d in enumerate(form.diagonal, start=1):
            prod *= d
            assert prod == minors_gcd(M, k)

    # manifest reproducibility: byte-identical artifacts on rerun
    runner = CliRunner()
    src = tmp_path / "triv.pres"
    src.write_text("< x | x >\n")
    snapshots = []
    for d in ("m1", "m2"):
        out = tmp_path / d
        result = runner.invoke(cli_main, ["bg-pipeline", str(src), "--outdir", str(out)])
        assert result.exit_code == 0
        snapshots.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert snapshots[0] == snapshots[1]
    names = set(snapshots[0])
    assert any(n.endswith("manifest.json") for n in names)
    elapsed = time.time() - t0
    assert elapsed < 300
    report(9, elapsed, "10^4 reductions vs stack oracle, 10^3 verified SNFs, "
                       "minors oracle, byte-identical reruns")
