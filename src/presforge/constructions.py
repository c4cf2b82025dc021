"""Headline construction algorithms: the small-cancellation (Rips-type)
transform, the finite-quotient-killing attachment, super-perfectification,
the fibre/subdirect-product generating sets, the conjugacy gadget and the
amalgam of F x F with doubled attachments.

Conventions fixed here:

* Direct-product alphabets tag factors ``<name>_L`` / ``<name>_R``; a
  :class:`PairWord` stores the two components over the factor alphabet.
* Conjugation follows the right action x^g = g^-1 x g, so ``(w,1)``
  carries ``(a,a)`` to ``(w^-1 a w, a)``.
* The transform's padding words use blocks of the three fresh letters with
  run lengths encoding (block index, relator index); the C'(1/6)
  certificate, not the particular recipe, is the correctness contract, and
  the block count escalates automatically until the certificate passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .freewords import (
    Alphabet,
    Word,
    free_reduce,
    identity_images,
    relabel,
    render_word,
)
from .homology import AbelianGroupDescriptor
from .presentations import (
    FinitePresentation,
    PresentationError,
    PresentationMorphism,
    amalgamated_product,
    direct_product_presentation,
    higman_presentations,
    presentation,
    rename_generators,
)
from .smallcancel import MetricCertificate, metric_certificate
from .uce import UcePresentation, miller_uce


class ConstructionError(PresentationError):
    """Inputs do not have the shape a construction requires."""


# --- pair words -------------------------------------------------------------

@dataclass(frozen=True)
class PairWord:
    """Element of G x G as an ordered pair of words over the factor
    alphabet; product and inverse act componentwise."""

    left: Word
    right: Word

    def __post_init__(self):
        if self.left.alphabet != self.right.alphabet:
            raise ConstructionError("pair components over different alphabets")

    def __mul__(self, other: "PairWord") -> "PairWord":
        return PairWord(self.left * other.left, self.right * other.right)

    def inverse(self) -> "PairWord":
        return PairWord(self.left.inverse(), self.right.inverse())

    def conjugated_by(self, g: "PairWord") -> "PairWord":
        """g^-1 * self * g, componentwise, freely reduced."""
        return PairWord(self.left.conjugated_by(g.left),
                        self.right.conjugated_by(g.right))

    def __str__(self) -> str:
        return f"({render_word(self.left)}, {render_word(self.right)})"


# --- the small-cancellation transform ----------------------------------------

@dataclass
class RipsOutput:
    """Transform output: the presentation over three extra generators, the
    quotient map killing them, and the metric certificate."""

    gamma: FinitePresentation
    p: PresentationMorphism
    kernel_generators: tuple[str, str, str]
    certificate: MetricCertificate
    blocks: int


def _fresh_kernel_names(alphabet: Alphabet) -> tuple[str, str, str]:
    base = ["a1", "a2", "a3"]
    while any(n in alphabet for n in base):
        base = ["a" + n for n in base]
    return tuple(base)  # type: ignore[return-value]


def _padding_word(alph: Alphabet, kernel: tuple[str, str, str],
                  t: int, blocks: int) -> Word:
    """Block word a1 a2^(j+2) a3^(t+2), j = 0..blocks-1: the a2 run walks
    the block index, the a3 run pins the relator index, so no run pattern
    repeats across distinct cyclic positions of distinct relators."""
    a1, a2, a3 = (alph.gen(k).text for k in kernel)
    return Word._trusted(alph, "".join(a1 + a2 * (j + 2) + a3 * (t + 2) for j in range(blocks)))


_RIPS_MAX_DOUBLINGS = 8


def rips_wise(P: FinitePresentation, initial_blocks: int = 16) -> RipsOutput:
    """Associate to <X | R> a presentation on X plus three fresh generators
    with exactly |R| + 6|X| relators: r * W^-1 for each input relator, and
    x^e a_i x^-e * W^-1 for each generator x, i in {1,2,3}, e in {+1,-1}.

    The padding words W are drawn from the deterministic block scheme of
    `_padding_word`; if the C'(1/6) certificate fails, the block count
    doubles and the construction retries, at most `_RIPS_MAX_DOUBLINGS`
    times (piece lengths stay bounded while relator lengths grow, so
    escalation terminates).
    """
    kernel = _fresh_kernel_names(P.alphabet)
    alph = Alphabet(P.alphabet.symbols + kernel)
    prefixes = relabel(P.relators, alph) + [
        xw.concat(alph.gen(ai)).concat(xw.inverse())
        for x in P.alphabet.symbols for ai in kernel
        for xw in (alph.gen(x), alph.gen(x).inverse())]

    blocks = initial_blocks
    for _ in range(_RIPS_MAX_DOUBLINGS + 1):
        gamma = FinitePresentation(alph, tuple(
            free_reduce(prefix.concat(_padding_word(alph, kernel, t, blocks).inverse()))
            for t, prefix in enumerate(prefixes)))
        cert = metric_certificate(gamma)
        if cert.passed:
            images = identity_images(P.alphabet) | dict.fromkeys(kernel, P.alphabet.identity())
            p = PresentationMorphism(
                gamma, P, images,
                witness="padding letters die; each relator maps to an input "
                        "relator or freely cancels")
            return RipsOutput(gamma=gamma, p=p, kernel_generators=kernel,
                              certificate=cert, blocks=blocks)
        blocks *= 2
    raise ConstructionError(
        f"metric certificate still failing after {_RIPS_MAX_DOUBLINGS} doublings "
        f"(blocks={blocks}); input relators likely too repetitive")


# --- finite-quotient killing -------------------------------------------------

def _fresh_copies(generators: Sequence[str], count: int,
                  used: set[str]) -> list[tuple[str, ...]]:
    """Generator names of `count` copies of a presentation: g_i for copy i,
    suffixed with '_' until unused.  `used` grows by the names chosen."""
    copies = []
    for i in range(1, count + 1):
        names = []
        for g in generators:
            cand = f"{g}_{i}"
            while cand in used:
                cand += "_"
            used.add(cand)
            names.append(cand)
        copies.append(tuple(names))
    return copies


@dataclass
class KillResult:
    """Both forms of the attachment construction: the raw form with the
    original generators kept, and the simplified form with each original
    generator eliminated against its identification relator."""

    input: FinitePresentation
    attach: FinitePresentation
    distinguished: str
    pi_prime: FinitePresentation
    simplified: FinitePresentation
    copies: tuple[tuple[str, ...], ...]      # generator names of each copy
    copy_distinguished: tuple[str, ...]      # y_i names
    v_words: tuple[Word, ...]                # input relators rewritten over the copies

    @property
    def copy_count(self) -> int:
        return len(self.copies)


def kill_finite_quotients(P: FinitePresentation) -> KillResult:
    """Attach one copy of Higman's group J per generator of P, identifying
    generator x_i with the distinguished generator d of copy i (the normal
    closure of any generator is all of J, so every finite quotient of the
    output dies).  Relator order: input relators, then the copies'
    relators, then the identifications x_i^-1 y_i.
    """
    A, _ = higman_presentations()
    y = "d"
    copies = _fresh_copies(A.alphabet.symbols, P.alphabet.rank, set(P.alphabet.symbols))
    ys = tuple(names[A.alphabet.index(y)] for names in copies)
    copy_names = tuple(n for c in copies for n in c)

    def glue(alph: Alphabet, input_names: Sequence[str]) -> list[Word]:
        rels = relabel(P.relators, alph, input_names)
        for names in copies:
            rels += relabel(A.relators, alph, names)
        return rels

    alph = Alphabet(P.alphabet.symbols + copy_names)
    rels = glue(alph, P.alphabet.symbols)
    for x, yi in zip(P.alphabet.symbols, ys):
        rels.append(alph.gen(x).inverse().concat(alph.gen(yi)))
    note = None
    if P.aspherical and A.aspherical:
        note = ("amalgam chain along infinite-cyclic subgroups of aspherical "
                "pieces; valid when the presented group is nontrivial "
                f"(input note: {P.aspherical}; attachment note: {A.aspherical})")
    pi_prime = FinitePresentation(alph, tuple(rels), aspherical=note)
    # eliminating each x_i against x_i^-1 y_i is the renaming x_i -> y_i
    simp_alph = Alphabet(copy_names)
    simplified = FinitePresentation(simp_alph, tuple(glue(simp_alph, ys)), aspherical=note)

    nv = len(P.relators)
    return KillResult(
        input=P,
        attach=A,
        distinguished=y,
        pi_prime=pi_prime,
        simplified=simplified,
        copies=tuple(copies),
        copy_distinguished=ys,
        v_words=simplified.relators[:nv],
    )


@dataclass
class SuperPerfectResult:
    presentation: FinitePresentation
    kill: KillResult
    uce: UcePresentation

    @property
    def relator_count_formula(self) -> tuple[int, int]:
        """(expected |X| + |X|*|Sigma|, actual)."""
        return (self.uce.expected_relator_count, len(self.presentation.relators))


def super_perfectify(P: FinitePresentation) -> SuperPerfectResult:
    """Kill all finite quotients by attachment, then present the universal
    central extension of the result: the output has H1 = 0, no finite
    quotients detectable at any bounded degree, and a fixed generator set
    across any input family with a fixed generator count.  The attachment
    stage is perfect: each J copy has H1 = 0 and x_i = y_i.
    """
    kill = kill_finite_quotients(P)
    uce = miller_uce(kill.pi_prime)
    return SuperPerfectResult(presentation=uce.result, kill=kill, uce=uce)


# --- fibre generating sets ---------------------------------------------------

@dataclass
class GeneratingSet:
    """A tagged list of pair-words (or plain words) over an ambient
    presentation, with the construction it came from."""

    kind: str
    ambient: FinitePresentation
    elements: tuple
    factor: FinitePresentation | None = None
    notes: str = ""

    def __len__(self) -> int:
        return len(self.elements)


def fibre_generators(kind: str, **inputs) -> GeneratingSet:
    """The named fibre-product generating sets, by tag:

    - "S": inputs quotient=<X|R>; pairs {(x,x)} u {(r,1)} generating the
      fibre product of F(X) -> <X|R> inside F x F (cardinality |X|+|R|).
    - "U": inputs rips=RipsOutput; pairs {(a_i,1),(1,a_i)} u {(x,x)}
      generating the fibre product of the transform inside Gamma x Gamma
      (cardinality 6 + |X-hat|).
    - "theta": inputs kill=KillResult; pairs {(y,y) : y in the copies}
      u {(v,1) : v rewritten input relator} inside H x H, H the free
      product of the copies (cardinality |Y| + |V|).
    - "theta_tilde": inputs kill plus rips (of H); theta reread in
      Gamma x Gamma together with the six kernel pairs.
    """
    if kind == "S":
        Q: FinitePresentation = inputs["quotient"]
        F = presentation(Q.alphabet.symbols, [])
        ambient = direct_product_presentation(F, F)
        elems = [PairWord(F.alphabet.gen(x), F.alphabet.gen(x)) for x in F.alphabet.symbols]
        # F's alphabet equals Q's: an Alphabet compares by its symbols
        elems += [PairWord(r, F.alphabet.identity()) for r in Q.relators]
        return GeneratingSet("S", ambient, tuple(elems), factor=F,
                             notes="diagonal generators plus left relator slices")
    if kind == "U":
        rips: RipsOutput = inputs["rips"]
        G = rips.gamma
        ambient = direct_product_presentation(G, G)
        one = G.alphabet.identity()
        elems = [PairWord(G.alphabet.gen(a), one) for a in rips.kernel_generators]
        elems += [PairWord(one, G.alphabet.gen(a)) for a in rips.kernel_generators]
        elems += [PairWord(G.alphabet.gen(x), G.alphabet.gen(x)) for x in G.alphabet.symbols]
        return GeneratingSet("U", ambient, tuple(elems), factor=G,
                             notes="kernel slices plus the diagonal")
    if kind == "theta":
        kill: KillResult = inputs["kill"]
        H = free_product_of_copies(kill)
        ambient = direct_product_presentation(H, H)
        elems = [PairWord(u, v) for u, v in zip(*_theta_pairs(kill))]
        return GeneratingSet("theta", ambient, tuple(elems), factor=H,
                             notes="diagonal plus left rewritten-relator slices")
    if kind == "theta_tilde":
        kill = inputs["kill"]
        rips = inputs["rips"]
        G = rips.gamma
        ambient = direct_product_presentation(G, G)
        one = G.alphabet.identity()
        lefts, rights = (relabel(side, G.alphabet) for side in _theta_pairs(kill))
        elems = [PairWord(u, v) for u, v in zip(lefts, rights)]
        elems += [PairWord(G.alphabet.gen(a), one) for a in rips.kernel_generators]
        elems += [PairWord(one, G.alphabet.gen(a)) for a in rips.kernel_generators]
        return GeneratingSet("theta_tilde", ambient, tuple(elems), factor=G,
                             notes="theta generators reread in the transform, plus kernel slices")
    raise ConstructionError(f"unknown generating-set kind {kind!r}")


def _theta_pairs(kill: KillResult) -> tuple[list[Word], list[Word]]:
    """The left and the right components of the theta generators, over the
    copies' alphabet: {(y,y) : y in the copies} then {(v,1) : v in V}."""
    alph = kill.simplified.alphabet
    ys = [alph.gen(y) for y in alph.symbols]
    return ys + list(kill.v_words), ys + [alph.identity()] * len(kill.v_words)


def free_product_of_copies(kill: KillResult) -> FinitePresentation:
    """Free product of the attached copies: all copy generators, all copy
    relators (the simplified form without the rewritten input relators)."""
    S = kill.simplified
    note = None
    if kill.attach.aspherical:
        note = f"free product of aspherical copies ({kill.attach.aspherical})"
    return FinitePresentation(S.alphabet, S.relators[len(kill.v_words):], aspherical=note)


# --- conjugacy gadget --------------------------------------------------------

def conjugacy_gadget(w: Word, a: Word) -> tuple[PairWord, PairWord]:
    """The pair ((w^-1 a w, a), (a, a)); conjugating the second by (w,1)
    under the right action yields the first (machine-checked here)."""
    if w.alphabet != a.alphabet:
        raise ConstructionError("gadget inputs over different alphabets")
    first = PairWord(a.conjugated_by(w), free_reduce(a))
    second = PairWord(free_reduce(a), free_reduce(a))
    g = PairWord(w, w.alphabet.identity())
    if second.conjugated_by(g) != first:
        raise AssertionError("gadget conjugation identity failed (internal error)")
    return first, second


# --- subdirect product with acyclic factors ---------------------------------

@dataclass
class AcyclicSubdirectResult:
    H: FinitePresentation
    q: PresentationMorphism
    theta: GeneratingSet
    predicted_h1: AbelianGroupDescriptor


def acyclic_subdirect(kill: KillResult) -> AcyclicSubdirectResult:
    """From the simplified attachment form, build the free product H of the
    attached copies, the epimorphism q implicit in the generator labels,
    the fibre generating set theta, and the closed-form prediction for the
    first homology of the subdirect product when the quotient is
    nontrivial: free of rank = number of rewritten input relators
    (relators minus generators of the raw attachment form).
    """
    if not isinstance(kill, KillResult):
        raise ConstructionError(
            "acyclic_subdirect consumes the KillResult of kill_finite_quotients")
    H = free_product_of_copies(kill)
    target = kill.simplified
    images = {y: target.alphabet.gen(y) for y in H.alphabet.symbols}
    q = PresentationMorphism(
        H, target, images,
        witness="copy relators are relators of the simplified attachment form")
    theta = fibre_generators("theta", kill=kill)
    m = len(kill.pi_prime.relators)
    n = kill.pi_prime.alphabet.rank
    predicted = AbelianGroupDescriptor(rank=m - n)
    return AcyclicSubdirectResult(H=H, q=q, theta=theta, predicted_h1=predicted)


# --- the amalgam with doubled attachments ------------------------------------

@dataclass
class DeltaResult:
    """F x F amalgamated with two attachment copies per base generator:
    copy i <= l glues its distinguished generator to (x_i, 1), copy l+i
    glues to (1, x_i)."""

    delta: FinitePresentation
    fxf: FinitePresentation
    factor: FinitePresentation
    copies: tuple[tuple[str, ...], ...]
    C: GeneratingSet


def delta_amalgam(generators: Sequence[str] | Alphabet) -> DeltaResult:
    """Amalgamate F x F (F free on the given letters) with 2l copies of
    Higman's group along cyclic subgroups: d_i = (x_i, 1) for i <= l and
    d_{l+i} = (1, x_i).  C collects the three non-glued letters of every
    copy (6l words)."""
    names = list(generators)
    if not names:
        raise ConstructionError("delta_amalgam needs at least one generator")
    l = len(names)
    F = presentation(names, [], aspherical="free presentation")
    fxf = direct_product_presentation(F, F)
    fxf = fxf.with_asphericity("product of two free presentations (torus complex)")
    J, _ = higman_presentations()
    copies = _fresh_copies(J.alphabet.symbols, 2 * l, set(fxf.alphabet.symbols))
    current = fxf
    for i, cnames in enumerate(copies, start=1):
        Ji = rename_generators(J, dict(zip(J.alphabet.symbols, cnames)))
        if i <= l:
            glue = current.alphabet.gen(names[i - 1] + "_L")
        else:
            glue = current.alphabet.gen(names[i - l - 1] + "_R")
        di = Ji.alphabet.gen(cnames[3])  # the distinguished generator d
        current = amalgamated_product(
            current, Ji, [(glue, di)],
            identified_subgroups_free=True)
    c_words = []
    for cnames in copies:
        for g in cnames[:3]:  # a_i, b_i, c_i
            c_words.append(current.alphabet.gen(g))
    C = GeneratingSet("C", current, tuple(c_words), factor=F,
                      notes="non-glued letters of every attachment copy")
    return DeltaResult(delta=current, fxf=fxf, factor=F,
                       copies=tuple(copies), C=C)
