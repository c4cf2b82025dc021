"""Headline construction algorithms: the small-cancellation (Rips-type)
transform, the finite-quotient-killing attachment, super-perfectification,
and the fibre/subdirect-product generating sets, together with the
conjugacy gadget and fibre-membership reduction.

Conventions fixed here:

* Direct-product alphabets tag factors ``<name>_L`` / ``<name>_R``; a
  :class:`PairWord` stores the two components over the factor alphabet and
  converts canonically to an ambient word (left letters, then right).
* Conjugation follows the right action x^g = g^-1 x g, so ``(w,1)``
  carries ``(a,a)`` to ``(w^-1 a w, a)``.
* The transform's padding words use blocks of the three fresh letters with
  run lengths encoding (block index, relator index); the C'(1/6)
  certificate, not the particular recipe, is the correctness contract, and
  the block count escalates automatically until the certificate passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .freewords import (
    Alphabet,
    Word,
    apply_map,
    conjugacy_test,
    cyclically_reduce,
    free_reduce,
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
    tietze_eliminate_generator,
)
from .smallcancel import MetricCertificate, metric_certificate
from .uce import PerfectionRequired, UcePresentation, miller_uce


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

    def reduce(self) -> "PairWord":
        return PairWord(free_reduce(self.left), free_reduce(self.right))

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


def pair_to_product_word(pw: PairWord, ambient: FinitePresentation) -> Word:
    """Canonical image of a pair in the tagged product alphabet: left
    letters (as *_L), then right letters (as *_R)."""
    alph = ambient.alphabet
    letters = []
    for idx, sign in pw.left.letters:
        letters.append((alph.index(pw.left.alphabet.symbols[idx] + "_L"), sign))
    for idx, sign in pw.right.letters:
        letters.append((alph.index(pw.right.alphabet.symbols[idx] + "_R"), sign))
    return Word(alph, tuple(letters))


def product_word_to_pair(w: Word, factor: Alphabet) -> PairWord:
    """Componentwise projections of a tagged product word; interleaving is
    not remembered (the ambient commutators justify this only inside the
    product presentation)."""
    left: list = []
    right: list = []
    for idx, sign in w.letters:
        name = w.alphabet.symbols[idx]
        if name.endswith("_L"):
            left.append((factor.index(name[:-2]), sign))
        elif name.endswith("_R"):
            right.append((factor.index(name[:-2]), sign))
        else:
            raise ConstructionError(f"untagged generator {name!r} in product word")
    return PairWord(Word(factor, tuple(left)), Word(factor, tuple(right)))


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

    @property
    def presentation(self) -> FinitePresentation:
        return self.gamma


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
    i1, i2, i3 = (alph.index(k) for k in kernel)
    letters: list[tuple[int, int]] = []
    for j in range(blocks):
        letters.append((i1, 1))
        letters.extend([(i2, 1)] * (j + 2))
        letters.extend([(i3, 1)] * (t + 2))
    return Word(alph, tuple(letters))


def rips_wise(
    P: FinitePresentation,
    lam: Fraction = Fraction(1, 6),
    initial_blocks: int = 16,
    max_doublings: int = 8,
) -> RipsOutput:
    """Associate to <X | R> a presentation on X plus three fresh generators
    with exactly |R| + 6|X| relators: r * W^-1 for each input relator, and
    x^e a_i x^-e * W^-1 for each generator x, i in {1,2,3}, e in {+1,-1}.

    The padding words W are drawn from the deterministic block scheme of
    `_padding_word`; if the C'(lambda) certificate fails, the block count
    doubles and the construction retries (piece lengths stay bounded while
    relator lengths grow, so escalation terminates).
    """
    kernel = _fresh_kernel_names(P.alphabet)
    alph = Alphabet(P.alphabet.symbols + kernel)
    lift = {s: alph.gen(s) for s in P.alphabet.symbols}

    blocks = initial_blocks
    for _ in range(max_doublings + 1):
        rels: list[Word] = []
        t = 0
        for r in P.relators:
            prefix = apply_map(r, lift, target=alph)
            rels.append(free_reduce(prefix.concat(_padding_word(alph, kernel, t, blocks).inverse())))
            t += 1
        for x in P.alphabet.symbols:
            for ai in kernel:
                for eps in (1, -1):
                    xw = alph.gen(x) if eps > 0 else alph.gen(x).inverse()
                    prefix = xw.concat(alph.gen(ai)).concat(xw.inverse())
                    rels.append(free_reduce(prefix.concat(
                        _padding_word(alph, kernel, t, blocks).inverse())))
                    t += 1
        gamma = FinitePresentation(alph, tuple(rels))
        cert = metric_certificate(gamma, lam)
        if cert.passed:
            images = {s: P.alphabet.gen(s) for s in P.alphabet.symbols}
            images.update({k: P.alphabet.identity() for k in kernel})
            p = PresentationMorphism(
                gamma, P, images,
                witness="padding letters die; each relator maps to an input "
                        "relator or freely cancels")
            return RipsOutput(gamma=gamma, p=p, kernel_generators=kernel,
                              certificate=cert, blocks=blocks)
        blocks *= 2
    raise ConstructionError(
        f"metric certificate still failing after {max_doublings} doublings "
        f"(blocks={blocks}); input relators likely too repetitive")


def killed_quotient(rips: RipsOutput) -> FinitePresentation:
    """Apply the kernel-killing map to every relator and drop the kernel
    generators; recovers a presentation of the transform's input."""
    rels = []
    for r in rips.gamma.relators:
        img = rips.p.apply(r)
        if img.letters:
            rels.append(img)
    return FinitePresentation(rips.p.target.alphabet, tuple(rels))


# --- finite-quotient killing -------------------------------------------------

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


def kill_finite_quotients(
    P: FinitePresentation,
    attach: tuple[FinitePresentation, str] | None = None,
) -> KillResult:
    """Attach one copy of a no-finite-quotients group per generator of P,
    identifying generator x_i with the distinguished element of copy i.

    The default attachment is Higman's group J with distinguished
    generator d (the normal closure of any generator is all of J, so every
    finite quotient of the output dies).  Relator order: input relators,
    then the copies' relators, then the identifications x_i^-1 y_i.
    """
    if attach is None:
        J, _ = higman_presentations()
        attach = (J, "d")
    A, y = attach
    if y not in A.alphabet:
        raise ConstructionError(f"distinguished element {y!r} not a generator of the attachment")
    used = set(P.alphabet.symbols)
    copies: list[tuple[str, ...]] = []
    ys: list[str] = []
    for i, _x in enumerate(P.alphabet.symbols, start=1):
        names = []
        for g in A.alphabet.symbols:
            cand = f"{g}_{i}"
            while cand in used:
                cand += "_"
            used.add(cand)
            names.append(cand)
        copies.append(tuple(names))
        ys.append(names[A.alphabet.index(y)])
    alph = Alphabet(P.alphabet.symbols + tuple(n for c in copies for n in c))
    lift = {s: alph.gen(s) for s in P.alphabet.symbols}
    rels = [apply_map(r, lift, target=alph) for r in P.relators]
    for names in copies:
        imap = {g: alph.gen(n) for g, n in zip(A.alphabet.symbols, names)}
        rels.extend(apply_map(r, imap, target=alph) for r in A.relators)
    for x, yi in zip(P.alphabet.symbols, ys):
        rels.append(free_reduce(alph.gen(x).inverse().concat(alph.gen(yi))))
    note = None
    if P.aspherical and A.aspherical:
        note = ("amalgam chain along infinite-cyclic subgroups of aspherical "
                "pieces; valid when the presented group is nontrivial "
                f"(input note: {P.aspherical}; attachment note: {A.aspherical})")
    pi_prime = FinitePresentation(alph, tuple(rels), aspherical=note)

    simplified = pi_prime
    for x in P.alphabet.symbols:
        target = None
        xi = simplified.alphabet.index(x)
        for k, r in enumerate(simplified.relators):
            if len(r) == 2 and r.letters[0] == (xi, -1) and r.letters[1][1] == 1:
                target = k
                break
        if target is None:
            raise AssertionError("identification relator vanished (internal error)")
        simplified = tietze_eliminate_generator(simplified, x, target).presentation

    nv = len(P.relators)
    return KillResult(
        input=P,
        attach=A,
        distinguished=y,
        pi_prime=pi_prime,
        simplified=simplified,
        copies=tuple(copies),
        copy_distinguished=tuple(ys),
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


def super_perfectify(
    P: FinitePresentation,
    attach: tuple[FinitePresentation, str] | None = None,
) -> SuperPerfectResult:
    """Kill all finite quotients by attachment, then present the universal
    central extension of the result: the output has H1 = 0, no finite
    quotients detectable at any bounded degree, and a fixed generator set
    across any input family with a fixed generator count.  Raises
    ConstructionError, naming its H1, when the attachment stage is not perfect.
    """
    kill = kill_finite_quotients(P, attach=attach)
    try:
        uce = miller_uce(kill.pi_prime)
    except PerfectionRequired as e:
        raise ConstructionError(
            f"attachment stage is not perfect ({e}); "
            "the attachment group must have perfect quotient-killing copies") from None
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
        elems += [PairWord(Word(F.alphabet, r.letters), F.alphabet.identity())
                  for r in Q.relators]
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
        one = H.alphabet.identity()
        elems = [PairWord(H.alphabet.gen(y), H.alphabet.gen(y)) for y in H.alphabet.symbols]
        elems += [PairWord(Word(H.alphabet, v.letters), one) for v in kill.v_words]
        return GeneratingSet("theta", ambient, tuple(elems), factor=H,
                             notes="diagonal plus left rewritten-relator slices")
    if kind == "theta_tilde":
        kill = inputs["kill"]
        rips = inputs["rips"]
        G = rips.gamma
        ambient = direct_product_presentation(G, G)
        one = G.alphabet.identity()
        lift = {s: G.alphabet.gen(s) for s in G.alphabet.symbols}
        theta = fibre_generators("theta", kill=kill)
        elems = [PairWord(apply_map(pw.left, lift, target=G.alphabet),
                          apply_map(pw.right, lift, target=G.alphabet))
                 for pw in theta.elements]
        elems += [PairWord(G.alphabet.gen(a), one) for a in rips.kernel_generators]
        elems += [PairWord(one, G.alphabet.gen(a)) for a in rips.kernel_generators]
        return GeneratingSet("theta_tilde", ambient, tuple(elems), factor=G,
                             notes="theta generators reread in the transform, plus kernel slices")
    raise ConstructionError(f"unknown generating-set kind {kind!r}")


def free_product_of_copies(kill: KillResult) -> FinitePresentation:
    """Free product of the attached copies: all copy generators, all copy
    relators (the simplified form without the rewritten input relators)."""
    names = tuple(n for c in kill.copies for n in c)
    alph = Alphabet(names)
    rels = []
    A = kill.attach
    for copy in kill.copies:
        imap = {g: alph.gen(n) for g, n in zip(A.alphabet.symbols, copy)}
        rels.extend(apply_map(r, imap, target=alph) for r in A.relators)
    note = None
    if A.aspherical:
        note = f"free product of aspherical copies ({A.aspherical})"
    return FinitePresentation(alph, tuple(rels), aspherical=note)


def fibre_membership(pw: PairWord, p: PresentationMorphism,
                     wp_oracle: Callable[[Word], bool]) -> bool:
    """(u,v) lies in the fibre product of p iff p(u v^-1) dies in the
    target; the caller supplies the target's word-problem oracle."""
    diff = free_reduce(pw.left.concat(pw.right.inverse()))
    image = p.apply(diff)
    if not image.letters:
        return True
    return wp_oracle(image)


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


def primitive_root(w: Word) -> tuple[Word, int]:
    """Write the cyclic core of w as z^k with z primitive; returns (z, k)."""
    core, _ = cyclically_reduce(w)
    L = len(core)
    if L == 0:
        return core, 0
    for d in range(1, L + 1):
        if L % d:
            continue
        z = Word(core.alphabet, core.letters[:d])
        if (z ** (L // d)).letters == core.letters:
            return z, L // d
    raise AssertionError("unreachable")


def gadget_conjugacy_decision(
    w: Word,
    kernel_word: Word,
    p: PresentationMorphism,
    wp_oracle: Callable[[Word], bool],
) -> bool:
    """Decide conjugacy of the gadget pairs inside the fibre product of p.

    The componentwise free-group conjugacy test produces one conjugating
    pair; all others differ by centralizer elements, which are powers of
    the kernel word's primitive root.  When the kernel word is not a
    proper power, membership of the found conjugator in the fibre product
    settles the question, and it is equivalent to the triviality of w in
    the target -- giving a second, independent route to that verdict.
    """
    root, k = primitive_root(kernel_word)
    if k != 1:
        raise ConstructionError(
            f"kernel element {render_word(kernel_word)} is a proper power "
            f"({render_word(root)})^{k}; the centralizer argument needs a primitive element")
    first, second = conjugacy_gadget(w, kernel_word)
    ok, witness = conjugacy_test(
        (first.left, first.right), (second.left, second.right), factors=2)
    if not ok:
        return False
    assert witness is not None
    return fibre_membership(PairWord(witness[0], witness[1]), p, wp_oracle)


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

    def s_plus(self, S: GeneratingSet) -> GeneratingSet:
        """S_n read as words over the amalgam, extended by the attachment
        letters C."""
        words = [pair_to_product_word(pw, self.fxf) for pw in S.elements]
        lift = {s: self.delta.alphabet.gen(s) for s in self.fxf.alphabet.symbols}
        words = [apply_map(w, lift, target=self.delta.alphabet) for w in words]
        elems = tuple(words) + self.C.elements
        return GeneratingSet("S_plus", self.delta, elems, factor=self.factor,
                             notes="fibre generators extended by attachment letters")


def delta_amalgam(generators: Sequence[str] | Alphabet) -> DeltaResult:
    """Amalgamate F x F (F free on the given letters) with 2l copies of
    Higman's group along cyclic subgroups: d_i = (x_i, 1) for i <= l and
    d_{l+i} = (1, x_i).  C collects the three non-glued letters of every
    copy (6l words)."""
    if isinstance(generators, Alphabet):
        names = list(generators.symbols)
    else:
        names = list(generators)
    if not names:
        raise ConstructionError("delta_amalgam needs at least one generator")
    l = len(names)
    F = presentation(names, [], aspherical="free presentation")
    fxf = direct_product_presentation(F, F)
    fxf = fxf.with_asphericity("product of two free presentations (torus complex)")
    J, _ = higman_presentations()
    used = set(fxf.alphabet.symbols)
    copies: list[tuple[str, ...]] = []
    current = fxf
    for i in range(1, 2 * l + 1):
        cnames = []
        for g in J.alphabet.symbols:
            cand = f"{g}_{i}"
            while cand in used:
                cand += "_"
            used.add(cand)
            cnames.append(cand)
        copies.append(tuple(cnames))
        Ji = presentation(cnames, [Word(Alphabet(cnames), r.letters) for r in J.relators],
                          aspherical=J.aspherical)
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
