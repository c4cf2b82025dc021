"""Finite presentations: data model, text grammar, Tietze moves and the
standard builders (free products, amalgams, HNN extensions, direct
products, Higman's group).

Grammar (bit-exact)::

    presentation := '<' gen (',' gen)* '|' [rel (',' rel)*] '>'
    gen          := [A-Za-z][A-Za-z0-9_]*
    rel          := word | word '=' word        (u = v stored as u v^-1)

Whitespace is insignificant.  Serialization is canonical: generators in
declaration order, relators freely reduced, '*' separators, negative
exponents as '^-k'; ``render`` then ``parse`` is the identity on values.

Asphericity is never computed: it is a caller-asserted flag carrying a
provenance note, and operations that consume it echo that note.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .freewords import (
    Alphabet,
    Word,
    _parse_word_tokens,
    _Tokens,
    apply_map,
    commutator,
    free_reduce,
    parse_word,
    relabel,
    render_word,
)


class PresentationError(ValueError):
    """Malformed presentation text or an invalid construction input."""


class NotEliminableError(PresentationError):
    """The chosen relator does not define the generator to eliminate."""


@dataclass(frozen=True)
class FinitePresentation:
    """Generators plus freely reduced, nonempty relator words.

    `aspherical` is None or a provenance note recording who asserted that
    the presentation 2-complex is a classifying space.
    """

    alphabet: Alphabet
    relators: tuple[Word, ...]
    aspherical: str | None = field(default=None, compare=False)

    def __post_init__(self):
        for r in self.relators:
            if r.alphabet is not self.alphabet and r.alphabet != self.alphabet:
                raise PresentationError("relator over a different alphabet")
            if not r.is_reduced():
                raise PresentationError(f"relator {render_word(r)!r} is not freely reduced")
            if not r:
                raise PresentationError("empty relator (freely trivial) rejected")

    @property
    def generators(self) -> tuple[str, ...]:
        return self.alphabet.symbols

    def word(self, text: str) -> Word:
        return parse_word(self.alphabet, text)

    def render(self) -> str:
        return render_presentation(self)

    def with_asphericity(self, note: str) -> "FinitePresentation":
        return FinitePresentation(self.alphabet, self.relators, aspherical=note)

    def __str__(self) -> str:
        return self.render()


def _parse_relator_tokens(toks: _Tokens, alphabet: Alphabet) -> Word:
    """Read `word` or `word = word` (the latter as u*v^-1), freely reduced."""
    u = Word._trusted(alphabet, _parse_word_tokens(toks, alphabet))
    t = toks.peek()
    if t is not None and t[1] == "=":
        toks.next()
        u = u.concat(Word._trusted(alphabet, _parse_word_tokens(toks, alphabet)).inverse())
    return free_reduce(u)


def parse_relator(alphabet: Alphabet, text: str) -> Word:
    """Parse `word` or `word = word` (the latter normalized to u*v^-1)."""
    toks = _Tokens(text)
    r = _parse_relator_tokens(toks, alphabet)
    toks.finish("trailing {} after relator")
    return r


def presentation(
    generators: Iterable[str],
    relators: Iterable[str | Word] = (),
    aspherical: str | None = None,
) -> FinitePresentation:
    """Convenience constructor; relator strings use the relator grammar."""
    alph = Alphabet(generators)
    rels = []
    for r in relators:
        w = parse_relator(alph, r) if isinstance(r, str) else free_reduce(r)
        rels.append(w)
    return FinitePresentation(alph, tuple(rels), aspherical=aspherical)


@dataclass(frozen=True)
class PresentationMorphism:
    """Map of presentations given on generators.

    `witness` records why source relators die in the target ("asserted"
    when the constructing operation did not produce a machine-checkable
    reason).
    """

    source: FinitePresentation
    target: FinitePresentation
    images: Mapping[str, Word]
    witness: str = "asserted"

    def __post_init__(self):
        for s in self.source.alphabet.symbols:
            if s not in self.images:
                raise PresentationError(f"morphism missing image of {s!r}")
            if self.images[s].alphabet != self.target.alphabet:
                raise PresentationError(f"image of {s!r} over wrong alphabet")

    def apply(self, w: Word) -> Word:
        if w.alphabet != self.source.alphabet:
            raise PresentationError("word not over the morphism's source alphabet")
        return apply_map(w, self.images, target=self.target.alphabet)


# --- text grammar ----------------------------------------------------------

def _comma_list(toks: _Tokens, item: Callable, close: str, what: str) -> Iterator:
    """The items of `item (',' item)* close`, each read by `item` once the
    one before it has been taken."""
    while True:
        yield item()
        t = toks.next()
        if t is None:
            raise toks.error(f"unterminated {what} list")
        if t[1] == close:
            return
        if t[1] != ",":
            raise toks.error(f"expected ',' or {close!r}, found {t[1]!r}", t)


def parse_presentation(text: str) -> FinitePresentation:
    toks = _Tokens(text)
    toks.expect("<")
    gens: list[str] = []
    for t in _comma_list(toks, toks.next, "|", "generator"):
        if t is None or t[0] != "name":
            raise toks.error("expected generator name" + (f", found {t[1]!r}" if t else ""), t)
        if t[1] in gens:
            raise toks.error(f"duplicate generator {t[1]!r}", t)
        gens.append(t[1])
    alph = Alphabet(gens)
    relators: list[Word] = []
    nxt = toks.peek()
    if nxt is not None and nxt[1] == ">":
        toks.next()
    else:
        for r in _comma_list(toks, lambda: _parse_relator_tokens(toks, alph), ">", "relator"):
            if not r:
                raise PresentationError("relator freely reduces to the empty word")
            relators.append(r)
    toks.finish("trailing input after '>'")
    return FinitePresentation(alph, tuple(relators))


def render_presentation(P: FinitePresentation) -> str:
    gens = ", ".join(P.alphabet.symbols)
    rels = ", ".join(render_word(r) for r in P.relators)
    return f"< {gens} | {rels} >" if rels else f"< {gens} | >"


# --- Tietze elimination ----------------------------------------------------

@dataclass(frozen=True)
class TietzeElimination:
    """Result of eliminating a generator: the new presentation plus the
    substitution that realizes the isomorphism on generators."""

    presentation: FinitePresentation
    eliminated: str
    replacement: Word           # word (over the new alphabet) equal to the old generator
    to_new: PresentationMorphism
    to_old: PresentationMorphism


def _eliminable_shape(r: Word, gen: Word) -> Word | None:
    """If r or r^-1 is g*w^-1 or w^-1*g with w free of the generator
    g = `gen`, return w."""
    g, g_inv = gen.text, gen.inverse().text
    for cand in (r, r.inverse()):
        t = cand.text
        if t[:1] == g and g not in t[1:] and g_inv not in t[1:]:
            return Word._trusted(r.alphabet, t[1:]).inverse()
        if t[-1:] == g and g not in t[:-1] and g_inv not in t[:-1]:
            return Word._trusted(r.alphabet, t[:-1]).inverse()
    return None


def tietze_eliminate_generator(
    P: FinitePresentation, g: str, defining: int
) -> TietzeElimination:
    """Remove generator g using relator P.relators[defining], which must be
    freely equal to g*w^-1 or w^-1*g (up to inversion) with w free of g.

    Every other occurrence of g is replaced by w; relators that become
    freely trivial are dropped (they were copies of the defining relation).
    """
    gen = P.alphabet.gen(g)
    if not (0 <= defining < len(P.relators)):
        raise NotEliminableError(f"no relator with index {defining}")
    w = _eliminable_shape(P.relators[defining], gen)
    if w is None:
        raise NotEliminableError(
            f"relator {render_word(P.relators[defining])!r} does not define {g!r}")
    new_alph = Alphabet(s for s in P.alphabet.symbols if s != g)
    down = {s: new_alph.gen(s) for s in new_alph.symbols}
    # w avoids g, so deleting g's letters only renames the others
    down[g], = relabel([w], new_alph, [None if s == g else s for s in P.alphabet.symbols])
    new_rels = []
    for k, r in enumerate(P.relators):
        if k == defining:
            continue
        img = apply_map(r, down, target=new_alph)
        if img:
            new_rels.append(img)
    newP = FinitePresentation(new_alph, tuple(new_rels), aspherical=P.aspherical)
    up = {s: P.alphabet.gen(s) for s in new_alph.symbols}
    return TietzeElimination(
        presentation=newP,
        eliminated=g,
        replacement=down[g],
        to_new=PresentationMorphism(P, newP, down, witness="generator elimination"),
        to_old=PresentationMorphism(newP, P, up, witness="inclusion of surviving generators"),
    )


def rename_generators(P: FinitePresentation, mapping: Mapping[str, str]) -> FinitePresentation:
    """Bijectively rename generators; relators carried along letterwise."""
    new_names = [mapping.get(s, s) for s in P.alphabet.symbols]
    new_alph = Alphabet(new_names)
    rels = tuple(Word._trusted(new_alph, r.text) for r in P.relators)
    return FinitePresentation(new_alph, rels, aspherical=P.aspherical)


# --- builders --------------------------------------------------------------

def _disjoint_names(P1: FinitePresentation, P2: FinitePresentation,
                    auto_rename: bool) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Generator names for the two sides of a product: their own when
    disjoint, else suffixed '_1' / '_2' (if auto_rename)."""
    n1, n2 = P1.alphabet.symbols, P2.alphabet.symbols
    clash = set(n1) & set(n2)
    if not clash:
        return n1, n2
    if not auto_rename:
        raise PresentationError(
            f"generator name clash {sorted(clash)}; pass auto_rename=True to suffix")
    return tuple(s + "_1" for s in n1), tuple(s + "_2" for s in n2)


def free_product(P1: FinitePresentation, P2: FinitePresentation,
                 auto_rename: bool = False) -> FinitePresentation:
    """Union of generators and relators (disjoint names required)."""
    n1, n2 = _disjoint_names(P1, P2, auto_rename)
    alph = Alphabet(n1 + n2)
    rels = relabel(P1.relators, alph, n1) + relabel(P2.relators, alph, n2)
    note = None
    if P1.aspherical and P2.aspherical:
        note = "free product of aspherical presentations"
    return FinitePresentation(alph, tuple(rels), aspherical=note)


def amalgamated_product(
    P1: FinitePresentation,
    P2: FinitePresentation,
    pairs: Sequence[tuple[Word, Word]],
    auto_rename: bool = False,
    identified_subgroups_free: bool = False,
) -> FinitePresentation:
    """Amalgam presentation: generators of both sides, both relator sets,
    plus u_i v_i^-1 for each identified pair (u_i over P1, v_i over P2).

    The asphericity flag propagates only when both inputs carry it and the
    caller asserts the identified subgroups are free; the assertion is
    recorded in the note.
    """
    if not pairs:
        raise PresentationError("amalgamated_product needs at least one identified pair")
    for u, v in pairs:
        if u.alphabet != P1.alphabet or v.alphabet != P2.alphabet:
            raise PresentationError("identified pair over the wrong alphabets")
    n1, n2 = _disjoint_names(P1, P2, auto_rename)
    alph = Alphabet(n1 + n2)
    rels = relabel(P1.relators, alph, n1) + relabel(P2.relators, alph, n2)
    us = relabel([u for u, _ in pairs], alph, n1)
    vs = relabel([v for _, v in pairs], alph, n2)
    for uu, vv in zip(us, vs):
        r = free_reduce(uu.concat(vv.inverse()))
        if not r:
            raise PresentationError("identified pair freely cancels; not a valid amalgam relator")
        rels.append(r)
    note = None
    if P1.aspherical and P2.aspherical and identified_subgroups_free:
        note = ("amalgam of aspherical presentations along subgroups "
                "asserted free by the caller")
    return FinitePresentation(alph, tuple(rels), aspherical=note)


def hnn_extension(
    P: FinitePresentation,
    t: str,
    pairs: Sequence[tuple[Word, Word]],
    associated_subgroups_free: bool = False,
) -> FinitePresentation:
    """Add stable letter t and relators t u_i t^-1 v_i^-1."""
    if t in P.alphabet:
        raise PresentationError(f"stable letter {t!r} already a generator")
    alph = Alphabet(P.alphabet.symbols + (t,))
    rels = relabel(P.relators, alph)
    tw = alph.gen(t)
    for u, v in pairs:
        if u.alphabet != P.alphabet or v.alphabet != P.alphabet:
            raise PresentationError("associated pair over the wrong alphabet")
        uu, vv = relabel([u, v], alph)
        r = free_reduce(tw.concat(uu).concat(tw.inverse()).concat(vv.inverse()))
        if not r:
            raise PresentationError("associated pair freely cancels")
        rels.append(r)
    note = None
    if P.aspherical and associated_subgroups_free:
        note = ("HNN extension of an aspherical presentation along subgroups "
                "asserted free by the caller")
    return FinitePresentation(alph, tuple(rels), aspherical=note)


def direct_product_presentation(
    P1: FinitePresentation, P2: FinitePresentation
) -> FinitePresentation:
    """Presentation of the direct product: left factor tagged '_L', right
    tagged '_R'; relators are both factors' relators plus all cross-factor
    commutators (count |R1|+|R2|+|X1|*|X2|).
    """
    nL = tuple(s + "_L" for s in P1.alphabet.symbols)
    nR = tuple(s + "_R" for s in P2.alphabet.symbols)
    alph = Alphabet(nL + nR)
    rels = relabel(P1.relators, alph, nL) + relabel(P2.relators, alph, nR)
    for x in nL:
        for z in nR:
            rels.append(commutator(alph.gen(x), alph.gen(z)))
    return FinitePresentation(alph, tuple(rels))


_HIGMAN_ASPHERICITY_NOTE = (
    "iterated HNN/amalgam description over free subgroups; bigon collapse "
    "carries asphericity to this presentation"
)


def higman_presentations() -> tuple[FinitePresentation, FinitePresentation]:
    """Higman's 4-generator acyclic group J and the 3-generator group D
    (two of the four cyclic HNN layers of J)."""
    J = presentation(
        ["a", "b", "c", "d"],
        ["a*b*a^-1=b^2", "b*c*b^-1=c^2", "c*d*c^-1=d^2", "d*a*d^-1=a^2"],
        aspherical=_HIGMAN_ASPHERICITY_NOTE,
    )
    D = presentation(
        ["alpha", "beta", "gamma"],
        ["alpha*beta*alpha^-1=beta^2", "beta*gamma*beta^-1=gamma^2"],
        aspherical="two cyclic HNN extensions of an infinite cyclic group",
    )
    return J, D
