"""Exact free-group word algebra over a named finite alphabet.

Words are immutable sequences of signed letters over an :class:`Alphabet`.
All operations are pure; nothing here mutates shared state, so everything
is safe to call concurrently.

Word text syntax (used by the whole package): juxtaposition with optional
``*``, integer exponents with ``^`` (negative as ``^-k``), parenthesized
subwords, and commutator sugar ``[u,v]`` meaning ``u v u^-1 v^-1``.
Example: ``a*b^-2*(c*d)^3*[a,b]``.  The identity is rendered as ``1`` and
accepted on input.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


class WordError(ValueError):
    """Base error for word-algebra input problems."""


class MalformedWordError(WordError):
    """A letter refers to no symbol of its alphabet, or text failed to parse."""


class UnmappedSymbolError(WordError):
    """apply_map hit a symbol with no image."""


class AlphabetMismatchError(WordError):
    """Two operands live over different alphabets."""


@dataclass(frozen=True)
class Alphabet:
    """Ordered list of distinct generator names.

    Order is stable and defines the coordinate indices used by exponent
    vectors and relation matrices.
    """

    symbols: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False, hash=False)

    def __init__(self, symbols: Iterable[str]):
        syms = tuple(symbols)
        for s in syms:
            if not _NAME_RE.match(s):
                raise MalformedWordError(f"bad generator name {s!r}")
        if len(set(syms)) != len(syms):
            raise MalformedWordError(f"duplicate generator names in {syms}")
        object.__setattr__(self, "symbols", syms)
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(syms)})

    @property
    def rank(self) -> int:
        return len(self.symbols)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise MalformedWordError(f"unknown generator {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    def word(self, text: str) -> "Word":
        return parse_word(self, text)

    def gen(self, name: str) -> "Word":
        return Word(self, ((self.index(name), 1),))

    def identity(self) -> "Word":
        return Word(self, ())


# Letters are (symbol index, sign) with sign in {+1, -1}.
Letter = tuple[int, int]


@dataclass(frozen=True)
class Word:
    """A word over an alphabet; not necessarily freely reduced.

    ``*`` multiplies and freely reduces (group semantics); use
    :meth:`concat` for raw juxtaposition.
    """

    alphabet: Alphabet
    letters: tuple[Letter, ...]

    def __post_init__(self):
        n = self.alphabet.rank
        for idx, sign in self.letters:
            if not (0 <= idx < n) or sign not in (1, -1):
                raise MalformedWordError(f"bad letter ({idx},{sign}) for rank-{n} alphabet")

    @classmethod
    def _trusted(cls, alphabet: Alphabet, letters: tuple[Letter, ...]) -> "Word":
        """A word from a tuple of letters already known to be valid for
        `alphabet`, skipping the per-letter check of the public constructor."""
        w = object.__new__(cls)
        object.__setattr__(w, "alphabet", alphabet)
        object.__setattr__(w, "letters", letters)
        return w

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return free_reduce(self.concat(other))

    def concat(self, other: "Word") -> "Word":
        if other.alphabet != self.alphabet:
            raise AlphabetMismatchError("cannot concatenate words over different alphabets")
        return Word._trusted(self.alphabet, self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word._trusted(self.alphabet, tuple([(i, -s) for i, s in reversed(self.letters)]))

    def __invert__(self) -> "Word":
        return self.inverse()

    def __pow__(self, n: int) -> "Word":
        if n == 0:
            return Word(self.alphabet, ())
        base = self if n > 0 else self.inverse()
        return free_reduce(Word(self.alphabet, base.letters * abs(n)))

    def conjugated_by(self, g: "Word") -> "Word":
        """g^-1 * self * g, freely reduced."""
        return free_reduce(g.inverse().concat(self).concat(g))

    def is_reduced(self) -> bool:
        ls = self.letters
        return all(ls[k][0] != ls[k + 1][0] or ls[k][1] == ls[k + 1][1]
                   for k in range(len(ls) - 1))

    def __repr__(self) -> str:
        return f"Word({render_word(self)!r})"

    def __str__(self) -> str:
        return render_word(self)


def commutator(u: Word, v: Word) -> Word:
    """[u,v] = u v u^-1 v^-1, freely reduced."""
    return free_reduce(u.concat(v).concat(u.inverse()).concat(v.inverse()))


def free_reduce(w: Word) -> Word:
    """The unique reduced word freely equal to w (stack cancellation)."""
    out: list[Letter] = []
    for idx, sign in w.letters:
        if out and out[-1][0] == idx and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((idx, sign))
    if len(out) == len(w.letters):
        return w
    return Word._trusted(w.alphabet, tuple(out))


def cyclically_reduce(w: Word) -> tuple[Word, Word]:
    """Return (core, conjugator) with core cyclically reduced and
    conjugator * core * conjugator^-1 freely equal to w.
    """
    w = free_reduce(w)
    ls = list(w.letters)
    pre: list[Letter] = []
    while len(ls) >= 2 and ls[0][0] == ls[-1][0] and ls[0][1] == -ls[-1][1]:
        pre.append(ls[0])
        ls = ls[1:-1]
    core = Word(w.alphabet, tuple(ls))
    conj = Word(w.alphabet, tuple(pre))
    return core, conj


def apply_map(w: Word, images: Mapping[str, Word], target: Alphabet | None = None) -> Word:
    """Substitute images for symbols (inverting for negative letters) and reduce.

    Every symbol occurring in w must have an image; images must all live
    over one alphabet (pass `target` explicitly if the mapping is empty or
    ambiguous).  Each image is checked and inverted once per call.
    """
    if target is None:
        for im in images.values():
            target = im.alphabet
            break
        if target is None:
            raise UnmappedSymbolError("cannot infer target alphabet from empty image map")
    out: list[Letter] = []
    src = w.alphabet
    seqs: dict[int, tuple[tuple[Letter, ...], tuple[Letter, ...]]] = {}
    for idx, sign in w.letters:
        pair = seqs.get(idx)
        if pair is None:
            name = src.symbols[idx]
            if name not in images:
                raise UnmappedSymbolError(f"no image for symbol {name!r}")
            im = images[name]
            if im.alphabet != target:
                raise AlphabetMismatchError(f"image of {name!r} lives over a different alphabet")
            pair = seqs[idx] = (im.letters, tuple((j, -s) for j, s in reversed(im.letters)))
        for jdx, jsign in pair[sign < 0]:
            if out and out[-1][0] == jdx and out[-1][1] == -jsign:
                out.pop()
            else:
                out.append((jdx, jsign))
    return Word(target, tuple(out))


def relabel(words: Iterable[Word], target: Alphabet,
            names: Sequence[str] | None = None) -> list[Word]:
    """Carry words over one common alphabet into `target` letter by letter:
    symbol i becomes `target.index(names[i])`, by default the symbol's own
    name.  The renaming must be injective; it then keeps freely reduced
    words reduced, so nothing is reduced here.
    """
    words = list(words)
    if not words:
        return []
    src = words[0].alphabet
    if names is None:
        names = src.symbols
    elif len(names) != src.rank:
        raise AlphabetMismatchError(f"{len(names)} names for a rank-{src.rank} alphabet")
    if len(set(names)) != len(names):
        raise MalformedWordError(f"renaming onto {list(names)} is not injective")
    table = [target.index(n) for n in names]
    out = []
    for w in words:
        if w.alphabet != src:
            raise AlphabetMismatchError("cannot relabel words over different alphabets")
        out.append(Word(target, tuple((table[i], s) for i, s in w.letters)))
    return out


def identity_images(alphabet: Alphabet) -> dict[str, Word]:
    return {s: alphabet.gen(s) for s in alphabet.symbols}


def exponent_vector(w: Word) -> tuple[int, ...]:
    """Per-symbol signed letter counts; zero vector iff w is in [F,F]."""
    v = [0] * w.alphabet.rank
    for idx, sign in w.letters:
        v[idx] += sign
    return tuple(v)


def letter_codes(letters: Iterable[Letter]) -> list[int]:
    """The integer code of each letter: (i, s) becomes 2*i + (s < 0), so
    the codes of a letter and of its inverse differ in the lowest bit."""
    return [2 * i + (s < 0) for i, s in letters]


def encode_letters(letters: Iterable[Letter]) -> str:
    """Compact injective string encoding of a letter sequence, for substring
    searches and sorting at C speed: code c of `letter_codes` becomes
    chr(256 + c), exact for any rank."""
    return "".join([chr(256 + 2 * i + (s < 0)) for i, s in letters])


def decode_letters(alphabet: Alphabet, s: str) -> Word:
    """Inverse of `encode_letters`."""
    letters = [(i, e) for i in range(alphabet.rank) for e in (1, -1)]
    table = dict(zip(encode_letters(letters), letters))
    return Word._trusted(alphabet, tuple([table[ch] for ch in s]))


def reduce_join(u: str, v: str) -> tuple[str, int]:
    """Free reduction of u + v for freely reduced `encode_letters` texts,
    with the number of letters cancelled on each side of the join (the
    codes of a letter and of its inverse differ in the lowest bit)."""
    j, n = 0, min(len(u), len(v))
    while j < n and ord(u[-1 - j]) ^ 1 == ord(v[j]):
        j += 1
    return u[:len(u) - j] + v[j:], j


def _find_rotation(cu: Word, cv: Word) -> int | None:
    """Index j with rot_j(cu) == cv, or None; both words the same length."""
    if len(cu) != len(cv):
        return None
    if not cu.letters:
        return 0
    s = encode_letters(cu.letters)
    idx = (s + s).find(encode_letters(cv.letters))
    return idx if 0 <= idx < len(s) else None


def conjugacy_test(
    u: Word | Sequence[Word],
    v: Word | Sequence[Word],
    factors: int = 1,
) -> tuple[bool, tuple[Word, ...] | None]:
    """Decide conjugacy in a free group (factors=1) or componentwise in a
    direct product of free groups (factors>1).

    Returns (conjugate?, witness).  The witness w satisfies
    `free_reduce(w v w^-1) == free_reduce-normal form of u` in each factor.
    """
    if factors == 1 and isinstance(u, Word):
        us, vs = (u,), (v,)  # type: ignore[assignment]
    else:
        us, vs = tuple(u), tuple(v)  # type: ignore[arg-type]
        if len(us) != factors or len(vs) != factors:
            raise AlphabetMismatchError(
                f"expected {factors} components, got {len(us)} and {len(vs)}")
    witnesses: list[Word] = []
    for uu, vv in zip(us, vs):
        if uu.alphabet != vv.alphabet:
            raise AlphabetMismatchError("conjugacy operands over different alphabets")
        cu, gu = cyclically_reduce(uu)
        cv, gv = cyclically_reduce(vv)
        if len(cu) != len(cv):
            return False, None
        if exponent_vector(cu) != exponent_vector(cv):
            return False, None
        found = _find_rotation(cu, cv)
        if found is None:
            return False, None
        # u = gu cu gu^-1, v = gv rot_j(cu) gv^-1, rot_j(cu) = x^-1 cu x
        # with x the length-j prefix of cu; hence u = w v w^-1 for
        # w = gu x gv^-1.
        x = Word(cu.alphabet, cu.letters[:found])
        w = free_reduce(gu.concat(x).concat(gv.inverse()))
        witnesses.append(w)
    return True, tuple(witnesses)


# --- text syntax -----------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<int>-?\d+)|(?P<punct>[*^()\[\],<>|=]))"
)


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.toks: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                rest = text[pos:].lstrip()
                if not rest:
                    break
                raise MalformedWordError(
                    f"syntax error at {self._linecol(pos + len(text[pos:]) - len(rest))}:"
                    f" unexpected {rest[0]!r}")
            kind = m.lastgroup
            self.toks.append((kind, m.group(kind), m.start(kind)))  # type: ignore[arg-type]
            pos = m.end()

    def _linecol(self, pos: int) -> str:
        line = self.text.count("\n", 0, pos) + 1
        col = pos - (self.text.rfind("\n", 0, pos) + 1) + 1
        return f"line {line}, column {col}"

    def peek(self) -> tuple[str, str, int] | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> tuple[str, str, int] | None:
        t = self.peek()
        if t is not None:
            self.pos += 1
        return t

    def expect(self, value: str) -> None:
        t = self.next()
        if t is None:
            raise MalformedWordError(f"expected {value!r}, found end of input")
        if t[1] != value:
            raise MalformedWordError(
                f"expected {value!r} at {self._linecol(t[2])}, found {t[1]!r}")

    def error(self, msg: str, tok: tuple[str, str, int] | None = None) -> MalformedWordError:
        where = self._linecol(tok[2]) if tok else "end of input"
        return MalformedWordError(f"{msg} at {where}")


def _parse_word_tokens(toks: _Tokens, alphabet: Alphabet) -> list[Letter]:
    letters: list[Letter] = []
    while True:
        t = toks.peek()
        if t is None or t[1] in (",", ")", "]", ">", "|", "="):
            return letters
        if t[1] == "*":
            toks.next()
            continue
        letters.extend(_parse_factor(toks, alphabet))


def _parse_factor(toks: _Tokens, alphabet: Alphabet) -> list[Letter]:
    t = toks.next()
    if t is None:
        raise toks.error("expected a word factor")
    kind, val, _ = t
    if kind == "name":
        atom = [(alphabet.index(val), 1)]
    elif kind == "int" and val == "1":
        atom = []  # identity literal
    elif val == "(":
        atom = _parse_word_tokens(toks, alphabet)
        toks.expect(")")
    elif val == "[":
        u = _parse_word_tokens(toks, alphabet)
        toks.expect(",")
        v = _parse_word_tokens(toks, alphabet)
        toks.expect("]")
        uw = Word(alphabet, tuple(u))
        vw = Word(alphabet, tuple(v))
        atom = list(commutator(uw, vw).letters)
    else:
        raise toks.error(f"unexpected {val!r} in word", t)
    nxt = toks.peek()
    if nxt is not None and nxt[1] == "^":
        toks.next()
        e = toks.next()
        if e is None or e[0] != "int":
            raise toks.error("expected integer exponent after '^'", e)
        n = int(e[1])
        w = Word(alphabet, tuple(atom)) ** n
        return list(w.letters)
    return atom


def parse_word(alphabet: Alphabet, text: str) -> Word:
    """Parse word text syntax over the given alphabet."""
    toks = _Tokens(text)
    letters = _parse_word_tokens(toks, alphabet)
    t = toks.peek()
    if t is not None:
        raise toks.error(f"trailing {t[1]!r} after word", t)
    return Word(alphabet, tuple(letters))


def render_word(w: Word) -> str:
    """Canonical text: runs collapsed, '*' separators, '^-k' for negatives."""
    if not w.letters:
        return "1"
    parts: list[str] = []
    i = 0
    ls = w.letters
    while i < len(ls):
        idx, sign = ls[i]
        j = i
        while j < len(ls) and ls[j] == (idx, sign):
            j += 1
        k = (j - i) * sign
        name = w.alphabet.symbols[idx]
        parts.append(name if k == 1 else f"{name}^{k}")
        i = j
    return "*".join(parts)
