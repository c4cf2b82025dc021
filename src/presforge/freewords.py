"""Exact free-group word algebra over a named finite alphabet.

A word is its letter-code text over an :class:`Alphabet`: letter i^+1 is
chr(256 + 2i) and i^-1 is chr(257 + 2i), so the codes of a letter and of
its inverse differ in the lowest bit.  Words are compared, hashed, sliced,
searched and sorted as strings, at C speed, and every engine reads that
text (or its `letter_codes`) directly; `Word.letters` derives the
(index, sign) pairs on each access, and `render_word` writes a word by one
`str.translate` of its text once its runs are spelled out.  All operations
are pure; nothing here mutates shared state, so everything is safe to call
concurrently.

Word text syntax (used by the whole package): juxtaposition with optional
``*``, integer exponents with ``^`` (negative as ``^-k``), parenthesized
subwords, and commutator sugar ``[u,v]`` meaning ``u v u^-1 v^-1``.
Example: ``a*b^-2*(c*d)^3*[a,b]``.  The identity is rendered as ``1`` and
accepted on input; a word may spell out at most `MAX_POWER_LETTERS` letters.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_RUN_RE = re.compile(r"(.)\1+")  # a run of two or more equal letters


class WordError(ValueError):
    """Base error for word-algebra input problems."""


class MalformedWordError(WordError):
    """A letter refers to no symbol of its alphabet, or text failed to parse."""


class UnmappedSymbolError(WordError):
    """apply_map hit a symbol with no image."""


class AlphabetMismatchError(WordError):
    """Two operands live over different alphabets."""


# Letters are (symbol index, sign) with sign in {+1, -1}.
Letter = tuple[int, int]


@dataclass(frozen=True)
class Alphabet:
    """Ordered list of distinct generator names.

    Order is stable and defines the coordinate indices used by exponent
    vectors and relation matrices.
    """

    symbols: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False, hash=False)
    # the text of each (index, sign) letter; a str.translate table taking
    # each letter code to its inverse's; every two-letter text of a letter
    # followed by its inverse; a str.translate table writing each letter code
    # as "name*" or "name^-1*"
    _codes: dict[Letter, str] = field(init=False, repr=False, compare=False, hash=False)
    _flip: dict[int, int] = field(init=False, repr=False, compare=False, hash=False)
    _pairs: tuple[str, ...] = field(init=False, repr=False, compare=False, hash=False)
    _names: dict[int, str] = field(init=False, repr=False, compare=False, hash=False)

    def __init__(self, symbols: Iterable[str]):
        syms = tuple(symbols)
        for s in syms:
            if not _NAME_RE.match(s):
                raise MalformedWordError(f"bad generator name {s!r}")
        if len(set(syms)) != len(syms):
            raise MalformedWordError(f"duplicate generator names in {syms}")
        codes = range(256, 256 + 2 * len(syms))
        object.__setattr__(self, "symbols", syms)
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(syms)})
        object.__setattr__(self, "_codes", {(i, s): chr(256 + 2 * i + (s < 0))
                                            for i in range(len(syms)) for s in (1, -1)})
        object.__setattr__(self, "_flip", {c: c ^ 1 for c in codes})
        object.__setattr__(self, "_pairs", tuple(chr(c) + chr(c ^ 1) for c in codes))
        object.__setattr__(self, "_names", {c: syms[(c - 256) >> 1] + ("^-1*" if c & 1 else "*")
                                            for c in codes})

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
        return Word._trusted(self, chr(256 + 2 * self.index(name)))

    def identity(self) -> "Word":
        return Word._trusted(self, "")


@dataclass(frozen=True)
class Word:
    """A word over an alphabet, held as its letter-code text (see the
    module docstring); not necessarily freely reduced.

    ``Word(alphabet, letters)`` checks each (index, sign) letter;
    ``Word._trusted(alphabet, text)`` is the one unchecked constructor.
    ``*`` multiplies and freely reduces (group semantics); use
    :meth:`concat` for raw juxtaposition.
    """

    alphabet: Alphabet
    text: str

    def __init__(self, alphabet: Alphabet, letters: Iterable[Letter]):
        try:
            text = "".join(map(alphabet._codes.__getitem__, letters))
        except (KeyError, TypeError) as e:
            raise MalformedWordError(
                f"bad letter for a rank-{alphabet.rank} alphabet: {e}") from None
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "text", text)

    @classmethod
    def _trusted(cls, alphabet: Alphabet, text: str) -> "Word":
        """A word from text already known to hold only letter codes of
        `alphabet`, skipping the check of the public constructor."""
        w = object.__new__(cls)
        object.__setattr__(w, "alphabet", alphabet)
        object.__setattr__(w, "text", text)
        return w

    @property
    def letters(self) -> tuple[Letter, ...]:
        """The (symbol index, sign) letters, built on each access."""
        return tuple([((c - 256) >> 1, -1 if c & 1 else 1) for c in map(ord, self.text)])

    def __len__(self) -> int:
        return len(self.text)

    def __bool__(self) -> bool:
        return bool(self.text)

    def __mul__(self, other: "Word") -> "Word":
        return free_reduce(self.concat(other))

    def concat(self, other: "Word") -> "Word":
        if other.alphabet != self.alphabet:
            raise AlphabetMismatchError("cannot concatenate words over different alphabets")
        return Word._trusted(self.alphabet, self.text + other.text)

    def inverse(self) -> "Word":
        return Word._trusted(self.alphabet, self.text[::-1].translate(self.alphabet._flip))

    def __invert__(self) -> "Word":
        return self.inverse()

    def __pow__(self, n: int) -> "Word":
        """self^n, freely reduced: g c^|n| g^-1 for the cyclic core c and the
        conjugator g of self (of its inverse for n < 0) is reduced as written."""
        base = self if n >= 0 else self.inverse()
        t = base.text
        if not (n and t) or base.is_reduced() and ord(t[0]) ^ 1 != ord(t[-1]):
            return Word._trusted(self.alphabet, t * abs(n))  # base cyclically reduced
        core, g = cyclically_reduce(base)
        return Word._trusted(self.alphabet, g.text + core.text * abs(n) + g.inverse().text)

    def conjugated_by(self, g: "Word") -> "Word":
        """g^-1 * self * g, freely reduced."""
        return free_reduce(g.inverse().concat(self).concat(g))

    def is_reduced(self) -> bool:
        return not any(pair in self.text for pair in self.alphabet._pairs)

    def __repr__(self) -> str:
        return f"Word({render_word(self)!r})"

    def __str__(self) -> str:
        return render_word(self)


def commutator(u: Word, v: Word) -> Word:
    """[u,v] = u v u^-1 v^-1, freely reduced; with u and v reduced first,
    letters cancel only at the three joins, so no letter stack is built."""
    if u.alphabet != v.alphabet:
        raise AlphabetMismatchError("cannot concatenate words over different alphabets")
    flip = u.alphabet._flip
    w = Word._trusted(u.alphabet, u.text + v.text + u.text[::-1].translate(flip)
                      + v.text[::-1].translate(flip))
    if w.is_reduced():
        return w
    u, v = free_reduce(u), free_reduce(v)
    text = u.text
    for piece in (v.text, u.inverse().text, v.inverse().text):
        text, _ = reduce_join(text, piece)
    return Word._trusted(u.alphabet, text)


def free_reduce(w: Word) -> Word:
    """The unique reduced word freely equal to w: w itself when no letter
    meets its inverse (a substring search per pair), else by stack
    cancellation."""
    if w.is_reduced():
        return w
    out: list[int] = []
    for c in map(ord, w.text):
        if out and out[-1] == c ^ 1:
            out.pop()
        else:
            out.append(c)
    return Word._trusted(w.alphabet, "".join(map(chr, out)))


def cyclically_reduce(w: Word) -> tuple[Word, Word]:
    """Return (core, conjugator) with core cyclically reduced and
    conjugator * core * conjugator^-1 freely equal to w.
    """
    w = free_reduce(w)
    t, n, k = w.text, len(w.text), 0
    while 2 * k + 2 <= n and ord(t[k]) ^ 1 == ord(t[n - 1 - k]):
        k += 1
    return Word._trusted(w.alphabet, t[k:n - k]), Word._trusted(w.alphabet, t[:k])


def apply_map(w: Word, images: Mapping[str, Word], target: Alphabet | None = None) -> Word:
    """Substitute images for symbols (inverting for negative letters) and reduce.

    Every symbol occurring in w must have an image; images must all live
    over one alphabet (pass `target` explicitly if the mapping is empty or
    ambiguous).  Each image is checked and inverted once per call, in the
    order the symbols first occur in w.
    """
    if target is None:
        for im in images.values():
            target = im.alphabet
            break
        if target is None:
            raise UnmappedSymbolError("cannot infer target alphabet from empty image map")
    table: dict[int, str] = {}
    for c in map(ord, dict.fromkeys(w.text)):
        name = w.alphabet.symbols[(c - 256) >> 1]
        if name not in images:
            raise UnmappedSymbolError(f"no image for symbol {name!r}")
        im = images[name]
        if im.alphabet != target:
            raise AlphabetMismatchError(f"image of {name!r} lives over a different alphabet")
        table[c] = im.inverse().text if c & 1 else im.text
    return free_reduce(Word._trusted(target, w.text.translate(table)))


def relabel(words: Iterable[Word], target: Alphabet,
            names: Sequence[str | None] | None = None) -> list[Word]:
    """Carry words over one common alphabet into `target` letter by letter:
    symbol i becomes `target.index(names[i])`, by default the symbol's own
    name, and its letters are deleted where names[i] is None.  The renaming
    must be injective; without deletions it then keeps freely reduced words
    reduced.  Nothing is reduced here.
    """
    words = list(words)
    if not words:
        return []
    src = words[0].alphabet
    if names is None:
        names = src.symbols
    elif len(names) != src.rank:
        raise AlphabetMismatchError(f"{len(names)} names for a rank-{src.rank} alphabet")
    kept = [n for n in names if n is not None]
    if len(set(kept)) != len(kept):
        raise MalformedWordError(f"renaming onto {list(names)} is not injective")
    table = {256 + 2 * i + b: None if n is None else 256 + 2 * target.index(n) + b
             for i, n in enumerate(names) for b in (0, 1)}
    out = []
    for w in words:
        if w.alphabet != src:
            raise AlphabetMismatchError("cannot relabel words over different alphabets")
        out.append(Word._trusted(target, w.text.translate(table)))
    return out


def identity_images(alphabet: Alphabet) -> dict[str, Word]:
    return {s: alphabet.gen(s) for s in alphabet.symbols}


def exponent_vector(w: Word) -> tuple[int, ...]:
    """Per-symbol signed letter counts; zero vector iff w is in [F,F]."""
    v = [0] * w.alphabet.rank
    for ch in set(w.text):
        c, k = ord(ch) - 256, w.text.count(ch)
        v[c >> 1] += -k if c & 1 else k
    return tuple(v)


def letter_codes(w: Word) -> list[int]:
    """The integer code of each letter of w: (i, s) is 2*i + (s < 0), so
    the codes of a letter and of its inverse differ in the lowest bit."""
    return [c - 256 for c in map(ord, w.text)]


def reduce_join(u: str, v: str) -> tuple[str, int]:
    """Free reduction of u + v for freely reduced word texts, with the
    number of letters cancelled on each side of the join."""
    j, n = 0, min(len(u), len(v))
    while j < n and ord(u[-1 - j]) ^ 1 == ord(v[j]):
        j += 1
    return u[:len(u) - j] + v[j:], j


def conjugacy_test(u: Word, v: Word) -> Word | None:
    """A witness w with w v w^-1 = u in the free group, or None when u and
    v are not conjugate.  Conjugacy in a direct product of free groups is
    componentwise: one test per component."""
    if u.alphabet != v.alphabet:
        raise AlphabetMismatchError("conjugacy operands over different alphabets")
    cu, gu = cyclically_reduce(u)
    cv, gv = cyclically_reduce(v)
    # the least j with rot_j(cu) == cv; a match at len(cu) would repeat j = 0
    j = (cu.text + cu.text).find(cv.text) if len(cu) == len(cv) else -1
    if j < 0:
        return None
    # u = gu cu gu^-1, v = gv rot_j(cu) gv^-1, rot_j(cu) = x^-1 cu x
    # with x the length-j prefix of cu; hence u = w v w^-1 for
    # w = gu x gv^-1.
    x = Word._trusted(cu.alphabet, cu.text[:j])
    return free_reduce(gu.concat(x).concat(gv.inverse()))


# --- text syntax -----------------------------------------------------------

# The most letters a parsed word, or a power u^e in it, may spell out, checked
# before it is built; rips_wise(super_perfectify(D)).gamma's longest has 5,947.
MAX_POWER_LETTERS = 10**6

# any other non-space character is `bad`, the first one a syntax error
_TOKEN_RE = re.compile(
    r"(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<int>-?\d+)|(?P<punct>[*^()\[\],<>|=])|(?P<bad>\S)"
)


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.toks: list[tuple[str, str, int]] = []
        for m in _TOKEN_RE.finditer(text):
            if m.lastgroup == "bad":
                raise MalformedWordError(
                    f"syntax error at {self._linecol(m.start())}: unexpected {m.group()!r}")
            self.toks.append((m.lastgroup, m.group(), m.start()))  # type: ignore[arg-type]

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

    def finish(self, msg: str) -> None:
        """Raise `msg`, its {} filled with the first token left over, at
        that token; nothing when all tokens are read."""
        t = self.peek()
        if t is not None:
            raise self.error(msg.format(repr(t[1])), t)


def _parse_word_tokens(toks: _Tokens, alphabet: Alphabet) -> str:
    """The text of the word read up to the next delimiter outside brackets.
    Each open bracket waits on an explicit stack with the factors read
    before it, so brackets nest to any depth."""
    # per open bracket: the factors before it, "(" or "[" (or "," once "[u,"
    # is read) and the text of u
    stack: list[tuple[list[str], str, str]] = []
    parts: list[str] = []
    held = 0  # letters in `parts` and on the stack
    while True:
        t = toks.peek()
        if t is not None and t[1] == "*":
            toks.next()
            continue
        if t is None or t[1] in (",", ")", "]", ">", "|", "="):
            if not stack:
                return "".join(parts)
            outer, opener, u = stack.pop()
            if opener == "[":
                toks.expect(",")
                stack.append((outer, ",", "".join(parts)))
                parts = []
                continue
            toks.expect(")" if opener == "(" else "]")
            atom = "".join(parts)
            held -= len(atom) + len(u)  # u is "" after "("
            if opener == ",":
                if held + 2 * (len(u) + len(atom)) > MAX_POWER_LETTERS:
                    raise toks.error("word too long", t)
                u_word, v_word = Word._trusted(alphabet, u), Word._trusted(alphabet, atom)
                atom = commutator(u_word, v_word).text
            parts = outer
        else:
            toks.next()
            kind, val, _ = t
            if val in ("(", "["):
                stack.append((parts, val, ""))
                parts = []
                continue
            if kind == "name":
                atom = chr(256 + 2 * alphabet.index(val))
            elif kind == "int" and val == "1":
                atom = ""  # identity literal
            else:
                raise toks.error(f"unexpected {val!r} in word", t)
        nxt = toks.peek()
        if nxt is not None and nxt[1] == "^":
            toks.next()
            e = toks.next()
            if e is None or e[0] != "int":
                raise toks.error("expected integer exponent after '^'", e)
            try:
                if len(atom) * abs(n := int(e[1])) > MAX_POWER_LETTERS:
                    raise OverflowError
            except (ValueError, OverflowError):  # no such power fits
                raise toks.error("exponent too large", e) from None
            if held + len(atom) * abs(n) > MAX_POWER_LETTERS:
                raise toks.error("word too long", e)
            atom = atom and (Word._trusted(alphabet, atom) ** n).text  # 1^n is 1
        if held + len(atom) > MAX_POWER_LETTERS:
            raise toks.error("word too long", t)
        held += len(atom)
        parts.append(atom)


def parse_word(alphabet: Alphabet, text: str) -> Word:
    """Parse word text syntax over the given alphabet."""
    toks = _Tokens(text)
    w = Word._trusted(alphabet, _parse_word_tokens(toks, alphabet))
    toks.finish("trailing {} after word")
    return w


def render_word(w: Word) -> str:
    """Canonical text: runs collapsed, '*' separators, '^-k' for negatives.
    Runs are written first, then each other letter by the translate table."""
    if not w.text:
        return "1"
    symbols = w.alphabet.symbols

    def run(m: re.Match[str]) -> str:
        c, k = ord(m[1]) - 256, len(m[0])
        return f"{symbols[c >> 1]}^{-k if c & 1 else k}*"

    return _RUN_RE.sub(run, w.text).translate(w.alphabet._names)[:-1]
