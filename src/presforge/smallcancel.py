"""Metric small-cancellation machinery: piece analysis, C'(lambda)
certification, and Dehn's algorithm for certified presentations.

A piece is a word occurring in two distinct places on the boundaries of
the symmetrized relators (all cyclic rotations of the relators and their
inverses); occurrences are distinguished by (relator, sign, offset), so a
subword that repeats at two positions of the same relator counts.  The
certificate condition C'(lambda): every piece is strictly shorter than
lambda times the length of every relator containing it.

The scanner sorts rotation slots, offsets into the doubled relator
texts, without writing any rotation out: byte keys of 64 letters, four
times as long only for runs still tied, and one comparison with its
first member for a run of equal rotation words.  The longest piece
touching a rotation is its longest common prefix with a sorted
neighbour, where their keys first differ, so the sort yields them all.
Memory is linear in the relator letters on C'(lambda) input, proper
powers and repeated relators, and quadratic only in rotations that agree
over most of their length without being equal, such as those of a^k b.

Dehn's algorithm repeatedly replaces a subword that is more than half of
a symmetrized relator (strict inequality; leftmost match) by the inverse
of the remainder.  On C'(1/6)-certified input a freely reduced word
represents the identity iff this terminates at the empty word, and every
"trivial" verdict carries a product-of-conjugates certificate that
re-expands to the input.  Every match is at least k letters long, k the
shortest more-than-half length, so the scan need not look at every
position: it looks up the q = ceil(k/2) letters at every s-th position,
s = k - q + 1, in one index of the first q letters of each rotation, and
one of these seeds lies inside any match.
The solver works on word texts throughout; a trivial verdict is
re-checked by `NormalClosureElement.expand`, the one expander of every
closure certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, count, pairwise, repeat, starmap
from operator import eq, itemgetter, xor
from typing import Sequence

from .freewords import (
    AlphabetMismatchError,
    Word,
    cyclically_reduce,
    free_reduce,
    reduce_join,
    render_word,
)
from .presentations import FinitePresentation
from .uce import NormalClosureElement


class CertificateRequired(ValueError):
    """Dehn's algorithm demands a passing metric certificate."""


def _cores(P: FinitePresentation) -> list[Word]:
    return [cyclically_reduce(r)[0] for r in P.relators]


def _doubled_texts(cores: Sequence[Word]) -> list[str]:
    """Entries 2t and 2t + 1: the text of the core of relator t and of its
    inverse, each written twice so that every rotation is a substring."""
    return [s + s for core in cores for s in (core.text, core.inverse().text)]


def _letter_bytes(texts: Sequence[str]) -> tuple[int, list[bytes]]:
    """(w, the texts in w bytes a letter): code 256 + c as the byte c + 1
    while that fits, else the code in four big-endian bytes, so byte
    order is letter order and no letter is zero."""
    top = max(map(ord, map(max, filter(None, texts))), default=256)
    if top - 256 < 255:
        plus_one = bytes(range(1, 256)) + b"\0"
        return 1, [D.encode("utf-16-be")[1::2].translate(plus_one) for D in texts]
    return 4, [D.encode("utf-32-be", "surrogatepass") for D in texts]


def _sorted_rotations(texts: Sequence[str]) -> tuple[list[tuple[int, int, int]], list[int]]:
    """Every rotation slot (text id, offset, length) of the doubled texts,
    sorted by its rotation word with equal words in slot order, plus the
    common-prefix length of each sorted neighbour pair (k, k + 1), which
    is the rotation length where the two rotation words are equal.

    Slots are sorted by keys, the `_letter_bytes` of the first K letters
    of their rotations zero-padded to K, so unequal keys order their
    rotations, and two keys first differ at the top bit of their XOR as
    big-endian integers.  The first round takes K = 64.  A run of equal
    keys whose members all have the first member's length and rotation
    word is settled; any other run alone is sorted again on the letters
    past the K its members share, with K four times as long (at most its
    longest member).  Every round XORs each neighbour pair of its keys;
    pairs still equal are overwritten when their run is settled or sorted.
    """
    w, data = _letter_bytes(texts)
    unit = 8 * w
    slots = [(t, o, L) for t, D in enumerate(texts) for L in (len(D) // 2,) for o in range(L)]
    lcp = [0] * (len(slots) - 1)
    tied = [(0, len(slots), 0, 64)]  # (lo, hi, letters all members share, K)
    while tied:
        lo, hi, h, K = tied.pop()
        seg = slots[lo:hi]  # in slot order, and the sort is stable
        K = min(K, max(map(itemgetter(2), seg), default=0))
        keys = [data[t][w * (o + h):w * (o + K)] if K <= L else
                data[t][w * (o + h):w * (o + L)].ljust(w * (K - h), b"\0") for t, o, L in seg]
        order = sorted(range(len(seg)), key=keys.__getitem__)
        slots[lo:hi] = seg = [seg[x] for x in order]
        keys = [keys[x] for x in order]
        ints = map(int.from_bytes, keys, repeat("big"))
        lcp[lo:hi - 1] = [h + (unit * (K - h) - x.bit_length()) // unit
                          for x in starmap(xor, pairwise(ints))]
        runs: list[list[int]] = []  # [first, last] of each run of equal keys
        for j in compress(count(1), map(eq, keys, keys[1:])):
            if runs and runs[-1][1] == j - 1:
                runs[-1][1] = j
            else:
                runs.append([j - 1, j])
        del keys  # before the next round's keys are built
        for a, b in runs:
            t0, o0, L0 = seg[a]
            word = texts[t0][o0:o0 + L0]
            if all(L == L0 and texts[t].startswith(word, o) for t, o, L in seg[a + 1:b + 1]):
                lcp[lo + a:lo + b] = [L0] * (b - a)
            else:
                tied.append((lo + a, lo + b + 1, K, 4 * K))
    return slots, lcp


def _agreement(a: str, i: int, b: str, j: int, lo: int, hi: int, back: bool = False) -> int:
    """The largest t in lo..hi where a and b agree over the t letters from
    i and j, a[i:i + t] == b[j:j + t] (with `back`, the t letters before
    them), given that they agree at lo: the full length first, then a
    binary search, each probe comparing only the letters past lo."""
    def agree(t: int) -> bool:
        return a[i - t:i - lo] == b[j - t:j - lo] if back else a[i + lo:i + t] == b[j + lo:j + t]
    t = hi
    while lo < hi:
        if agree(t):
            lo = t
        else:
            hi = t - 1
        t = (lo + hi + 1) // 2
    return lo


@dataclass
class PieceWitness:
    relator_a: int
    relator_b: int
    piece: Word
    length: int


@dataclass
class MetricCertificate:
    """Outcome of the exhaustive C'(lambda) piece check; `cores` are the
    texts of the cyclic cores it scanned."""

    lam: Fraction
    passed: bool
    relator_lengths: tuple[int, ...]
    max_piece_by_relator: tuple[int, ...]
    min_relator_length: int | None
    offending: PieceWitness | None
    cores: tuple[str, ...] = field(repr=False)

    def describe(self) -> str:
        if self.passed:
            return f"C'({self.lam}) certificate: pass"
        o = self.offending
        assert o is not None
        return (f"C'({self.lam}) certificate: FAIL; piece {render_word(o.piece)!r} of "
                f"length {o.length} shared by relators {o.relator_a} and {o.relator_b}")


def metric_certificate(P: FinitePresentation,
                       lam: Fraction = Fraction(1, 6)) -> MetricCertificate:
    """Exhaustive piece computation over the symmetrized relator set.

    Relators are cyclically reduced first.  Reproducible: the offending
    witness, when present, is the lexicographically first sorted neighbour
    pair achieving the maximal piece of the first failing relator.
    """
    lam = Fraction(lam)
    cores = _cores(P)
    lengths = tuple(len(c) for c in cores)
    if not cores:
        return MetricCertificate(lam, True, (), (), None, None, ())
    texts = _doubled_texts(cores)
    slots, lcp = _sorted_rotations(texts)
    # per relator: its longest piece and the least pair k reaching it
    maxes, witness_for = [0] * len(cores), [-1] * len(cores)
    rels = [t >> 1 for t, _, _ in slots]
    for k, h, r, q in zip(count(), lcp, rels, rels[1:]):
        if h > maxes[r]:
            maxes[r], witness_for[r] = h, k
        if h > maxes[q]:
            maxes[q], witness_for[q] = h, k
    passed = True
    offending = None
    for t, L in enumerate(lengths):
        # fail iff some piece has length >= lam * L, i.e. len * q >= p * L
        if maxes[t] and maxes[t] * lam.denominator >= lam.numerator * L:
            passed = False
            k = witness_for[t]
            (ta, oa, _), (tb, _, _) = slots[k], slots[k + 1]
            piece = Word._trusted(P.alphabet, texts[ta][oa:oa + lcp[k]])
            offending = PieceWitness(min(ta // 2, tb // 2), max(ta // 2, tb // 2),
                                     piece, maxes[t])
            break
    return MetricCertificate(lam, passed, lengths, tuple(maxes), min(lengths),
                             offending, tuple(c.text for c in cores))


# --- Dehn's algorithm -------------------------------------------------------

@dataclass
class DehnResult:
    """Verdict plus, for trivial words, the product-of-conjugates
    certificate (conjugator, relator index, sign) accumulated during the
    reduction; `residual` is the final irreducible word."""

    trivial: bool
    residual: Word
    factors: tuple[tuple[Word, int, int], ...]
    replacements: int
    trace: tuple[str, ...]

    def closure_certificate(self, P: FinitePresentation) -> NormalClosureElement:
        return NormalClosureElement.build(P, self.factors)

    def verify_certificate(self, P: FinitePresentation, original: Word) -> bool:
        if not self.trivial:
            return False
        return self.closure_certificate(P).expanded == free_reduce(original)


class DehnSolver:
    """Reusable Dehn reducer for one certified presentation, on word
    texts.

    A slot is a rotation of a symmetrized relator (an offset into its
    doubled text).  With k the shortest more-than-half length, the dict
    `by_seed` maps the first q = ceil(k/2) letters of each slot, its seed,
    to its slot ids.  A scan from `start` probes only the positions
    p = start + s - 1, start + 2s - 1, ..., stride s = k - q + 1.  A match
    starting at i >= start has at least k = s + q - 1 letters, so it holds
    the seed at the first probe p >= i, and p - i < s.  Each slot hit at p
    fixes an alignment of the word on a relator; running it back from p
    by `_agreement`, at most s - 1 letters, gives its leftmost start in the
    probe's window p - s + 1..p (the first window begins at `start`).  The
    earlier probes found no match, so none starts before that window: a
    match found at p, once its more-than-half prefix is compared and the
    match extended by `_agreement`, is the leftmost one, and its slot is
    the hit's slot run back as far.

    A supplied certificate is trusted only if it passed at some lambda
    <= 1/6 and scanned exactly P's cyclic cores; without one, P is
    certified at 1/6 here.  Under C'(1/6) every piece is shorter than a
    sixth of each relator containing it, and the common prefix of two
    distinct slots is a piece.  So no two slots share a rotation word (a
    piece of full length), and no two slots both match more than half of
    themselves at one position (their common prefix would be a piece
    longer than half the shorter relator): at most one slot matches at
    any position.  Nor do two alignments both match in one probe's window:
    the later one starts at most s - 1 <= k // 2 letters after the other,
    so their overlap would be a piece longer than a quarter of the relator
    matched first or than half of the other.  So the first hit that
    matches is the only one.

    `solve` freely reduces its input (which returns a reduced word as it
    is) and rewrites the text of the result.  A trivial verdict is
    re-checked from the returned factors and P's relators alone, by
    `NormalClosureElement.expand`, and a failed re-check raises
    AssertionError, an internal error.
    """

    def __init__(self, P: FinitePresentation,
                 certificate: MetricCertificate | None = None):
        # per relator: its cyclic core and the conjugator c with r = c core c^-1
        split = [cyclically_reduce(r) for r in P.relators]
        cores = [core for core, _ in split]
        if certificate is None:
            certificate = metric_certificate(P)
        if not certificate.passed:
            raise CertificateRequired(certificate.describe())
        if certificate.lam > Fraction(1, 6):
            raise CertificateRequired(
                f"C'({certificate.lam}) certificate is weaker than C'(1/6)")
        # a subword of texts[tid] is inverted by slicing texts[tid ^ 1]
        self.texts = _doubled_texts(cores)
        if certificate.cores != tuple(c.text for c in cores):
            raise CertificateRequired(
                "certificate was computed for other relators than the presentation's")
        self.presentation = P
        self.certificate = certificate
        # per relator: the inverse of its cyclic conjugator
        self.conj_inv = [c.inverse().text for _, c in split]
        halves = [len(c) // 2 + 1 for c in cores if c]  # more-than-half lengths
        self.k = min(halves, default=1)
        self.max_h = max(halves, default=1)
        # seeds of q letters, probed every s letters: q + s - 1 = k
        self.q = (self.k + 1) // 2
        self.stride = self.k - self.q + 1
        self.slots: list[tuple[int, int, int]] = []  # (text id, offset, length)
        self.by_seed: dict[str, list[int]] = {}
        for tid, D in enumerate(self.texts):
            L = len(D) // 2
            for o in range(L):
                self.by_seed.setdefault(D[o:o + self.q], []).append(len(self.slots))
                self.slots.append((tid, o, L))

    def solve(self, w: Word, collect_trace: bool = False) -> DehnResult:
        alph = self.presentation.alphabet
        if w.alphabet != alph:
            raise AlphabetMismatchError("word and presentation have different alphabets")
        cur = reduced = free_reduce(w).text
        found: list[tuple[str, int, int]] = []  # (conjugator text, relator, sign)
        trace: list[str] = []
        scan_from = 0
        while (match := self._find(cur, scan_from)) is not None:
            i, m, sid = match
            tid, o, L = self.slots[sid]
            D_inv = self.texts[tid ^ 1]
            rel, sign = tid // 2, -1 if tid & 1 else 1
            # r^sign = c p R p^-1 c^-1 for the slot's rotation R and its
            # prefix p = D[:o]; the factor's conjugator is left * (c p)^-1
            left = cur[:i]
            g, _ = reduce_join(left, D_inv[2 * L - o:] + self.conj_inv[rel])
            found.append((g, rel, sign))
            if collect_trace:
                trace.append(
                    f"pos {i}: matched {m}/{L} letters of relator "
                    f"{rel}{'' if sign > 0 else '^-1'}; "
                    f"replaced by complement of length {L - m}")
            # the match becomes the inverse of the unmatched rest D[o + m:o + L]
            mid, a = reduce_join(left, D_inv[L - o:2 * L - o - m])
            cur, b = reduce_join(mid, cur[i + m:])
            # one before the deepest cancellation, else the match position
            first_change = min(i - a - 1 if a else i, len(mid) - b - 1 if b else i)
            scan_from = max(0, first_change - self.max_h + 1)
        result = DehnResult(
            trivial=not cur,
            residual=Word._trusted(alph, cur),
            factors=tuple((Word._trusted(alph, g), rel, sign) for g, rel, sign in found),
            replacements=len(found),
            trace=tuple(trace),
        )
        if result.trivial and NormalClosureElement.expand(
                self.presentation, result.factors) != reduced:
            raise AssertionError("Dehn certificate failed to re-expand (internal error)")
        return result

    def _find(self, cur: str, start: int) -> tuple[int, int, int] | None:
        """(position, match length, slot id): the leftmost position >= start
        where more than half of a slot starts, with the slot's full match
        there.  The probe at p finds every match starting in p - s + 1..p;
        `_agreement` runs each hit back from p and extends a match."""
        q, s, n = self.q, self.stride, len(cur)
        for p in range(start + s - 1, n - q + 1, s):
            for sid in self.by_seed.get(cur[p:p + q], ()):
                tid, o, L = self.slots[sid]
                D, h = self.texts[tid], L // 2 + 1
                # how far this alignment runs back from p, within the window
                b = _agreement(cur, p, D, o + L, 0, s - 1, back=True)
                i, j = p - b, (o - b) % L
                if cur[p + q:i + h] == D[j + b + q:j + h]:
                    return i, _agreement(cur, i, D, j, h, min(L, n - i)), sid - o + j
        return None


def dehn_word_problem(P: FinitePresentation, w: Word,
                      collect_trace: bool = False) -> DehnResult:
    """Decide triviality of w in a C'(1/6)-certified presentation.

    Builds (and certifies) a solver; reuse a DehnSolver instance when
    deciding many words.
    """
    return DehnSolver(P).solve(w, collect_trace=collect_trace)
