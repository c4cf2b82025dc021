"""Metric small-cancellation machinery: piece analysis, C'(lambda)
certification, and Dehn's algorithm for certified presentations.

A piece is a word occurring in two distinct places on the boundaries of
the symmetrized relators (all cyclic rotations of the relators and their
inverses); occurrences are distinguished by (relator, sign, offset), so a
subword that repeats at two positions of the same relator counts.  The
certificate condition C'(lambda): every piece is strictly shorter than
lambda times the length of every relator containing it.

The scanner sorts rotation slots, offsets into the doubled encoded
relator texts, without writing any rotation out: bounded-length prefix
keys first, longer keys only for runs still tied.  The longest piece
touching a given rotation is then the longest common prefix with one of
its sorted neighbours, found by slice comparisons.  Memory is linear in
the relator letters when rotations part after a few letters, as on
C'(lambda) input, and quadratic only in a relator whose rotations tie
over its whole length, such as a long proper power.

Dehn's algorithm repeatedly replaces a subword that is more than half of
a symmetrized relator (strict inequality; leftmost match) by the inverse
of the remainder.  On C'(1/6)-certified input a freely reduced word
represents the identity iff this terminates at the empty word, and every
"trivial" verdict carries a product-of-conjugates certificate that
re-expands to the input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .freewords import (
    Word,
    cyclically_reduce,
    decode_letters,
    encode_letters,
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
    """Entries 2t and 2t + 1: the encoded core of relator t and of its
    inverse, each written twice so that every rotation is a substring."""
    return [s + s for core in cores
            for s in (encode_letters(core.letters), encode_letters(core.inverse().letters))]


def _encoded_cores(texts: Sequence[str]) -> tuple[str, ...]:
    """The encoded core of each relator, read back from its doubled text."""
    return tuple(D[:len(D) // 2] for D in texts[::2])


def _common_prefix(a: str, b: str, m: int) -> int:
    """Length of the longest common prefix of a and b, whose first m
    letters agree, by slice bisection."""
    hi = min(len(a), len(b))
    while m < hi:
        mid = (m + hi + 1) // 2
        if a[m:mid] == b[m:mid]:
            m = mid
        else:
            hi = mid - 1
    return m


def _sorted_rotations(texts: Sequence[str]) -> tuple[list[tuple[int, int, int]], list[int]]:
    """Every rotation slot (text id, offset, length) of the doubled texts,
    sorted by its rotation word with equal words in slot order, plus
    lcp[k], the common-prefix length of sorted slots k and k + 1.

    Slots are sorted by keys, the first K letters of their rotations.  A
    key is a prefix of its rotation, so unequal keys already order their
    rotations, and their common prefix is that of the rotations.  A run
    of equal keys, so of rotations agreeing on K letters, is sorted again
    with K doubled while some member's rotation is longer than K.
    """
    slots = [(tid, o, len(D) // 2) for tid, D in enumerate(texts) for o in range(len(D) // 2)]
    lcp = [0] * (len(slots) - 1)
    tied = [(0, len(slots), 8, 0)]  # (lo, hi, K, letters the run agrees on)
    while tied:
        lo, hi, K, agree = tied.pop()
        seg = slots[lo:hi]  # in slot order, and the sort is stable
        keys = [texts[t][o:o + K] if K <= L else texts[t][o:o + L] for t, o, L in seg]
        order = sorted(range(len(seg)), key=keys.__getitem__)
        slots[lo:hi] = [seg[x] for x in order]
        keys = [keys[x] for x in order]
        start = 0
        for j in range(1, len(keys) + 1):
            if j < len(keys) and keys[j] == keys[start]:
                continue
            if j - start > 1:
                if any(L > K for _, _, L in slots[lo + start:lo + j]):
                    tied.append((lo + start, lo + j, 2 * K, K))
                else:  # equal rotation words
                    lcp[lo + start:lo + j - 1] = [len(keys[start])] * (j - start - 1)
            if j < len(keys):
                lcp[lo + j - 1] = _common_prefix(keys[j - 1], keys[j], agree)
            start = j
    return slots, lcp


@dataclass
class PieceWitness:
    relator_a: int
    relator_b: int
    piece: Word
    length: int


@dataclass
class MetricCertificate:
    """Outcome of the exhaustive C'(lambda) piece check; `cores` are the
    `encode_letters` texts of the cyclic cores it scanned."""

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
    maxes = [0] * len(cores)
    witness_for: dict[int, int] = {}  # relator -> sorted position k of its pair (k, k + 1)
    for k, n in enumerate(lcp):
        if n == 0:
            continue
        for tid, _, _ in (slots[k], slots[k + 1]):
            if n > maxes[tid // 2]:
                maxes[tid // 2] = n
                witness_for[tid // 2] = k
    passed = True
    offending = None
    for t, L in enumerate(lengths):
        # fail iff some piece has length >= lam * L, i.e. len * q >= p * L
        if maxes[t] and maxes[t] * lam.denominator >= lam.numerator * L:
            passed = False
            k = witness_for[t]
            (ta, oa, _), (tb, _, _) = slots[k], slots[k + 1]
            piece = decode_letters(P.alphabet, texts[ta][oa:oa + lcp[k]])
            offending = PieceWitness(min(ta // 2, tb // 2), max(ta // 2, tb // 2),
                                     piece, maxes[t])
            break
    return MetricCertificate(lam, passed, lengths, tuple(maxes), min(lengths),
                             offending, _encoded_cores(texts))


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
    """Reusable Dehn reducer for one certified presentation, on
    `encode_letters` text.

    A slot is a rotation of a symmetrized relator (an offset into its
    doubled text).  One dict maps the first k letters of each slot to slot
    ids, k the shortest more-than-half length, so a scan makes one probe
    per position and then compares each candidate's more-than-half prefix
    and extension.

    A supplied certificate is trusted only if it passed at some lambda
    <= 1/6 and scanned exactly P's cyclic cores; without one, P is
    certified at 1/6 here.  Under C'(1/6) every piece is shorter than a
    sixth of each relator containing it, and the common prefix of two
    distinct slots is a piece.  So no two slots share a rotation word (a
    piece of full length), and no two slots both match more than half of
    themselves at one position (their common prefix would be a piece
    longer than half the shorter relator): at most one slot matches at
    any position, and the first match found is the only one.
    """

    def __init__(self, P: FinitePresentation,
                 certificate: MetricCertificate | None = None):
        cores = _cores(P)
        if certificate is None:
            certificate = metric_certificate(P)
        if not certificate.passed:
            raise CertificateRequired(certificate.describe())
        if certificate.lam > Fraction(1, 6):
            raise CertificateRequired(
                f"C'({certificate.lam}) certificate is weaker than C'(1/6)")
        # a subword of texts[tid] is inverted by slicing texts[tid ^ 1]
        self.texts = _doubled_texts(cores)
        if certificate.cores != _encoded_cores(self.texts):
            raise CertificateRequired(
                "certificate was computed for other relators than the presentation's")
        self.presentation = P
        self.certificate = certificate
        # per relator: the inverse of its cyclic conjugator
        self.conj_inv = [encode_letters(cyclically_reduce(r)[1].inverse().letters)
                         for r in P.relators]
        halves = [len(c) // 2 + 1 for c in cores if c]  # more-than-half lengths
        self.k = min(halves, default=1)
        self.max_h = max(halves, default=1)
        self.slots: list[tuple[int, int, int]] = []  # (text id, offset, length)
        self.by_prefix: dict[str, list[int]] = {}
        for tid, D in enumerate(self.texts):
            L = len(D) // 2
            for o in range(L):
                self.by_prefix.setdefault(D[o:o + self.k], []).append(len(self.slots))
                self.slots.append((tid, o, L))

    def solve(self, w: Word, collect_trace: bool = False) -> DehnResult:
        P = self.presentation
        reduced = free_reduce(w)
        cur = encode_letters(reduced.letters)
        factors: list[tuple[Word, int, int]] = []
        trace: list[str] = []
        scan_from = 0
        while (found := self._find(cur, scan_from)) is not None:
            i, m, sid = found
            tid, o, L = self.slots[sid]
            D_inv = self.texts[tid ^ 1]
            rel, sign = tid // 2, -1 if tid & 1 else 1
            # r^sign = c p R p^-1 c^-1 for the slot's rotation R and its
            # prefix p = D[:o]; the factor's conjugator is left * (c p)^-1
            left = cur[:i]
            g, _ = reduce_join(left, D_inv[2 * L - o:] + self.conj_inv[rel])
            factors.append((decode_letters(P.alphabet, g), rel, sign))
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
            residual=decode_letters(P.alphabet, cur),
            factors=tuple(factors),
            replacements=len(factors),
            trace=tuple(trace),
        )
        # re-expanded from P.relators, never from the solver's texts
        if result.trivial and result.closure_certificate(P).expanded != reduced:
            raise AssertionError("Dehn certificate failed to re-expand (internal error)")
        return result

    def _find(self, cur: str, start: int) -> tuple[int, int, int] | None:
        """(position, match length, slot id): the leftmost position where
        more than half of a slot starts, with the slot's full match there."""
        k, n = self.k, len(cur)
        for i in range(start, n - k + 1):
            for sid in self.by_prefix.get(cur[i:i + k], ()):
                tid, o, L = self.slots[sid]
                D, h = self.texts[tid], L // 2 + 1
                if cur[i + k:i + h] != D[o + k:o + h]:
                    continue
                m = h
                while m < L and i + m < n and cur[i + m] == D[o + m]:
                    m += 1
                return i, m, sid
        return None


def dehn_word_problem(P: FinitePresentation, w: Word,
                      collect_trace: bool = False) -> DehnResult:
    """Decide triviality of w in a C'(1/6)-certified presentation.

    Builds (and certifies) a solver; reuse a DehnSolver instance when
    deciding many words.
    """
    return DehnSolver(P).solve(w, collect_trace=collect_trace)
