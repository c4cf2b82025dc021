"""Metric small-cancellation machinery: piece analysis, C'(lambda)
certification, and Dehn's algorithm for certified presentations.

A piece is a word occurring in two distinct places on the boundaries of
the symmetrized relators (all cyclic rotations of the relators and their
inverses); occurrences are distinguished by (relator, sign, offset), so a
subword that repeats at two positions of the same relator counts.  The
certificate condition C'(lambda): every piece is strictly shorter than
lambda times the length of every relator containing it.

The scanner sorts all rotation words once; the longest piece touching a
given rotation is then the longest common prefix with one of its sorted
neighbours, which makes the exhaustive check near-linear.  An independent
window-table scan (`threshold_scan`) cross-validates the verdict.

Dehn's algorithm repeatedly replaces a subword that is more than half of
a symmetrized relator (strict inequality; leftmost match, longest slot on
ties) by the inverse of the remainder.  On C'(1/6)-certified input a
freely reduced word represents the identity iff this terminates at the
empty word, and every "trivial" verdict carries a product-of-conjugates
certificate that re-expands to the input.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class _Slot:
    """One occurrence slot: a rotation of relator `rel` or of its inverse,
    as an encoded string."""

    text: str
    rel: int


def _cores(P: FinitePresentation) -> list[Word]:
    return [cyclically_reduce(r)[0] for r in P.relators]


def _doubled_texts(cores: Sequence[Word]) -> list[str]:
    """Entries 2t and 2t + 1: the encoded core of relator t and of its
    inverse, each written twice so that every rotation is a substring."""
    return [s + s for core in cores
            for s in (encode_letters(core.letters), encode_letters(core.inverse().letters))]


def _slots_sorted(cores: Sequence[Word]) -> tuple[list[_Slot], list[int]]:
    """All rotation slots sorted by text, plus adjacent common-prefix
    lengths (lcp[k] between sorted slot k and k+1)."""
    slots: list[_Slot] = []
    for tid, double in enumerate(_doubled_texts(cores)):
        L = len(double) // 2
        slots += (_Slot(double[o:o + L], tid // 2) for o in range(L))
    slots.sort(key=lambda sl: sl.text)
    lcp: list[int] = []
    for k in range(len(slots) - 1):
        a, b = slots[k].text, slots[k + 1].text
        n = min(len(a), len(b))
        i = 0
        while i < n and a[i] == b[i]:
            i += 1
        lcp.append(i)
    return slots, lcp


@dataclass
class PieceWitness:
    relator_a: int
    relator_b: int
    piece: Word
    length: int


@dataclass
class MetricCertificate:
    """Outcome of the exhaustive C'(lambda) piece check."""

    lam: Fraction
    passed: bool
    relator_lengths: tuple[int, ...]
    max_piece_by_relator: tuple[int, ...]
    min_relator_length: int | None
    offending: PieceWitness | None

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
        return MetricCertificate(lam, True, (), (), None, None)
    slots, lcp = _slots_sorted(cores)
    maxes = [0] * len(cores)
    witness_for: dict[int, tuple[int, int]] = {}
    for k in range(len(slots) - 1):
        if lcp[k] == 0:
            continue
        for sl in (slots[k], slots[k + 1]):
            if lcp[k] > maxes[sl.rel]:
                maxes[sl.rel] = lcp[k]
                witness_for[sl.rel] = (k, k + 1)
    passed = True
    offending = None
    for t, L in enumerate(lengths):
        # fail iff some piece has length >= lam * L, i.e. len * q >= p * L
        if maxes[t] and maxes[t] * lam.denominator >= lam.numerator * L:
            passed = False
            ka, kb = witness_for[t]
            a, b = slots[ka], slots[kb]
            piece = decode_letters(P.alphabet, a.text[:lcp[ka]])
            offending = PieceWitness(min(a.rel, b.rel), max(a.rel, b.rel),
                                     piece, maxes[t])
            break
    return MetricCertificate(lam, passed, lengths, tuple(maxes),
                             min(lengths), offending)


@dataclass
class PieceTable:
    """Per-pair maximal piece lengths over the symmetrized relator set.
    Quadratic in the symmetrized size; meant for small presentations."""

    symmetrized: tuple[Word, ...]
    pair_max: dict[tuple[int, int], int]
    relator_lengths: tuple[int, ...]
    min_relator_length: int | None


def piece_table(P: FinitePresentation) -> PieceTable:
    cores = _cores(P)
    if not cores:
        return PieceTable((), {}, (), None)
    slots, lcp = _slots_sorted(cores)
    table: dict[tuple[int, int], int] = {}
    nrel = len(cores)
    for i in range(nrel):
        for j in range(i, nrel):
            best = 0
            last_pos: int | None = None
            last_rel = -1
            running = 0
            for k, sl in enumerate(slots):
                if last_pos is not None and k > last_pos:
                    running = min(running, lcp[k - 1])
                if sl.rel != i and sl.rel != j:
                    continue
                if last_pos is not None:
                    ok = (i == j) or (last_rel != sl.rel)
                    if ok and running > best:
                        best = running
                last_pos, last_rel, running = k, sl.rel, len(sl.text)
            table[(i, j)] = best
    return PieceTable(
        symmetrized=tuple(decode_letters(P.alphabet, sl.text) for sl in slots),
        pair_max=table,
        relator_lengths=tuple(len(c) for c in cores),
        min_relator_length=min(len(c) for c in cores),
    )


def threshold_scan(P: FinitePresentation,
                   lam: Fraction = Fraction(1, 6)) -> bool:
    """Independent pass/fail check: for each relator, look up every cyclic
    window of the minimal violating length in a table of all relators'
    windows and ask for a second distinct occurrence slot."""
    lam = Fraction(lam)
    cores = _cores(P)
    if not cores:
        return True
    texts = _doubled_texts(cores)
    lengths = [len(c) for c in cores]
    thresholds = {}
    for t, L in enumerate(lengths):
        m = -(-(lam.numerator * L) // lam.denominator)  # ceil(lam * L)
        thresholds[t] = max(1, m)
    for m in sorted(set(thresholds.values())):
        windows: dict[str, list[tuple[int, int]]] = {}  # window -> (text id, offset)
        for tid, double in enumerate(texts):
            L = len(double) // 2
            if m > L:
                continue
            for o in range(L):
                win = double[o:o + m]
                bucket = windows.setdefault(win, [])
                if len(bucket) < 2:
                    bucket.append((tid, o))
        for t, L in enumerate(lengths):
            if thresholds[t] != m or m > L:
                continue
            for tid in (2 * t, 2 * t + 1):
                for o in range(L):
                    bucket = windows[texts[tid][o:o + m]]
                    if len(bucket) > 1 or bucket[0] != (tid, o):
                        return False
    return True


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
    doubled text); a rotation word seen at an earlier slot is dropped.  One
    dict maps the first k letters of each slot to slot ids, k the shortest
    more-than-half length, so a scan makes one probe per position and then
    compares each candidate's more-than-half prefix and extension.
    """

    def __init__(self, P: FinitePresentation,
                 certificate: MetricCertificate | None = None,
                 lam: Fraction = Fraction(1, 6)):
        if certificate is None:
            certificate = metric_certificate(P, lam)
        if not certificate.passed:
            raise CertificateRequired(certificate.describe())
        self.presentation = P
        self.certificate = certificate
        cores = _cores(P)
        # a subword of texts[tid] is inverted by slicing texts[tid ^ 1]
        self.texts = _doubled_texts(cores)
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
                bucket = self.by_prefix.setdefault(D[o:o + self.k], [])
                if any(self.texts[t][p:p + n] == D[o:o + L]
                       for t, p, n in (self.slots[s] for s in bucket)):
                    continue  # identical slot word: same replacement effect
                bucket.append(len(self.slots))
                self.slots.append((tid, o, L))

    def solve(self, w: Word, collect_trace: bool = False) -> DehnResult:
        P = self.presentation
        cur = encode_letters(free_reduce(w).letters)
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
        if result.trivial and not result.verify_certificate(P, w):
            raise AssertionError("Dehn certificate failed to re-expand (internal error)")
        return result

    def _find(self, cur: str, start: int) -> tuple[int, int, int] | None:
        """(position, match length, slot id): the leftmost position where
        more than half of a slot starts, its longest match there and, on
        ties, the lowest slot id."""
        k, n = self.k, len(cur)
        for i in range(start, n - k + 1):
            best: tuple[int, int] | None = None  # (match length, slot id)
            for sid in self.by_prefix.get(cur[i:i + k], ()):
                tid, o, L = self.slots[sid]
                D, h = self.texts[tid], L // 2 + 1
                if cur[i + k:i + h] != D[o + k:o + h]:
                    continue
                m = h
                while m < L and i + m < n and cur[i + m] == D[o + m]:
                    m += 1
                if best is None or m > best[0]:  # bucket ids ascend
                    best = (m, sid)
            if best is not None:
                return (i, *best)
        return None


def dehn_word_problem(P: FinitePresentation, w: Word,
                      solver: DehnSolver | None = None,
                      collect_trace: bool = False) -> DehnResult:
    """Decide triviality of w in a C'(1/6)-certified presentation.

    Builds (and certifies) a solver when none is supplied; reuse a
    DehnSolver instance when deciding many words.
    """
    if solver is None:
        solver = DehnSolver(P)
    return solver.solve(w, collect_trace=collect_trace)
