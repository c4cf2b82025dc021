"""Metric small-cancellation machinery: piece analysis, C'(lambda)
certification, and Dehn's algorithm for certified presentations.

A piece is a word occurring in two distinct places on the boundaries of
the symmetrized relators (all cyclic rotations of the relators and their
inverses); occurrences are distinguished by (relator, sign, offset), so a
subword that repeats at two positions of the same relator counts.  The
certificate condition C'(lambda): every piece is strictly shorter than
lambda times the length of every relator containing it.

A longest piece is reached by a pair of rotation slots, offsets into
the doubled relator texts, one of which starts a cyclic run of equal
letters, so the scanner sorts one slot per run, its last: on passing
input, past the texts, its memory is linear in the runs.  It sorts every
slot for a failing witness, or where more than half start a run and that
is as fast.  The sort writes no rotation out: byte keys of 64 letters,
four times as long only for runs still tied, and one comparison for a
run of equal rotation words.  Sorting every slot is quadratic in memory
only on rotations that agree over most of their length without being
equal, such as those of a^k b.

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

import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, count, pairwise, repeat, starmap
from operator import eq, ge, itemgetter, xor
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


def _letter_bytes(texts: Sequence[str], rank: int) -> tuple[int, list[bytes]]:
    """(w, the texts in w bytes a letter): below rank 128 the codes 256 + 2i
    and 256 + 2i + 1 as the bytes 2i + 1 and 2i + 2, else four big-endian
    bytes, so byte order is letter order and none is zero."""
    if rank < 128:
        plus_one = bytes(range(1, 256)) + b"\0"
        return 1, [D.encode("utf-16-be")[1::2].translate(plus_one) for D in texts]
    return 4, [D.encode("utf-32-be", "surrogatepass") for D in texts]


def _sorted_rotations(texts: Sequence[str], rank: int, slots: Sequence[tuple[int, int, int]]
                      | None = None) -> tuple[list[tuple[int, int, int]], list[int]]:
    """The rotation slots (text id, offset, length) of the doubled texts
    over a rank-`rank` alphabet, every slot unless `slots` names some,
    sorted by rotation word, equal words in the given order (by default,
    slot order), and the common-prefix length of each sorted neighbour
    pair (k, k + 1), the rotation length where their words are equal.

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
    w, data = _letter_bytes(texts, rank)
    unit = 8 * w
    slots = list(slots) if slots is not None else [
        (t, o, L) for t, D in enumerate(texts) for L in (len(D) // 2,) for o in range(L)]
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


_RUN = re.compile(r"(.)\1*")


def _run_maxes(texts: Sequence[str], rank: int) -> list[int]:
    """Each relator's longest piece, from the last slot of each cyclic run
    of its doubled texts, by the rule in `metric_certificate`."""
    best = [0] * (len(texts) // 2)
    ran: dict[tuple[int, int, int], int] = {}  # the last slot of a run -> its length
    runs: list[tuple[str, int, int]] = []  # (letter, length, relator) of every run
    for t, D in enumerate(texts):
        L, r = len(D) // 2, t >> 1
        spans = [m.span() for m in _RUN.finditer(D, 0, L)]
        if len(spans) == 1:  # a^L: L equal slots, and one a-run of length L
            best[r] = max(best[r], L if L > 1 else 0)
        elif D[0] == D[L - 1]:  # the last run wraps round into the first
            spans[0] = (spans.pop()[0] - L, spans[0][1])
        for s, e in spans:
            ran[t, e - 1, L] = e - s
            runs.append((D[e - 1], e - s, r))
    top, second = {}, {}  # per letter a, its longest and second longest a-run
    for a, m, _ in sorted(runs):  # by letter, then length
        second[a], top[a] = top.get(a, 0), m
    for a, m, r in runs:  # min(m, second[a]) is the longest piece with LCP 0
        best[r] = max(best[r], m - 1, min(m, second[a]))
    order, lcp = _sorted_rotations(texts, rank, list(ran))
    lcp.append(0)  # past either end, as where the letter changes: reach + 0 <= best[r]
    for i, (t, o, L) in enumerate(order):
        r, m = t >> 1, ran[t, o, L]
        reach = min(m, second[texts[t][o]]) - 1
        if reach + max(lcp[i - 1], lcp[i]) <= best[r]:  # no walk can gain
            continue
        for step, k in ((1, 0), (-1, -1)):  # lcp[j + k] joins j and j + step
            j, h = i, L
            while min(reach + (h := min(h, lcp[j + k])), L) > best[r]:
                j += step
                v = order[j]  # v's relator gains on v's own walk
                best[r] = max(best[r], min(min(m, ran[v]) - 1 + h, L, v[2]))
    return best


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

    Relators are cyclically reduced first.  A slot starts a run when the
    letter before it is not its first.  Moving two distinct slots with the
    same letter before them one letter left never shortens their common
    prefix, capped at the shorter relator, so every relator's longest
    piece is reached by a pair in which one slot starts a run.  Run starts
    u and v after a-runs of lengths m_u and m_v give min(min(m_u, m_v) +
    LCP(u, v), L_u, L_v), LCP the common prefix of their rotations; two
    slots in one run give m - 1; a core a^L gives L to itself when L >= 2
    and is an a-run with m = L; pairs with LCP 0 give min(m_u, the second
    longest a-run).  The last slot of u's a-run has the rotation a + u's,
    so sorting those slots groups the run starts by the letter before
    them, neighbours sharing h = min(1 + LCP(u, v), L_u, L_v).  From each,
    a walk goes outward in sorted order until min(min(m_u, the second
    longest a-run) - 1 + the running h, L_u) no longer beats u's relator's
    best, at the latest where the letter changes (h = 0); a pair that
    would raise v's relator is met on v's own walk.

    Where more than half the slots start a run, every slot is sorted
    instead, as that is then no slower.  Otherwise a failing relator has
    every slot sorted for its witness, and that sort's longest pieces must
    be the run-level ones, else AssertionError (internal error).  A passing
    certificate carries no witness.  Reproducible: the witness is the
    lexicographically first sorted neighbour pair achieving the maximal
    piece of the first failing relator.
    """
    lam = Fraction(lam)
    cores = _cores(P)
    lengths = tuple(len(c) for c in cores)
    if not cores:
        return MetricCertificate(lam, True, (), (), None, None, ())
    texts = _doubled_texts(cores)
    # where more than half the slots start a run, the walk saves nothing over a full sort
    short = 4 * sum(len(_RUN.findall(D, 0, len(D) // 2)) for D in texts) > sum(map(len, texts))
    maxes = None if short else _run_maxes(texts, P.alphabet.rank)
    # fail iff some piece has length >= lam * L, i.e. at least 1 and ceil(lam * L)
    least = [max(1, -(-lam.numerator * L // lam.denominator)) for L in lengths]
    if maxes is None or any(map(ge, maxes, least)):
        slots, lcp = _sorted_rotations(texts, P.alphabet.rank)
        # per relator: its longest piece and the least pair k reaching it
        full, witness_for = [0] * len(cores), [-1] * len(cores)
        rels = [t >> 1 for t, _, _ in slots]
        for k, h, r, q in zip(count(), lcp, rels, rels[1:]):
            if h > full[r]:
                full[r], witness_for[r] = h, k
            if h > full[q]:
                full[q], witness_for[q] = h, k
        if maxes is not None and full != maxes:
            raise AssertionError("run-level pieces differ from the full sort's (internal error)")
        maxes = full
    failing = next(compress(count(), map(ge, maxes, least)), None)
    offending = None
    if failing is not None:
        k = witness_for[failing]
        (ta, oa, _), (tb, _, _) = slots[k], slots[k + 1]
        piece = Word._trusted(P.alphabet, texts[ta][oa:oa + lcp[k]])
        offending = PieceWitness(min(ta // 2, tb // 2), max(ta // 2, tb // 2),
                                 piece, maxes[failing])
    return MetricCertificate(lam, failing is None, lengths, tuple(maxes), min(lengths),
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

