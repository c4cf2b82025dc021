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
    render_word,
)
from .presentations import FinitePresentation
from .uce import NormalClosureElement

_HASH_MOD = (1 << 61) - 1
_HASH_BASE = 1_000_003


class CertificateRequired(ValueError):
    """Dehn's algorithm demands a passing metric certificate."""


@dataclass(frozen=True)
class _Slot:
    """One occurrence slot: rotation `offset` of relator `rel` (or of its
    inverse when sign < 0), as an encoded string."""

    text: str
    rel: int
    sign: int
    offset: int


def _cores(P: FinitePresentation) -> list[Word]:
    return [cyclically_reduce(r)[0] for r in P.relators]


def _slots_sorted(cores: Sequence[Word]) -> tuple[list[_Slot], list[int]]:
    """All rotation slots sorted by text, plus adjacent common-prefix
    lengths (lcp[k] between sorted slot k and k+1)."""
    slots: list[_Slot] = []
    for t, core in enumerate(cores):
        for sign in (1, -1):
            s = encode_letters((core if sign > 0 else core.inverse()).letters)
            double = s + s
            for o in range(len(s)):
                slots.append(_Slot(double[o:o + len(s)], t, sign, o))
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
        # fail iff max piece length >= lam * L, i.e. len * q >= p * L
        if maxes[t] * lam.denominator >= lam.numerator * L:
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
    texts: list[tuple[str, int, int]] = []  # (doubled text, rel, sign)
    for t, core in enumerate(cores):
        for sign in (1, -1):
            s = encode_letters((core if sign > 0 else core.inverse()).letters)
            texts.append((s + s, t, sign))
    lengths = [len(c) for c in cores]
    thresholds = {}
    for t, L in enumerate(lengths):
        m = -(-(lam.numerator * L) // lam.denominator)  # ceil(lam * L)
        thresholds[t] = max(1, m)
    for m in sorted(set(thresholds.values())):
        windows: dict[str, list[tuple[int, int, int]]] = {}
        for double, t, sign in texts:
            L = len(double) // 2
            if m > L:
                continue
            for o in range(L):
                win = double[o:o + m]
                bucket = windows.setdefault(win, [])
                if len(bucket) < 2:
                    bucket.append((t, sign, o))
        for t, L in enumerate(lengths):
            if thresholds[t] != m or m > L:
                continue
            for double, tt, sign in texts:
                if tt != t:
                    continue
                for o in range(L):
                    bucket = windows[double[o:o + m]]
                    if len(bucket) > 1 or bucket[0] != (t, sign, o):
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
    """Reusable Dehn reducer for one certified presentation.

    Precomputes, for every rotation slot of every symmetrized relator, the
    hash of its minimal more-than-half prefix; scanning a word is then one
    hash probe per (position, relator-length class).
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
        # bases: one per (relator, sign): the doubled letter sequence of the
        # cyclic core plus its rolling prefix hashes; slots reference a base
        # and an offset, so nothing quadratic is materialized up front
        self.bases: list[dict] = []
        self.slots: list[dict] = []
        self.by_h: dict[int, dict[int, list[int]]] = {}
        seen: dict[tuple[int, int], int] = {}  # (full-rotation hash, L) -> slot id
        for t, r in enumerate(P.relators):
            core, conj = cyclically_reduce(r)
            for sign in (1, -1):
                base = core if sign > 0 else core.inverse()
                L = len(base)
                doubled = base.letters + base.letters
                H = [0] * (2 * L + 1)
                for k, (ii, ss) in enumerate(doubled):
                    H[k + 1] = (H[k] * _HASH_BASE + 2 * ii + (0 if ss > 0 else 1) + 1) % _HASH_MOD
                bid = len(self.bases)
                self.bases.append(dict(doubled=doubled, H=H, L=L, rel=t,
                                       sign=sign, conj=conj))
                h = L // 2 + 1
                for o in range(L):
                    full = self._window(bid, o, L)
                    prev = seen.get((full, L))
                    if prev is not None and self._same_rotation(prev, bid, o):
                        continue  # identical slot word: same replacement effect
                    sid = len(self.slots)
                    seen[(full, L)] = sid
                    self.slots.append(dict(base=bid, offset=o, rel=t,
                                           sign=sign, L=L, h=h))
                    self.by_h.setdefault(h, {}).setdefault(
                        self._window(bid, o, h), []).append(sid)
        self.max_h = max((h for h in self.by_h), default=1)

    def _window(self, bid: int, o: int, ln: int) -> int:
        base = self.bases[bid]
        H = base["H"]
        return (H[o + ln] - H[o] * pow(_HASH_BASE, ln, _HASH_MOD)) % _HASH_MOD

    def _same_rotation(self, sid: int, bid: int, o: int) -> bool:
        slot = self.slots[sid]
        sb = self.bases[slot["base"]]
        nb = self.bases[bid]
        if slot["L"] != nb["L"]:
            return False
        so = slot["offset"]
        return sb["doubled"][so:so + slot["L"]] == nb["doubled"][o:o + nb["L"]]

    def _slot_conjugator(self, sid: int) -> Word:
        """B with slot = B r^sign B^-1: inverse of (cyclic conjugator times
        the rotation prefix); computed on demand."""
        slot = self.slots[sid]
        base = self.bases[slot["base"]]
        prefix = Word(self.presentation.alphabet,
                      base["doubled"][:slot["offset"]])
        return free_reduce(base["conj"].concat(prefix)).inverse()

    def solve(self, w: Word, collect_trace: bool = False) -> DehnResult:
        P = self.presentation
        cur = list(free_reduce(w).letters)
        factors: list[tuple[Word, int, int]] = []
        trace: list[str] = []
        replacements = 0
        scan_from = 0
        while True:
            found = self._find(cur, scan_from)
            if found is None:
                break
            i, m, sid = found
            slot = self.slots[sid]
            u = Word(P.alphabet, tuple(cur[:i]))
            g = free_reduce(u.concat(self._slot_conjugator(sid)))
            factors.append((g, slot["rel"], slot["sign"]))
            if collect_trace:
                trace.append(
                    f"pos {i}: matched {m}/{slot['L']} letters of relator "
                    f"{slot['rel']}{'' if slot['sign'] > 0 else '^-1'}; "
                    f"replaced by complement of length {slot['L'] - m}")
            base = self.bases[slot["base"]]
            o = slot["offset"]
            rest = base["doubled"][o + m:o + slot["L"]]
            replacement = Word(P.alphabet, rest).inverse().letters
            merged, first_change = _splice_reduce(cur, i, i + m, list(replacement))
            cur = merged
            replacements += 1
            scan_from = max(0, first_change - self.max_h + 1)
        residual = Word(P.alphabet, tuple(cur))
        result = DehnResult(
            trivial=not cur,
            residual=residual,
            factors=tuple(factors),
            replacements=replacements,
            trace=tuple(trace),
        )
        if result.trivial and not result.verify_certificate(P, w):
            raise AssertionError("Dehn certificate failed to re-expand (internal error)")
        return result

    def _find(self, cur: list, start: int) -> tuple[int, int, int] | None:
        n = len(cur)
        if n == 0:
            return None
        H = [0] * (n + 1)
        for k, (ii, ss) in enumerate(cur):
            H[k + 1] = (H[k] * _HASH_BASE + 2 * ii + (0 if ss > 0 else 1) + 1) % _HASH_MOD
        pw = [1] * (n + 1)
        for k in range(n):
            pw[k + 1] = (pw[k] * _HASH_BASE) % _HASH_MOD
        classes = sorted(self.by_h.items())
        for i in range(start, n):
            best: tuple[int, int] | None = None  # (match length, slot id)
            for h, table in classes:
                if i + h > n:
                    continue
                key = (H[i + h] - H[i] * pw[h]) % _HASH_MOD
                for sid in table.get(key, ()):
                    slot = self.slots[sid]
                    D = self.bases[slot["base"]]["doubled"]
                    o = slot["offset"]
                    if cur[i:i + h] != list(D[o:o + h]):
                        continue  # hash collision
                    m = h
                    L = slot["L"]
                    while m < L and i + m < n and cur[i + m] == D[o + m]:
                        m += 1
                    if best is None or m > best[0] or (m == best[0] and sid < best[1]):
                        best = (m, sid)
            if best is not None:
                return (i, best[0], best[1])
        return None


def _splice_reduce(cur: list, lo: int, hi: int, replacement: list) -> tuple[list, int]:
    """cur[:lo] + replacement + cur[hi:], freely reduced; also returns the
    first index whose content may differ from `cur` (for rescan locality)."""
    out = cur[:lo]
    first_change = lo
    for letter in replacement:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
        first_change = min(first_change, len(out) - 1 if out else 0)
    for letter in cur[hi:]:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
        first_change = min(first_change, len(out) - 1 if out else 0)
    return out, max(0, first_change)


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
