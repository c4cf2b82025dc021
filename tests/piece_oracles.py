"""Test-only piece oracles for `presforge.smallcancel`.

`slots_sorted` is the rotation-string scanner: it writes every rotation of
every symmetrized relator out as its own string and sorts those, which
costs memory quadratic in the relator length; its sorted slots and
common-prefix list, found letter by letter, are the reference for
`_sorted_rotations`, whose byte keys give both at once.
`reference_certificate` runs the certificate rule over it, so the two
scanners can be compared field for field.
`piece_table` and `threshold_scan` are independent cross-checks of the
piece lengths and of the pass/fail verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from presforge.freewords import Word
from presforge.presentations import FinitePresentation
from presforge.smallcancel import MetricCertificate, PieceWitness, _cores, _doubled_texts


@dataclass(frozen=True)
class _Slot:
    """One occurrence slot: a rotation of relator `rel` or of its inverse,
    as an encoded string."""

    text: str
    rel: int


def slots_sorted(cores: Sequence[Word]) -> tuple[list[_Slot], list[int]]:
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


def reference_certificate(P: FinitePresentation,
                          lam: Fraction = Fraction(1, 6)) -> MetricCertificate:
    """The C'(lambda) certificate computed over `slots_sorted`."""
    lam = Fraction(lam)
    cores = _cores(P)
    lengths = tuple(len(c) for c in cores)
    encoded = tuple(Word(P.alphabet, c.letters).text for c in cores)
    if not cores:
        return MetricCertificate(lam, True, (), (), None, None, encoded)
    slots, lcp = slots_sorted(cores)
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
        if maxes[t] and maxes[t] * lam.denominator >= lam.numerator * L:
            passed = False
            ka, kb = witness_for[t]
            a, b = slots[ka], slots[kb]
            piece = Word._trusted(P.alphabet, a.text[:lcp[ka]])
            offending = PieceWitness(min(a.rel, b.rel), max(a.rel, b.rel),
                                     piece, maxes[t])
            break
    return MetricCertificate(lam, passed, lengths, tuple(maxes),
                             min(lengths), offending, encoded)


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
    slots, lcp = slots_sorted(cores)
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
        symmetrized=tuple(Word._trusted(P.alphabet, sl.text) for sl in slots),
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
