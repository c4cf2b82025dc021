"""The benchmark's three workloads.

Each workload is a fixed list of jobs.  A job's ``run`` calls presforge
through a public entry point (``presforge.cli.run_command`` or a library
function) and is the only part that is timed; its ``check`` compares the
output with an answer the benchmark knows without trusting presforge, and
returns the job's deterministic work counters (exit code, counts from
results and reports, digests of every byte written).  A wrong answer raises
`WrongAnswer`.

Only the word-problem batch depends on the seed.  Every budget is passed
on the command line, so no ``PRESFORGE_*`` default can change a job.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable


class WrongAnswer(Exception):
    """A job's output disagrees with the independently known answer."""


@dataclass
class Job:
    name: str
    kind: str                                 # the command or library call
    row: str                                  # per-job row key (a sweep point)
    run: Callable[[Path, dict], Any]          # (pass directory, pass state) -> raw output
    check: Callable[[Any], dict]              # raw output -> work counters


def _sha(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


# --- presentation texts the benchmark writes itself ---------------------------

ICOSAHEDRAL = "< a, b | a^2, b^3, (a*b)^5 >"
# relators of ICOSAHEDRAL as (generator, exponent) runs, for re-evaluation
ICOSAHEDRAL_RELATORS = [[("a", 2)], [("b", 3)], [("a", 1), ("b", 1)] * 5]


def coxeter_symmetric(n: int) -> str:
    """Coxeter presentation of S_n on n-1 involutions."""
    gens = [f"s{i}" for i in range(1, n)]
    rels = [f"{g}^2" for g in gens]
    rels += [f"(s{i}*s{i + 1})^3" for i in range(1, n - 1)]
    rels += [f"(s{i}*s{j})^2" for i in range(1, n) for j in range(i + 2, n)]
    return f"< {', '.join(gens)} | {', '.join(rels)} >"


def perfect_two_generator() -> str:
    """A perfect C'(1/6) presentation on two generators: each generator is
    a long commutator word whose runs are globally distinct."""
    blocks = 14
    v1 = "*".join(f"[a^{2 + 8 * j}, b^{4 + 8 * j}]" for j in range(blocks))
    v2 = "*".join(f"[a^{6 + 8 * j}, b^{8 + 8 * j}]" for j in range(blocks))
    return f"< a, b | a*{v1}, b*{v2} >"


def _relator_texts(text: str) -> list[str]:
    """Relators of a canonically rendered presentation (no brackets)."""
    body = text.strip()[1:-1].split("|", 1)[1].strip()
    return body.split(", ") if body else []


def _generator_count(text: str) -> int:
    return len(text.strip()[1:-1].split("|", 1)[0].split(","))


def _generator_powers(text: str) -> int:
    """Relators that are a power of one generator: their commutator with
    that generator is freely trivial, so the UCE drops it."""
    return sum("*" not in r for r in _relator_texts(text))


# --- CLI jobs -----------------------------------------------------------------

def _cli_run(pf, argv: list[str], outdir: str | None = None):
    """Run one CLI command with --format json; artifacts go to a fresh
    directory named `outdir` inside the pass directory."""
    def run(pass_dir: Path, state: dict):
        args = list(argv)
        out = None
        if outdir is not None:
            out = pass_dir / outdir
            args += ["--outdir", str(out)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = pf.cli.run_command(args + ["--format", "json"])
        return code, buf.getvalue(), out
    return run


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise WrongAnswer(message)


def _artifacts(out: Path) -> dict:
    files = sorted(p for p in out.rglob("*") if p.is_file())
    return {
        "artifact_bytes": sum(p.stat().st_size for p in files),
        "digests": {p.name: _sha(p.read_bytes()) for p in files},
    }


def _check_order(index: int):
    def check(raw) -> dict:
        code, stdout, _ = raw
        rep = json.loads(stdout)
        _expect(code == 0 and rep["status"] == "complete",
                f"exit {code}, status {rep.get('status')}")
        _expect(rep["index"] == index, f"index {rep['index']}, group order gives {index}")
        return {"exit": code, "index": rep["index"], "cosets_defined": rep["cosets_defined"],
                "report": _sha(stdout)}
    return check


def _check_certified(raw) -> dict:
    code, stdout, _ = raw
    rep = json.loads(stdout)
    _expect(code == 0 and rep["certified"] is True and "counterexample" not in rep,
            f"exit {code}, certified {rep.get('certified')}: the group has no "
            "nontrivial finite quotient")
    return {"exit": code, "report": _sha(stdout)}


def _evaluate(images: dict[str, list[int]], runs: list[tuple[str, int]]) -> list[int]:
    """Permutation of a word given as (generator, exponent) runs; the left
    letter acts first."""
    k = len(next(iter(images.values())))
    acc = list(range(k))
    for name, exp in runs:
        p = images[name]
        if exp < 0:
            inv = [0] * k
            for i, j in enumerate(p):
                inv[j] = i
            p = inv
        for _ in range(abs(exp)):
            acc = [p[i] for i in acc]
    return acc


def _check_icosahedral_counterexample(raw) -> dict:
    code, stdout, _ = raw
    rep = json.loads(stdout)
    _expect(code == 1 and rep["certified"] is False, f"exit {code}: A_5 maps onto S_5")
    cx = rep["counterexample"]
    degree, images = cx["degree"], cx["images"]
    # A_5 is simple of order 60, so its least nontrivial permutation degree is 5
    _expect(degree == 5, f"counterexample degree {degree}, expected 5")
    ident = list(range(degree))
    _expect(all(sorted(p) == ident for p in images.values()), "images are not permutations")
    _expect(any(p != ident for p in images.values()), "counterexample is trivial")
    for runs in ICOSAHEDRAL_RELATORS:
        _expect(_evaluate(images, runs) == ident, f"relator {runs} not satisfied")
    return {"exit": code, "degree": degree, "report": _sha(stdout)}


def _check_bg_pipeline(stem: str, ngens: int, nrels: int):
    def check(raw) -> dict:
        code, stdout, out = raw
        _expect(code == 0, f"exit {code}")
        man = json.loads(stdout)
        on_disk = (out / f"{stem}.bg-pipeline.manifest.json").read_text()
        _expect(on_disk == stdout, "printed manifest differs from the written one")
        c = man["counts"]
        gamma_gens, gamma_rels = ngens + 3, nrels + 6 * ngens
        _expect(c["gamma_generators"] == gamma_gens, f"gamma generators {c['gamma_generators']}")
        _expect(c["gamma_relators"] == gamma_rels, f"gamma relators {c['gamma_relators']}")
        _expect(c["product_relators"] == 2 * gamma_rels + gamma_gens ** 2,
                f"product relators {c['product_relators']}")
        _expect(c["fibre_generators"] == 6 + gamma_gens,
                f"fibre generators {c['fibre_generators']}")
        _expect(man["certificates"]["metric"]["passed"] is True, "C'(1/6) certificate failed")
        gamma_text = (out / man["artifacts"]["gamma"]).read_text()
        _expect(_generator_count(gamma_text) == gamma_gens
                and len(_relator_texts(gamma_text)) == gamma_rels,
                "gamma artifact disagrees with the closed-form counts")
        return {"exit": code, **c, **_artifacts(out)}
    return check


def _check_superperfectify(ngens: int, nrels: int, powers: int):
    # the attachment glues one 4-generator, 4-relator Higman J per generator,
    # plus one identification relator per generator
    n = 5 * ngens
    m = nrels + 5 * ngens

    def check(raw) -> dict:
        code, stdout, out = raw
        _expect(code == 0, f"exit {code}")
        c = json.loads(stdout)["counts"]
        _expect(c["generators"] == n, f"generators {c['generators']}, expected {n}")
        _expect(c["relators"] == n + n * m - powers,
                f"relators {c['relators']}, expected {n + n * m - powers}")
        _expect(json.loads(stdout)["certificates"]["h1_trivial"] is True, "H1 not trivial")
        return {"exit": code, **c, **_artifacts(out)}
    return check


def _check_uce(text: str):
    n = _generator_count(text)
    m = len(_relator_texts(text))
    expected = n + n * m - _generator_powers(text)

    def check(raw) -> dict:
        code, stdout, out = raw
        _expect(code == 0, f"exit {code}")
        man = json.loads(stdout)
        c = man["counts"]
        _expect(c["generators"] == n, f"generators {c['generators']}, expected {n}")
        _expect(c["relators"] == expected, f"relators {c['relators']}, expected {expected}")
        witnesses = json.loads((out / man["artifacts"]["witnesses"]).read_text())
        _expect(len(witnesses) == n and all(w["verified"] for w in witnesses),
                "missing or unverified commutator witnesses")
        return {"exit": code, **c, "input_relators": m, **_artifacts(out)}
    return check


# --- word-problem inputs -------------------------------------------------------

Letter = tuple[int, int]


def _push(acc: list[Letter], letters) -> None:
    """Append letters to a freely reduced list, cancelling as it goes."""
    for idx, sign in letters:
        if acc and acc[-1][0] == idx and acc[-1][1] == -sign:
            acc.pop()
        else:
            acc.append((idx, sign))


def _inverse(letters) -> list[Letter]:
    return [(i, -s) for i, s in reversed(letters)]


def _random_reduced(rng: random.Random, n: int, rank: int) -> list[Letter]:
    out: list[Letter] = []
    while len(out) < n:
        letter = (rng.randrange(rank), rng.choice((1, -1)))
        if not (out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]):
            out.append(letter)
    return out


def _cyclic_core(letters) -> list[Letter]:
    acc: list[Letter] = []
    _push(acc, letters)
    while len(acc) >= 2 and acc[0][0] == acc[-1][0] and acc[0][1] == -acc[-1][1]:
        acc = acc[1:-1]
    return acc


def _encode(letters) -> str:
    return "".join(chr(0x100 + 2 * i + (s < 0)) for i, s in letters)


class _DehnWindows:
    """All windows of length h_min = min(|r|//2 + 1) of the symmetrized
    relators.  A freely reduced nonempty word with none of them contains no
    more-than-half of a relator, so it is nontrivial (Greendlinger's lemma
    for C'(1/6) presentations) and Dehn's algorithm makes no replacement."""

    def __init__(self, cores: list[list[Letter]]):
        self.h = min(len(c) // 2 + 1 for c in cores)
        self.windows = set()
        for core in cores:
            for s in (_encode(core), _encode(_inverse(core))):
                doubled = s + s
                self.windows.update(doubled[o:o + self.h] for o in range(len(s)))

    def irreducible(self, letters) -> bool:
        s = _encode(letters)
        h, windows = self.h, self.windows
        return not any(s[i:i + h] in windows for i in range(len(s) - h + 1))


# per presentation: (size class, target letters, trivial words); each trivial
# word also yields a spliced twin
WORD_CLASSES = (("1k", 1_000, 10), ("4k", 4_000, 10), ("16k", 16_000, 3))
RANDOM_WORDS = 4
RANDOM_LETTERS = 20_000


def _trivial_word(rng: random.Random, relators: list[list[Letter]], rank: int,
                  target: int) -> list[Letter]:
    """Product of conjugates g r^(+-1) g^-1 of relators, freely reduced."""
    acc: list[Letter] = []
    while len(acc) < target:
        g = _random_reduced(rng, rng.randint(5, 30), rank)
        r = relators[rng.randrange(len(relators))]
        _push(acc, g + (r if rng.random() < 0.5 else _inverse(r)) + _inverse(g))
    return acc


def _word_batch(rng: random.Random, P) -> list[tuple[str, str, list[Letter]]]:
    """(row, expected verdict, letters) for one presentation."""
    rank = P.alphabet.rank
    relators = [list(r.letters) for r in P.relators]
    cores = [_cyclic_core(r) for r in relators]
    # a single letter is more than half of no relator, so each generator
    # is nontrivial and so is every conjugate of it
    if min(len(c) for c in cores) < 2:
        raise RuntimeError("word-problem presentation has a relator shorter than 2")
    windows = _DehnWindows(cores)
    batch = []
    for label, target, count in WORD_CLASSES:
        for _ in range(count):
            w = _trivial_word(rng, relators, rank, target)
            batch.append((f"trivial-{label}", "trivial", w))
            pos = rng.randrange(len(w) + 1)
            spliced: list[Letter] = []
            _push(spliced, w[:pos] + [(rng.randrange(rank), rng.choice((1, -1)))] + w[pos:])
            batch.append((f"spliced-{label}", "nontrivial", spliced))
    made = 0
    while made < RANDOM_WORDS:
        w = _random_reduced(rng, RANDOM_LETTERS, rank)
        if windows.irreducible(w):
            batch.append(("random-20k", "irreducible", w))
            made += 1
    return batch


def _certify_job(pf, key: str, P, name: str) -> Job:
    cores = tuple(len(_cyclic_core(r.letters)) for r in P.relators)

    def run(pass_dir: Path, state: dict):
        cert = pf.smallcancel.metric_certificate(P)
        state[key] = pf.smallcancel.DehnSolver(P, certificate=cert)
        return cert

    def check(cert) -> dict:
        # the transform only returns presentations whose certificate passed
        _expect(cert.passed, "C'(1/6) certificate failed on a transform output")
        _expect(tuple(cert.relator_lengths) == cores, "relator lengths differ from the cores")
        return {"passed": cert.passed, "symmetrized_letters": 2 * sum(cores),
                "max_pieces": _sha(repr(tuple(cert.max_piece_by_relator)))}

    return Job(name, "certify", name, run, check)


def _word_job(key: str, name: str, row: str, expected: str, w) -> Job:
    def run(pass_dir: Path, state: dict):
        return state[key].solve(w)

    def check(res) -> dict:
        if expected == "trivial":
            _expect(res.trivial and len(res.factors) == res.replacements,
                    "product of relator conjugates not decided trivial")
        else:
            _expect(not res.trivial, "known nontrivial word decided trivial")
        if expected == "irreducible":
            _expect(res.replacements == 0, "replacement in a word with no relator half")
        return {"letters": len(w), "trivial": res.trivial, "replacements": res.replacements,
                "factors": len(res.factors), "residual": len(res.residual)}

    return Job(name, "word", row, run, check)


# --- workloads ------------------------------------------------------------------

def _write(inputs: Path, name: str, text: str) -> str:
    path = inputs / f"{name}.pres"
    path.write_text(text + "\n")
    return str(path)


def finite_quotients(pf, seed: int, inputs: Path) -> list[Job]:
    presentation = pf.presentations.presentation
    render = pf.presentations.render_presentation
    ico = pf.presentations.parse_presentation(ICOSAHEDRAL)
    J, _ = pf.presentations.higman_presentations()
    files = {
        "coxeter-S6": _write(inputs, "coxeter-S6", coxeter_symmetric(6)),
        "coxeter-S7": _write(inputs, "coxeter-S7", coxeter_symmetric(7)),
        "uce-icosahedral": _write(inputs, "uce-icosahedral", render(pf.uce.miller_uce(ico).result)),
        "superperfect-trivial": _write(inputs, "superperfect-trivial", render(
            pf.constructions.super_perfectify(presentation(["x"], ["x"])).presentation)),
        "higman-J": _write(inputs, "higman-J", render(J)),
        "superperfect-C2": _write(inputs, "superperfect-C2", render(
            pf.constructions.super_perfectify(presentation(["x"], ["x^2"])).presentation)),
        "icosahedral": _write(inputs, "icosahedral", ICOSAHEDRAL),
    }
    jobs = []
    # group orders: |S_6| = 720, |S_7| = 5040, the binary icosahedral group
    # has order 120, and the super-perfect collapse of <x | x> is trivial
    for name, index in (("coxeter-S6", 720), ("coxeter-S7", 5040),
                        ("uce-icosahedral", 120), ("superperfect-trivial", 1)):
        argv = ["order", files[name], "--max-cosets", "1000000"]
        jobs.append(Job(f"order:{name}", "order", f"order:{name}",
                        _cli_run(pf, argv), _check_order(index)))
    for name, degree, check in (("higman-J", 6, _check_certified),
                                ("superperfect-C2", 5, _check_certified),
                                ("icosahedral", 5, _check_icosahedral_counterexample)):
        argv = ["homsearch", files[name], "--max-degree", str(degree)]
        jobs.append(Job(f"homsearch:{name}", "homsearch", f"homsearch:{name}",
                        _cli_run(pf, argv), check))
    return jobs


def word_problem(pf, seed: int, inputs: Path) -> list[Job]:
    presentation = pf.presentations.presentation
    J, _ = pf.presentations.higman_presentations()
    rng = random.Random(seed)
    jobs = []
    word_jobs = []
    for key, base in (("rips-trivial", presentation(["x"], ["x"])), ("rips-J", J)):
        gamma = pf.constructions.rips_wise(base).gamma
        jobs.append(_certify_job(pf, key, gamma, f"certify:{key}"))
        for k, (row, expected, letters) in enumerate(_word_batch(rng, gamma)):
            w = pf.freewords.Word(gamma.alphabet, tuple(letters))
            word_jobs.append(_word_job(key, f"word:{key}:{k}", f"word:{key}:{row}", expected, w))
    return jobs + word_jobs


def constructions(pf, seed: int, inputs: Path) -> list[Job]:
    render = pf.presentations.render_presentation
    ico = pf.presentations.parse_presentation(ICOSAHEDRAL)
    J, D = pf.presentations.higman_presentations()
    sp = pf.constructions.super_perfectify
    # (name, text, generators, relators, relators that are generator powers)
    bases = (("higman-J", render(J), 4, 4, 0), ("higman-D", render(D), 3, 2, 0),
             ("icosahedral", ICOSAHEDRAL, 2, 3, 2),
             ("perfect-c16", perfect_two_generator(), 2, 2, 0))
    files = {name: _write(inputs, name, text) for name, text, *_ in bases}
    jobs = []
    for name, _text, n, m, _p in bases:
        jobs.append(Job(f"bg-pipeline:{name}", "bg-pipeline", f"bg-pipeline:{name}",
                        _cli_run(pf, ["bg-pipeline", files[name]], outdir=name),
                        _check_bg_pipeline(name, n, m)))
    for name, _text, n, m, p in bases[:3]:
        jobs.append(Job(f"superperfectify:{name}", "superperfectify", f"superperfectify:{name}",
                        _cli_run(pf, ["superperfectify", files[name]], outdir=name),
                        _check_superperfectify(n, m, p)))
    for name, P in (("superperfect-icosahedral", ico), ("superperfect-D", D)):
        text = render(sp(P).presentation)
        path = _write(inputs, name, text)
        jobs.append(Job(f"uce:{name}", "uce", f"uce:{name}",
                        _cli_run(pf, ["uce", path], outdir=name), _check_uce(text)))
    return jobs


WORKLOADS = {
    "finite-quotients": finite_quotients,
    "word-problem": word_problem,
    "constructions": constructions,
}
