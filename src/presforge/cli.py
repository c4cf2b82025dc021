"""Command-line frontend.

Every subcommand is a batch operation: parse presentation files, dispatch
to the library, write canonical-serialized artifacts plus a JSON manifest,
and exit with a contractual code:

    0  success / positive answer
    1  negative mathematical answer (word nontrivial, certificate failed,
       counterexample found)
    2  inconclusive: a budget was exhausted before an answer
    3  input error (syntax, missing precondition, bad arguments)
    4  internal error: a bug to report (one line on stderr, no traceback)

Manifests carry input digests, artifact names, counts, certificates and
notes; they contain nothing time- or path-dependent, so re-running a
command on the same inputs reproduces byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import click

from .constructions import (
    conjugacy_gadget,
    fibre_generators,
    free_product_of_copies,
    kill_finite_quotients,
    rips_wise,
    super_perfectify,
)
from .freewords import parse_word, render_word
from .homology import h1
from .presentations import (
    FinitePresentation,
    PresentationError,
    parse_presentation,
    render_presentation,
)
from .quotients import BudgetExhausted, finite_quotient_certificate, todd_coxeter
from .smallcancel import DehnSolver, metric_certificate
from .uce import miller_uce

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4


def _read_presentation(path: str) -> tuple[FinitePresentation, str, str]:
    """Returns (presentation, source text, input name)."""
    if path == "-":
        text = sys.stdin.read()
        name = "<stdin>"
    else:
        text = Path(path).read_text()
        name = Path(path).name
    return parse_presentation(text), text, name


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


class _Artifacts:
    """Writes `<stem>.<suffix>` files into --outdir, where the stem is the
    input file's ("pipeline" for stdin); each write returns the file name."""

    def __init__(self, outdir: str, file: str):
        self.dir = Path(outdir)
        self.stem = "pipeline" if file == "-" else Path(file).stem

    def text(self, suffix: str, content: str) -> str:
        name = f"{self.stem}.{suffix}"
        self.dir.mkdir(parents=True, exist_ok=True)
        (self.dir / name).write_text(content)
        return name

    def pres(self, suffix: str, P: FinitePresentation) -> str:
        return self.text(suffix, render_presentation(P) + "\n")

    def json(self, suffix: str, obj) -> str:
        return self.text(suffix, canonical_json(obj))


def _pair(pw) -> dict:
    return {"left": render_word(pw.left), "right": render_word(pw.right)}


def _factors(factors) -> list:
    return [[render_word(c), i, s] for c, i, s in factors]


class _Main(click.Group):
    def main(self, args=None, standalone_mode=True, **extra):
        """Run one subcommand and map its outcome to the exit-code contract;
        the one place where exceptions become exit codes."""
        message = None
        try:
            code = super().main(args, standalone_mode=False, **extra)
        except BudgetExhausted as e:
            code, message = EXIT_INCONCLUSIVE, f"inconclusive: {e}"
        except click.UsageError as e:
            code, message = EXIT_INPUT, f"error: {e.format_message()}"
        except (ValueError, OSError) as e:
            code, message = EXIT_INPUT, f"error: {e}"
        except SystemExit as e:  # click exits 1 when a write to stdout hits EPIPE
            code, message = EXIT_INPUT, f"error: {e.__context__}"
        except Exception as e:
            code, message = EXIT_INTERNAL, f"internal error (please report): {e!r}"
        if message is not None:
            click.echo(message, err=True)
        if standalone_mode:
            sys.exit(code)
        return code


@click.group(cls=_Main)
def main():
    """Group-presentation constructions with homological and
    finite-quotient certificates."""


def run_command(argv: list[str]) -> int:
    """Programmatic entry point: run one subcommand, return its exit code."""
    return main.main(args=list(argv), standalone_mode=False)


def _command(manifest: str | None = None):
    """Register a subcommand taking FILE and --format, plus --outdir when it
    writes a `manifest` (a file suffix formatted with the options).

    The body gets the parsed presentation, its own options and, with
    --outdir, an `_Artifacts` writer `out`; it returns (report, text lines,
    exit code).  The `command` and `input` keys, the manifest and the output
    are added here."""
    def register(body):
        cmd_name = body.__name__.replace("_", "-")

        def run(file, fmt, outdir=None, **options):
            P, text, input_name = _read_presentation(file)
            if manifest is not None:
                options["out"] = _Artifacts(outdir, file)
            report, lines, code = body(P, **options)
            digest = hashlib.sha256(text.encode()).hexdigest()
            report = {"command": cmd_name, "input": {input_name: digest}, **report}
            if manifest is not None:
                options["out"].json(f"{manifest.format(**options)}.manifest.json", report)
            if fmt == "json":
                click.echo(canonical_json(report), nl=False)
            else:
                for line in lines:
                    click.echo(line)
            return code

        params = [click.Argument(["file"]), *reversed(getattr(body, "__click_params__", []))]
        if manifest is not None:
            params.append(click.Option(["--outdir"], default=".", show_default=True))
        params.append(click.Option(["--format", "fmt"], type=click.Choice(["text", "json"]),
                                   default="text", show_default=True))
        return main.command(cmd_name, params=params, help=body.__doc__)(run)
    return register


def _fraction(ctx, param, value: str) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as e:
        raise click.BadParameter(str(e)) from None


@_command()
def homology(P):
    """First and second homology of a presentation."""
    res = h1(P)
    report = {
        "h1": {
            "rank": res.group.rank,
            "torsion": list(res.group.torsion),
            "generator_images": {g: list(v) for g, v in res.generator_images.items()},
        },
    }
    lines = [f"h1 = {res.group}"]
    for g, v in res.generator_images.items():
        lines.append(f"  image of {g}: {list(v)}")
    report["h2"] = "unavailable: not flagged aspherical"
    lines.append("h2 unavailable: presentation not flagged aspherical")
    return report, lines, EXIT_OK


@_command(manifest="uce")
def uce(P, out):
    """Universal central extension of a perfect presentation."""
    U = miller_uce(P)
    pres_art = out.pres("uce.pres", U.result)
    witnesses = [{
        "generator": w.generator,
        "c": render_word(w.c),
        "rho_factors": _factors(w.rho.factors),
        "rho_expanded": render_word(w.rho.expanded),
        "verified": w.verify(P),
    } for w in U.witnesses]
    wit_art = out.json("uce.witnesses.json", witnesses)
    manifest = {
        "artifacts": {"presentation": pres_art, "witnesses": wit_art},
        "counts": {
            "generators": U.result.alphabet.rank,
            "relators": len(U.result.relators),
            "expected_relators": U.expected_relator_count,
            "dropped_trivial_commutators": U.dropped_trivial_relators,
        },
        "notes": ["relators: one per generator expressing it by a product of "
                  "relator conjugates, plus all generator/relator commutators; "
                  "kernel generators are the images of the input relators"],
    }
    return manifest, [f"wrote {pres_art} ({U.result.alphabet.rank} generators, "
                      f"{len(U.result.relators)} relators)", f"wrote {wit_art}"], EXIT_OK


@_command(manifest="rips")
def rips(P, out):
    """Small-cancellation transform with C'(1/6) certificate."""
    res = rips_wise(P)
    art = out.pres("gamma.pres", res.gamma)
    manifest = {
        "artifacts": {"gamma": art},
        "counts": {
            "generators": res.gamma.alphabet.rank,
            "relators": len(res.gamma.relators),
            "expected_relators": len(P.relators) + 6 * P.alphabet.rank,
            "padding_blocks": res.blocks,
        },
        "certificates": {
            "metric": {"lambda": str(res.certificate.lam), "passed": res.certificate.passed},
        },
        "kernel_generators": list(res.kernel_generators),
        "notes": ["quotient map sends every original generator to itself and "
                  "kills the three padding generators"],
    }
    return manifest, [f"wrote {art}: {res.gamma.alphabet.rank} generators, "
                      f"{len(res.gamma.relators)} relators, certificate pass"], EXIT_OK


@_command(manifest="killfq")
def killfq(P, out):
    """Attach quotient-killing copies to every generator."""
    kr = kill_finite_quotients(P)
    raw = out.pres("killfq.pres", kr.pi_prime)
    simp = out.pres("killfq.simplified.pres", kr.simplified)
    manifest = {
        "artifacts": {"raw": raw, "simplified": simp},
        "counts": {
            "raw_generators": kr.pi_prime.alphabet.rank,
            "raw_relators": len(kr.pi_prime.relators),
            "simplified_generators": kr.simplified.alphabet.rank,
            "simplified_relators": len(kr.simplified.relators),
            "copies": kr.copy_count,
        },
        "notes": ["one attachment copy per input generator, glued along the "
                  "distinguished element; simplified form eliminates the "
                  "original generators against the gluing relators"],
    }
    return manifest, [f"wrote {raw} and {simp}"], EXIT_OK


@_command(manifest="superperfect")
def superperfectify(P, out):
    """Quotient-killing attachment followed by the universal central
    extension; output has trivial first homology."""
    res = super_perfectify(P)
    art = out.pres("superperfect.pres", res.presentation)
    expected, actual = res.relator_count_formula
    h = h1(res.presentation)
    manifest = {
        "artifacts": {"presentation": art},
        "counts": {
            "generators": res.presentation.alphabet.rank,
            "relators": actual,
            "expected_relators": expected,
        },
        "certificates": {"h1_trivial": h.group.is_trivial},
        "notes": ["generator count is fixed across any input family with a "
                  "fixed generator count"],
    }
    return manifest, [f"wrote {art}: h1 = {h.group}"], EXIT_OK


@_command(manifest="{kind}")
@click.option("--kind", type=click.Choice(["S", "U", "theta", "theta-tilde"]),
              required=True)
def fibre(P, kind, out):
    """Fibre-product generating sets over the appropriate ambient product."""
    if kind == "S":
        gs = fibre_generators("S", quotient=P)
    elif kind == "U":
        gs = fibre_generators("U", rips=rips_wise(P))
    elif kind == "theta":
        gs = fibre_generators("theta", kill=kill_finite_quotients(P))
    else:
        kr = kill_finite_quotients(P)
        H = free_product_of_copies(kr)
        gs = fibre_generators("theta_tilde", kill=kr, rips=rips_wise(H))
    amb = out.pres(f"{kind}.ambient.pres", gs.ambient)
    gen_art = out.json(f"{kind}.generators.json", [_pair(pw) for pw in gs.elements])
    manifest = {
        "kind": kind,
        "artifacts": {"ambient": amb, "generators": gen_art},
        "counts": {"elements": len(gs.elements)},
        "notes": [gs.notes],
    }
    return manifest, [f"wrote {gen_art}: {len(gs.elements)} generators"], EXIT_OK


@_command()
@click.option("--word", "word_text", required=True)
@click.option("--kernel", "kernel_text", default=None,
              help="kernel element (default: the first relator)")
def gadget(P, word_text, kernel_text):
    """Conjugacy gadget pairs for a word and a kernel element."""
    w = parse_word(P.alphabet, word_text)
    if kernel_text is not None:
        a = parse_word(P.alphabet, kernel_text)
    elif P.relators:
        a = P.relators[0]
    else:
        raise PresentationError("no relators; supply --kernel explicitly")
    first, second = conjugacy_gadget(w, a)
    report = {
        "word": render_word(w),
        "kernel": render_word(a),
        "pair": _pair(first),
        "base_pair": _pair(second),
        "identity_verified": True,
        "notes": ["conjugating the base pair by (word, 1) under the right "
                  "action yields the first pair; conjugacy inside the fibre "
                  "product is equivalent to triviality of the word in the quotient"],
    }
    return report, [f"({report['pair']['left']}, {report['pair']['right']})  ~  "
                    f"({report['base_pair']['left']}, {report['base_pair']['right']})"], EXIT_OK


@_command()
@click.argument("word_text", metavar="WORD")
def word(P, word_text):
    """Dehn word-problem verdict on a certified presentation
    (exit 0 trivial, 1 nontrivial)."""
    w = parse_word(P.alphabet, word_text)
    res = DehnSolver(P).solve(w, collect_trace=True)
    report = {
        "word": render_word(w),
        "verdict": "trivial" if res.trivial else "nontrivial",
        "replacements": res.replacements,
        "residual": render_word(res.residual),
        "trace": list(res.trace),
        "certificate_factors": _factors(res.factors),
    }
    lines = [f"{report['verdict']} (after {res.replacements} replacements)"]
    lines += [f"  {t}" for t in res.trace]
    if not res.trivial:
        lines.append(f"  residual: {report['residual']}")
    return report, lines, EXIT_OK if res.trivial else EXIT_NEGATIVE


@_command()
@click.option("--lam", default="1/6", show_default=True, metavar="P/Q", callback=_fraction)
def verify_sc(P, lam):
    """Metric small-cancellation certificate (exit 0 pass, 1 fail)."""
    cert = metric_certificate(P, lam)
    report = {
        "lambda": str(cert.lam),
        "passed": cert.passed,
        "relator_lengths": list(cert.relator_lengths),
        "max_piece_by_relator": list(cert.max_piece_by_relator),
    }
    if cert.offending is not None:
        report["offending"] = {
            "relator_a": cert.offending.relator_a,
            "relator_b": cert.offending.relator_b,
            "piece": render_word(cert.offending.piece),
            "length": cert.offending.length,
        }
    return report, [cert.describe()], EXIT_OK if cert.passed else EXIT_NEGATIVE


@_command()
@click.option("--max-degree", type=int, default=6, show_default=True)
@click.option("--budget", type=click.IntRange(min=1), default=10**6, show_default=True,
              help="search-node budget")
def homsearch(P, max_degree, budget):
    """Finite-quotient certificate: a low-index subgroups search for a
    proper subgroup of index k <= K, so for a nontrivial homomorphism into
    some S_k (exit 0 certified, 1 counterexample: the action on the cosets
    of a least-index proper subgroup, 2 node budget exhausted).  Commutator
    relators in the normal closure of kept ones are dropped, then blocks Y
    of generators are killed: if the relators supported in Y present
    a group with no proper subgroup of index <= K, every such homomorphism
    is trivial on Y, so Y is set to 1.  Candidate blocks are, for each
    generator g, the connected components of the relators that avoid g,
    linked by shared generators."""
    cert = finite_quotient_certificate(P, max_degree, budget=budget)
    report = {"max_degree": max_degree, "certified": cert.certified,
              "search_nodes": cert.search_nodes, "relators_dropped": cert.relators_dropped,
              "killed_blocks": [{"generators": list(b.generators),
                                 "search_nodes": b.search_nodes}
                                for b in cert.killed_blocks]}
    blocks = [f"killed block {', '.join(b.generators)} ({b.search_nodes} search nodes)"
              for b in cert.killed_blocks]
    nodes = f"{cert.search_nodes} search nodes, {cert.relators_dropped} relators dropped"
    if cert.certified:
        return report, [f"certified: no nontrivial homomorphism to any S_k, k <= {max_degree} "
                        "(bounded certificate)", *blocks, nodes], EXIT_OK
    hom = cert.counterexample
    report["counterexample"] = {"degree": hom.degree,
                                "images": {g: list(p) for g, p in hom.images}}
    return report, [f"counterexample found in S_{hom.degree}", *blocks, nodes], EXIT_NEGATIVE


@_command()
@click.option("--max-cosets", type=int, default=10**5, show_default=True)
@click.option("--subgroup", "subgroup_words", multiple=True,
              help="subgroup generator word (repeatable)")
def order(P, max_cosets, subgroup_words):
    """Coset enumeration (exit 0 complete, 2 budget overflow)."""
    subs = [parse_word(P.alphabet, s) for s in subgroup_words]
    table = todd_coxeter(P, subs, max_cosets=max_cosets)
    report = {
        "status": table.status,
        "index": table.index,
        "cosets_defined": table.cosets_defined,
        "peak_live": table.peak_live,
        "deductions": table.deductions,
        "max_cosets": max_cosets,
        "subgroup": list(subgroup_words),
    }
    work = f"peak {table.peak_live} live, {table.deductions} deductions"
    if table.complete:
        return report, [f"index {table.index} ({table.cosets_defined} cosets defined, "
                        f"{work})"], EXIT_OK
    return report, [f"overflow after defining {table.cosets_defined} cosets "
                    f"({work}, budget {max_cosets})"], EXIT_INCONCLUSIVE


@_command(manifest="bg-pipeline")
def bg_pipeline(P, out):
    """Full pipeline bundle: transform the input, form the ambient direct
    product and the fibre generating set, and certify everything."""
    res = rips_wise(P)
    gs = fibre_generators("U", rips=res)
    hh = h1(P)
    gamma_art = out.pres("gamma.pres", res.gamma)
    prod_art = out.pres("product.pres", gs.ambient)
    gens_art = out.json("U.generators.json", [_pair(pw) for pw in gs.elements])
    manifest = {
        "artifacts": {"gamma": gamma_art, "product": prod_art, "generators": gens_art},
        "counts": {
            "gamma_generators": res.gamma.alphabet.rank,
            "gamma_relators": len(res.gamma.relators),
            "product_relators": len(gs.ambient.relators),
            "fibre_generators": len(gs.elements),
        },
        "certificates": {
            "metric": {"lambda": str(res.certificate.lam), "passed": res.certificate.passed},
            "input_h1": {"rank": hh.group.rank, "torsion": list(hh.group.torsion)},
        },
        "notes": ["fibre generators project onto each factor and contain the "
                  "diagonal; their image generates the fibre product of the "
                  "transform's quotient map"],
    }
    return manifest, [f"wrote {gamma_art}, {prod_art}, {gens_art}"], EXIT_OK


if __name__ == "__main__":
    main()
