import errno
import hashlib
import io
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import presforge
from presforge.cli import main, run_command
from presforge.constructions import super_perfectify
from presforge.presentations import parse_presentation, render_presentation

J_TEXT = "< a, b, c, d | a*b*a^-1=b^2, b*c*b^-1=c^2, c*d*c^-1=d^2, d*a*d^-1=a^2 >\n"
ICO_TEXT = "< a, b | a^2, b^3, (a*b)^5 >\n"
D_TEXT = "< alpha, beta, gamma | alpha*beta*alpha^-1=beta^2, beta*gamma*beta^-1=gamma^2 >\n"
TRIV_TEXT = "< x | x >\n"


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "J.pres").write_text(J_TEXT)
    (tmp_path / "ico.pres").write_text(ICO_TEXT)
    (tmp_path / "triv.pres").write_text(TRIV_TEXT)
    return tmp_path


class TestHomologyCommand:
    def test_higman(self, runner, workdir):
        res = runner.invoke(main, ["homology", str(workdir / "J.pres")])
        assert res.exit_code == 0
        assert "h1 = 0" in res.output

    def test_json_format(self, runner, workdir):
        res = runner.invoke(main, ["homology", str(workdir / "J.pres"),
                                   "--format", "json"])
        data = json.loads(res.output)
        assert data["h1"]["rank"] == 0 and data["h1"]["torsion"] == []
        assert data["h2"] == "unavailable: not flagged aspherical"

    def test_stdin(self, runner):
        res = runner.invoke(main, ["homology", "-"], input=ICO_TEXT)
        assert res.exit_code == 0 and "h1 = 0" in res.output

    def test_input_error(self, runner, tmp_path):
        bad = tmp_path / "bad.pres"
        for text in ("< a, a | >", "< ", "< 3 | >", "< a", "< a b | >", "< a | a",
                     "< a | a ) >", "< a | a > b", "< a | a #",
                     "< a | (a^2)^99999999999999999999 >", "< a | 1^-99999999999999999999 >"):
            bad.write_text(text)
            res = runner.invoke(main, ["homology", str(bad)])
            assert res.exit_code == 3, text

    def test_deeply_nested_relator_parses(self, tmp_path, capsys):
        deep = tmp_path / "deep.pres"
        deep.write_text("< a | " + "(" * 2000 + "a" + ")" * 2000 + " >\n")
        assert run_command(["homology", str(deep)]) == 0
        assert "h1 = 0" in capsys.readouterr().out


class TestWordAndVerify:
    def test_word_nontrivial_exit_1(self, runner, workdir, tmp_path):
        runner.invoke(main, ["rips", str(workdir / "triv.pres"),
                             "--outdir", str(tmp_path / "out")])
        res = runner.invoke(main, ["word", str(tmp_path / "out" / "triv.gamma.pres"), "x"])
        assert res.exit_code == 1 and "nontrivial" in res.output

    def test_word_trivial_exit_0(self, runner, workdir, tmp_path):
        runner.invoke(main, ["rips", str(workdir / "triv.pres"),
                             "--outdir", str(tmp_path / "out")])
        gamma = (tmp_path / "out" / "triv.gamma.pres").read_text()
        first_relator = gamma.split("|")[1].split(",")[0].strip()
        res = runner.invoke(main, ["word", str(tmp_path / "out" / "triv.gamma.pres"),
                                   first_relator])
        assert res.exit_code == 0 and "trivial" in res.output

    def test_word_deeply_nested_parses(self, workdir, tmp_path, capsys):
        run_command(["rips", str(workdir / "triv.pres"), "--outdir", str(tmp_path)])
        deep = "(" * 3000 + "x" + ")" * 3000
        assert run_command(["word", str(tmp_path / "triv.gamma.pres"), deep]) == 1
        assert "nontrivial" in capsys.readouterr().out

    def test_word_requires_certificate(self, runner, workdir):
        res = runner.invoke(main, ["word", str(workdir / "J.pres"), "a"])
        assert res.exit_code == 3

    def test_verify_sc(self, runner, workdir, tmp_path):
        res = runner.invoke(main, ["verify-sc", str(workdir / "J.pres")])
        assert res.exit_code == 1 and "FAIL" in res.output
        runner.invoke(main, ["rips", str(workdir / "triv.pres"),
                             "--outdir", str(tmp_path / "o")])
        res = runner.invoke(main, ["verify-sc", str(tmp_path / "o" / "triv.gamma.pres")])
        assert res.exit_code == 0 and "pass" in res.output

    def test_verify_sc_custom_lambda(self, runner, workdir):
        res = runner.invoke(main, ["verify-sc", str(workdir / "J.pres"),
                                   "--lam", "1/2", "--format", "json"])
        data = json.loads(res.output)
        assert data["lambda"] == "1/2"


class TestSearchAndOrder:
    def test_homsearch_certified(self, runner, workdir):
        res = runner.invoke(main, ["homsearch", str(workdir / "J.pres"),
                                   "--max-degree", "4"])
        assert res.exit_code == 0 and "certified" in res.output

    def test_homsearch_counterexample(self, runner, tmp_path):
        f = tmp_path / "z2.pres"
        f.write_text("< a | a^2 >")
        res = runner.invoke(main, ["homsearch", str(f), "--max-degree", "3",
                                   "--format", "json"])
        assert res.exit_code == 1
        assert json.loads(res.output)["counterexample"]["degree"] == 2

    def test_homsearch_certified_below_least_degree(self, runner, workdir):
        res = runner.invoke(main, ["homsearch", str(workdir / "ico.pres"),
                                   "--max-degree", "4"])
        assert res.exit_code == 0

    def test_homsearch_reports_search_nodes(self, runner, workdir):
        argv = ["homsearch", str(workdir / "J.pres"), "--max-degree", "4"]
        reports = [json.loads(runner.invoke(main, argv + ["--format", "json"]).output)
                   for _ in range(2)]
        assert reports[0] == reports[1] and reports[0]["search_nodes"] > 0
        assert "pruned" not in reports[0]
        assert f"{reports[0]['search_nodes']} search nodes" in runner.invoke(main, argv).output
        assert run_command(argv + ["--no-prune"]) == 3

    def test_homsearch_reports_killed_blocks(self, runner, tmp_path):
        f = tmp_path / "sp.pres"
        f.write_text(render_presentation(super_perfectify(
            parse_presentation("< x | x^2 >")).presentation))
        argv = ["homsearch", str(f), "--max-degree", "5"]
        res = runner.invoke(main, argv + ["--format", "json"])
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert report["killed_blocks"] == [
            {"generators": ["a_1", "b_1", "c_1", "d_1"], "search_nodes": 253}]
        assert report["search_nodes"] == 386 and report["relators_dropped"] == 20
        text = runner.invoke(main, argv).output
        assert "killed block a_1, b_1, c_1, d_1 (253 search nodes)" in text
        assert "386 search nodes, 20 relators dropped" in text

    def test_homsearch_over_budget_exit_2(self, workdir, capsys):
        assert run_command(["homsearch", str(workdir / "J.pres"), "--max-degree", "6",
                            "--budget", "50"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("inconclusive") and "51 nodes" in err

    def test_homsearch_deep_search_exit_2(self, workdir, capsys):
        """Paths of more than 1,000 definitions walk a list of open nodes,
        not Python's call stack."""
        assert run_command(["homsearch", str(workdir / "J.pres"), "--max-degree", "2000",
                            "--budget", "2000"]) == 2
        assert "2001 nodes" in capsys.readouterr().err

    def test_homsearch_huge_degree_bound_exit_2(self, workdir):
        """The table grows with the cosets defined, not with --max-degree:
        a bound of 10^8 fits in a 400 MB address space."""
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (400_000 * 1024, 400_000 * 1024))

        src = str(Path(presforge.__file__).resolve().parents[1])
        res = subprocess.run(
            [sys.executable, "-m", "presforge.cli", "homsearch", str(workdir / "J.pres"),
             "--max-degree", "100000000", "--budget", "50"], preexec_fn=cap,
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60)
        assert res.returncode == 2, res.stderr
        assert "51 nodes" in res.stderr

    def test_order(self, runner, workdir):
        res = runner.invoke(main, ["order", str(workdir / "ico.pres"),
                                   "--format", "json"])
        assert res.exit_code == 0
        assert json.loads(res.output)["index"] == 60

    def test_order_reports_deductions(self, runner, workdir):
        """The JSON report and the text line carry the deterministic count
        of entries closed by deduce-only scans (b^3 is a short relator)."""
        res = runner.invoke(main, ["order", str(workdir / "ico.pres"), "--format", "json"])
        deductions = json.loads(res.output)["deductions"]
        assert deductions > 0
        res = runner.invoke(main, ["order", str(workdir / "ico.pres")])
        assert f"{deductions} deductions)" in res.output

    def test_order_with_subgroup(self, runner, workdir):
        res = runner.invoke(main, ["order", str(workdir / "ico.pres"),
                                   "--subgroup", "a", "--format", "json"])
        assert json.loads(res.output)["index"] == 30

    def test_order_overflow_exit_2(self, runner, tmp_path):
        f = tmp_path / "free.pres"
        f.write_text("< a, b | >")
        res = runner.invoke(main, ["order", str(f), "--max-cosets", "50"])
        assert res.exit_code == 2

    def test_env_budget(self, runner, tmp_path, monkeypatch, workdir):
        """Budgets come from flags and their defaults alone; the CLI reads
        no environment variable."""
        f = tmp_path / "free.pres"
        f.write_text("< a, b | >")
        for name in ("PRESFORGE_MAX_COSETS", "PRESFORGE_MAX_DEGREE", "PRESFORGE_BUDGET_STEPS"):
            monkeypatch.setenv(name, "1")
        res = runner.invoke(main, ["order", str(f), "--max-cosets", "40"])
        assert res.exit_code == 2 and "budget 40)" in res.output
        res = runner.invoke(main, ["order", str(f), "--format", "json"])
        assert res.exit_code == 2  # still infinite, but burned the default budget
        assert json.loads(res.output)["max_cosets"] == 100000
        res = runner.invoke(main, ["homsearch", str(workdir / "ico.pres"), "--format", "json"])
        assert res.exit_code == 1 and json.loads(res.output)["max_degree"] == 6


class TestRunCommand:
    def test_exit_codes(self, workdir, capsys):
        from presforge.cli import run_command
        assert run_command(["homology", str(workdir / "J.pres")]) == 0
        assert run_command(["verify-sc", str(workdir / "J.pres")]) == 1
        assert run_command(["homology", str(workdir / "missing.pres")]) == 3
        assert run_command(["no-such-command"]) == 3
        capsys.readouterr()

    def test_out_of_range_budgets_are_input_errors(self, workdir, capsys):
        from presforge.cli import run_command
        ico = str(workdir / "ico.pres")
        assert run_command(["order", ico, "--max-cosets", "0"]) == 3
        for k in ("0", "1"):
            assert run_command(["homsearch", ico, "--max-degree", k]) == 3
        for n in ("0", "-3"):
            assert run_command(["homsearch", ico, "--budget", n]) == 3
        out = capsys.readouterr()
        assert "certified" not in out.out and "Traceback" not in out.err

    def test_bad_lambda_is_input_error(self, workdir, capsys):
        for lam in ("1/0", "x"):
            assert run_command(["verify-sc", str(workdir / "ico.pres"), "--lam", lam]) == 3
            out = capsys.readouterr()
            assert out.out == "" and out.err.startswith("error: Invalid value for '--lam': ")

    def test_oversized_power_names_its_exponent(self, tmp_path, capsys):
        big = tmp_path / "big.pres"
        big.write_text("< a | (a^2)^99999999999999999999 >\n")
        assert run_command(["homology", str(big)]) == 3
        assert capsys.readouterr().err == "error: exponent too large at line 1, column 13\n"

    def test_oversized_word_is_input_error(self, tmp_path, capsys):
        big = tmp_path / "big.pres"
        big.write_text("< a, b | " + "[" * 20 + "a,b]" + ",b]" * 19 + " >\n")
        assert run_command(["homology", str(big)]) == 3
        assert capsys.readouterr().err == "error: word too long at line 1, column 87\n"

    def test_internal_error_exit_4(self, workdir, capsys, monkeypatch):
        import presforge.cli as cli

        def broken(P):
            raise AssertionError("invariant violated")

        monkeypatch.setattr(cli, "h1", broken)
        assert cli.run_command(["homology", str(workdir / "J.pres")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("internal error") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_closed_stdout_is_input_error(self, workdir, capsys, monkeypatch):
        # click exits 1 when a write to stdout hits EPIPE, as in
        # `presforge order ico.pres | true`, but 1 is the negative answer
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        monkeypatch.setattr(sys, "stderr", sys.stderr)  # click wraps both on EPIPE
        assert run_command(["order", str(workdir / "ico.pres")]) == 3
        assert capsys.readouterr().err == f"error: [Errno {errno.EPIPE}] Broken pipe\n"


_FUZZ_TEXTS = {
    "ico": ICO_TEXT,
    "free": "< a, b | >\n",
    "triv": TRIV_TEXT,
    "malformed": "< a, a | a^ >\n",
}


@settings(max_examples=30, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["homology", "uce", "rips", "killfq", "superperfectify",
                                "fibre", "gadget", "word", "verify-sc", "homsearch",
                                "order", "bg-pipeline"]),
       source=st.sampled_from([*_FUZZ_TEXTS, "missing"]),
       max_degree=st.integers(-2, 4), max_cosets=st.integers(-2, 200),
       budget=st.integers(-2, 500),
       lam=st.sampled_from(["1/6", "0", "1/0", "abc"]),
       kind=st.sampled_from(["S", "U", "theta", "theta-tilde"]),
       word=st.sampled_from(["a", "x", "a*b^-1", "zz", "(a"]),
       fmt=st.sampled_from(["text", "json"]))
def test_fuzz_exit_codes_in_contract(tmp_path, command, source, max_degree, max_cosets,
                                     budget, lam, kind, word, fmt):
    from presforge.cli import run_command
    path = tmp_path / f"{source}.pres"
    if source in _FUZZ_TEXTS:
        path.write_text(_FUZZ_TEXTS[source])
    argv = [command, str(path)]
    argv += {
        "fibre": ["--kind", kind],
        "gadget": ["--word", word],
        "word": [word],
        "verify-sc": ["--lam", lam],
        "homsearch": ["--max-degree", str(max_degree), "--budget", str(budget)],
        "order": ["--max-cosets", str(max_cosets)],
    }.get(command, [])
    if command in ("uce", "rips", "killfq", "superperfectify", "fibre", "bg-pipeline"):
        argv += ["--outdir", str(tmp_path / "out")]
    assert run_command(argv + ["--format", fmt]) in (0, 1, 2, 3)


class TestPipelines:
    def test_uce_artifacts(self, runner, workdir, tmp_path):
        out = tmp_path / "u"
        res = runner.invoke(main, ["uce", str(workdir / "ico.pres"),
                                   "--outdir", str(out)])
        assert res.exit_code == 0
        witnesses = json.loads((out / "ico.uce.witnesses.json").read_text())
        assert all(w["verified"] for w in witnesses)
        manifest = json.loads((out / "ico.uce.manifest.json").read_text())
        assert manifest["counts"]["expected_relators"] == 2 + 2 * 3

    def test_rips_long_power(self, runner, tmp_path):
        """A relator that is one long run ties its rotations for hundreds
        of letters; the padding doubles until the certificate passes."""
        f = tmp_path / "pow.pres"
        f.write_text("< a | a^300 >")
        res = runner.invoke(main, ["rips", str(f), "--outdir", str(tmp_path)])
        assert res.exit_code == 0
        manifest = json.loads((tmp_path / "pow.rips.manifest.json").read_text())
        assert manifest["counts"]["padding_blocks"] == 64
        assert manifest["certificates"]["metric"]["passed"]

    def test_uce_rejects_nonperfect(self, runner, tmp_path):
        f = tmp_path / "z.pres"
        f.write_text("< a | a^2 >")
        res = runner.invoke(main, ["uce", str(f)])
        assert res.exit_code == 3

    def test_uce_has_one_witness_path(self, workdir, capsys):
        ico = str(workdir / "ico.pres")
        assert run_command(["uce", ico, "--search"]) == 3
        assert run_command(["uce", ico, "--budget", "5"]) == 3
        assert "no such option" in capsys.readouterr().err.lower()

    def test_killfq_and_superperfectify(self, runner, workdir, tmp_path):
        out = tmp_path / "k"
        res = runner.invoke(main, ["killfq", str(workdir / "triv.pres"),
                                   "--outdir", str(out)])
        assert res.exit_code == 0
        manifest = json.loads((out / "triv.killfq.manifest.json").read_text())
        assert manifest["counts"]["raw_generators"] == 5
        res = runner.invoke(main, ["superperfectify", str(workdir / "triv.pres"),
                                   "--outdir", str(out)])
        assert res.exit_code == 0
        manifest = json.loads((out / "triv.superperfect.manifest.json").read_text())
        assert manifest["certificates"]["h1_trivial"] is True

    def test_fibre_kinds(self, runner, workdir, tmp_path):
        out = tmp_path / "f"
        res = runner.invoke(main, ["fibre", str(workdir / "ico.pres"),
                                   "--kind", "S", "--outdir", str(out)])
        assert res.exit_code == 0
        gens = json.loads((out / "ico.S.generators.json").read_text())
        assert len(gens) == 2 + 3

    def test_fibre_theta_kinds(self, runner, workdir, tmp_path):
        out = tmp_path / "t"
        res = runner.invoke(main, ["fibre", str(workdir / "triv.pres"),
                                   "--kind", "theta", "--outdir", str(out)])
        assert res.exit_code == 0
        theta = json.loads((out / "triv.theta.generators.json").read_text())
        assert len(theta) == 4 + 1  # copy generators plus one rewritten relator
        res = runner.invoke(main, ["fibre", str(workdir / "triv.pres"),
                                   "--kind", "theta-tilde", "--outdir", str(out)])
        assert res.exit_code == 0
        tilde = json.loads((out / "triv.theta-tilde.generators.json").read_text())
        assert len(tilde) == len(theta) + 6

    def test_fibre_u_kind(self, runner, workdir, tmp_path):
        out = tmp_path / "u2"
        res = runner.invoke(main, ["fibre", str(workdir / "triv.pres"),
                                   "--kind", "U", "--outdir", str(out)])
        assert res.exit_code == 0
        gens = json.loads((out / "triv.U.generators.json").read_text())
        assert len(gens) == 6 + 4

    def test_gadget(self, runner, workdir):
        res = runner.invoke(main, ["gadget", str(workdir / "ico.pres"),
                                   "--word", "a*b", "--format", "json"])
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert data["identity_verified"] is True
        assert data["pair"]["right"] == data["kernel"]

    def test_gadget_explicit_kernel(self, runner, workdir):
        res = runner.invoke(main, ["gadget", str(workdir / "ico.pres"), "--word", "a*b",
                                   "--kernel", "b^3", "--format", "json"])
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert data["kernel"] == "b^3"
        assert data["pair"] == {"left": "b^-1*a^-1*b^3*a*b", "right": "b^3"}
        assert data["base_pair"] == {"left": "b^3", "right": "b^3"}

    def test_gadget_without_relators_needs_kernel(self, tmp_path, capsys):
        free = tmp_path / "free.pres"
        free.write_text("< a, b | >\n")
        assert run_command(["gadget", str(free), "--word", "a"]) == 3
        assert capsys.readouterr().err == "error: no relators; supply --kernel explicitly\n"
        assert run_command(["gadget", str(free), "--word", "a", "--kernel", "b"]) == 0
        assert capsys.readouterr().out == "(a^-1*b*a, b)  ~  (b, b)\n"

    def test_bg_pipeline(self, runner, workdir, tmp_path):
        out = tmp_path / "bg"
        res = runner.invoke(main, ["bg-pipeline", str(workdir / "triv.pres"),
                                   "--outdir", str(out)])
        assert res.exit_code == 0
        manifest = json.loads((out / "triv.bg-pipeline.manifest.json").read_text())
        assert manifest["certificates"]["metric"]["passed"] is True
        assert (out / "triv.gamma.pres").exists()
        assert (out / "triv.product.pres").exists()

    def test_manifest_reproducibility(self, runner, workdir, tmp_path):
        outs = []
        for d in ("r1", "r2"):
            out = tmp_path / d
            runner.invoke(main, ["bg-pipeline", str(workdir / "triv.pres"),
                                 "--outdir", str(out)])
            outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outs[0] == outs[1]


# sha256 over (file name, bytes) of every artifact and manifest in the outdir.
# The uce witnesses depend on the Smith form's left transform and on the
# kernel size reduction in solve_row_lattice, so these pin both.  "spico" is
# super_perfectify(icosahedral), 138 relators; superperfectify on it is left
# out because the command's own H1 check of its 9,450-relator output costs
# seconds and hundreds of MB.
UCE_GOLDEN = {
    ("uce", "ico"):
        "d8d6d97f2e35f1dbcbc78f6356850d0b7507ab42ff56a77b6d08a17b07df4c74",
    ("uce", "J"):
        "f5df7e1ce188bb14eb17b0322e89fb917b6ea4d0ca9457cbf255e85b44d55be4",
    ("uce", "triv"):
        "797a3c50df389d6cb45c7a8953e1e9ff12efc46ca9922eb8ecef9dbb3d90aa4e",
    ("uce", "spico"):
        "f3a9be2960e8d9eea045663763983f440614a0b8c17043a6020358e381547b35",
    ("uce", "spD"):
        "fe2b75b482cdc19ed1f4835cdfe393183310bacd88101cb93671201c29a4da38",
    ("superperfectify", "D"):
        "69dc88b2188b95eb5c0c0260fddf9cff8ecba2cdfb80ee223b5910ca3fcb96f5",
    ("superperfectify", "ico"):
        "938168096ac130fabcecba97be6e96e3db684bc496f1f0d03f5ebe81a965ef65",
    ("superperfectify", "J"):
        "dfb0d53eb7f7e1b882d06eecb56e7da942ff184bedf7ff1067e2a0a977d495d9",
    ("superperfectify", "triv"):
        "6ef16da639f48320f68d74a3c9b0fed6745b5533f10bb7aea7702f6cd0605af9",
}


@pytest.mark.parametrize("command,source", sorted(UCE_GOLDEN))
def test_uce_artifacts_golden(tmp_path, command, source):
    # "sp" + a source name: that source's super_perfectify output
    texts = {"ico": ICO_TEXT, "J": J_TEXT, "triv": TRIV_TEXT, "D": D_TEXT}
    path = tmp_path / f"{source}.pres"
    path.write_text(texts.get(source) or render_presentation(
        super_perfectify(parse_presentation(texts[source[2:]])).presentation))
    out = tmp_path / "out"
    assert run_command([command, str(path), "--outdir", str(out)]) == 0
    digest = hashlib.sha256()
    for p in sorted(out.iterdir()):
        digest.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    assert digest.hexdigest() == UCE_GOLDEN[command, source]


def test_readme_command_block_matches_cli():
    """Every `presforge CMD` line in the README's command-line block names
    a real subcommand, and every `--flag` on it is an option of that
    subcommand."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    lines = [ln for ln in block.splitlines() if ln.startswith("presforge ")]
    assert len(lines) == len(main.commands)
    for line in lines:
        name = line.split()[1]
        assert name in main.commands, line
        opts = {o for p in main.commands[name].params for o in p.opts}
        for flag in re.findall(r"--[a-z][a-z-]*", line.split("#")[0]):
            assert flag in opts, (name, flag)
