import hashlib
import json

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from presforge.cli import main, run_command
from presforge.constructions import super_perfectify
from presforge.presentations import parse_presentation, render_presentation

J_TEXT = "< a, b, c, d | a*b*a^-1=b^2, b*c*b^-1=c^2, c*d*c^-1=d^2, d*a*d^-1=a^2 >\n"
ICO_TEXT = "< a, b | a^2, b^3, (a*b)^5 >\n"
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
        bad.write_text("< a, a | >")
        res = runner.invoke(main, ["homology", str(bad)])
        assert res.exit_code == 3


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

    def test_homsearch_shards_and_noprune(self, runner, workdir):
        res = runner.invoke(main, ["homsearch", str(workdir / "ico.pres"),
                                   "--max-degree", "4", "--no-prune"])
        assert res.exit_code == 0

    def test_order(self, runner, workdir):
        res = runner.invoke(main, ["order", str(workdir / "ico.pres"),
                                   "--format", "json"])
        assert res.exit_code == 0
        assert json.loads(res.output)["index"] == 60

    def test_order_with_subgroup(self, runner, workdir):
        res = runner.invoke(main, ["order", str(workdir / "ico.pres"),
                                   "--subgroup", "a", "--format", "json"])
        assert json.loads(res.output)["index"] == 30

    def test_order_overflow_exit_2(self, runner, tmp_path):
        f = tmp_path / "free.pres"
        f.write_text("< a, b | >")
        res = runner.invoke(main, ["order", str(f), "--max-cosets", "50"])
        assert res.exit_code == 2

    def test_env_budget(self, runner, tmp_path, monkeypatch):
        f = tmp_path / "free.pres"
        f.write_text("< a, b | >")
        monkeypatch.setenv("PRESFORGE_MAX_COSETS", "40")
        res = runner.invoke(main, ["order", str(f)])
        assert res.exit_code == 2
        # flag wins over the environment
        res = runner.invoke(main, ["order", str(f), "--max-cosets", "100000"])
        assert res.exit_code == 2  # still infinite, but burned the larger budget
        assert "100000" in res.output


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
        out = capsys.readouterr()
        assert "certified" not in out.out and "Traceback" not in out.err

    def test_internal_error_exit_4(self, workdir, capsys, monkeypatch):
        import presforge.cli as cli

        def broken(P):
            raise AssertionError("invariant violated")

        monkeypatch.setattr(cli, "h1", broken)
        assert cli.run_command(["homology", str(workdir / "J.pres")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("internal error") and err.count("\n") == 1
        assert "Traceback" not in err


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
       budget=st.integers(-2, 500), search=st.booleans(),
       lam=st.sampled_from(["1/6", "0", "1/0", "abc"]),
       kind=st.sampled_from(["S", "U", "theta", "theta-tilde"]),
       word=st.sampled_from(["a", "x", "a*b^-1", "zz", "(a"]),
       fmt=st.sampled_from(["text", "json"]))
def test_fuzz_exit_codes_in_contract(tmp_path, command, source, max_degree, max_cosets,
                                     budget, search, lam, kind, word, fmt):
    from presforge.cli import run_command
    path = tmp_path / f"{source}.pres"
    if source in _FUZZ_TEXTS:
        path.write_text(_FUZZ_TEXTS[source])
    argv = [command, str(path)]
    argv += {
        "uce": ["--budget", str(budget)] + (["--search"] if search else []),
        "fibre": ["--kind", kind],
        "gadget": ["--word", word],
        "word": [word],
        "verify-sc": ["--lam", lam],
        "homsearch": ["--max-degree", str(max_degree)],
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

    def test_uce_rejects_nonperfect(self, runner, tmp_path):
        f = tmp_path / "z.pres"
        f.write_text("< a | a^2 >")
        res = runner.invoke(main, ["uce", str(f)])
        assert res.exit_code == 3

    def test_uce_search_mode(self, runner, workdir, tmp_path):
        out = tmp_path / "s"
        res = runner.invoke(main, ["uce", str(workdir / "triv.pres"), "--search",
                                   "--budget", "10000", "--outdir", str(out)])
        assert res.exit_code == 0
        witnesses = json.loads((out / "triv.uce.witnesses.json").read_text())
        assert witnesses[0]["c"] == "1" and witnesses[0]["rho_expanded"] == "x"

    def test_uce_search_budget_exhaustion_exit_2(self, runner, workdir, tmp_path):
        res = runner.invoke(main, ["uce", str(workdir / "ico.pres"), "--search",
                                   "--budget", "500", "--outdir", str(tmp_path)])
        assert res.exit_code == 2

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
        "4bb4de53162f992eb5c0deceda03a0cb331ac4562aec169003a63369a820c2a8",
    ("uce", "J"):
        "71b62db90878b6c590c5ea3630e698276ea14cd5a399e66a66a1977eb26d3c45",
    ("uce", "triv"):
        "3fb2400ecb2ddc60d12ecfdff0e3ee61b83f73f33c92cb388aa3f9b834f1016a",
    ("uce", "spico"):
        "471b38563e4e8732e8315c753df5978f8ac5807e0a3a1097ce4090fbc34eaed5",
    ("superperfectify", "ico"):
        "938168096ac130fabcecba97be6e96e3db684bc496f1f0d03f5ebe81a965ef65",
    ("superperfectify", "J"):
        "dfb0d53eb7f7e1b882d06eecb56e7da942ff184bedf7ff1067e2a0a977d495d9",
    ("superperfectify", "triv"):
        "6ef16da639f48320f68d74a3c9b0fed6745b5533f10bb7aea7702f6cd0605af9",
}


@pytest.mark.parametrize("command,source", sorted(UCE_GOLDEN))
def test_uce_artifacts_golden(tmp_path, command, source):
    texts = {"ico": ICO_TEXT, "J": J_TEXT, "triv": TRIV_TEXT}
    path = tmp_path / f"{source}.pres"
    path.write_text(texts.get(source) or render_presentation(
        super_perfectify(parse_presentation(ICO_TEXT)).presentation))
    out = tmp_path / "out"
    assert run_command([command, str(path), "--outdir", str(out)]) == 0
    digest = hashlib.sha256()
    for p in sorted(out.iterdir()):
        digest.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    assert digest.hexdigest() == UCE_GOLDEN[command, source]
