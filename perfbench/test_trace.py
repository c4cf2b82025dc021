"""Tests of the benchmark's tracing helper.

    python3 -m pytest perfbench/test_trace.py
"""

import contextlib
import io
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import presforge.cli as cli  # noqa: E402
import presforge.quotients as quotients  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import coxeter_symmetric  # noqa: E402


def test_order_span_nests_under_run_command(tmp_path):
    pres = tmp_path / "coxeter-S4.pres"
    pres.write_text(coxeter_symmetric(4))
    original = quotients.todd_coxeter
    tracer = Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run_command(["order", str(pres), "--max-cosets", "1000"])
    finally:
        tracer.uninstall()
    assert code == 0
    spans = tracer.spans
    [tc] = [s for s in spans if s[0] == "quotients.todd_coxeter"]
    assert spans[tc[3]][0] == "cli.run_command"
    assert tracer.counts["quotients.index_sum"] == 24
    # the name imported into cli was rebound while installed, and restored after
    assert cli.todd_coxeter is original and quotients.todd_coxeter is original


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans = [["outer", 0, 100, -1], ["inner", 10, 40, 0], ["inner", 50, 70, 0]]
    totals = tracer.layer_totals()
    assert totals["outer"]["self_s"] == pytest.approx(50e-9)
    assert totals["inner"]["calls"] == 2
    assert totals["inner"]["self_s"] == pytest.approx(totals["inner"]["total_s"])
