"""The runnable studies under scripts/: importable, the criterion survey
agrees with the `run` verb, the output digests cover their file set, and
the output comparison counts what moved."""

import hashlib
import importlib.util
import pathlib
import shutil

import pytest

from channelflow.cli import EXIT_OK, main
from channelflow.fields import Grid
from channelflow.io import emit_config, write_checkpoint
from channelflow.solver import random_divergence_free_state

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _load(name: str):
    """Import scripts/<name>.py as a module without running its main()."""
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(p.stem for p in SCRIPTS.glob("*.py")))
def test_script_imports(name):
    assert callable(_load(name).main)


def test_criterion_survey_prints_the_run_report(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CHANNELFLOW_THREADS", "1")
    survey = _load("criterion_survey")
    cfg = tmp_path / "survey.cfg"
    cfg.write_text(emit_config(survey.CONFIG))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_OK
    capsys.readouterr()
    survey.main()
    printed = capsys.readouterr().out
    report = (tmp_path / "out" / "report.txt").read_text()
    assert report.startswith("criterion report\n")
    assert printed.startswith(report + "\nper-record ||p_z||_{2q} trace:\n")


def test_shear_benchmark_prints_a_roundoff_error(monkeypatch, capsys):
    monkeypatch.setenv("CHANNELFLOW_THREADS", "1")
    _load("shear_benchmark").main()
    line, = (line for line in capsys.readouterr().out.splitlines()
             if line.startswith("relative L2 error"))
    assert float(line.split(":")[1]) <= 1e-12


def test_output_digests_print_one_line_per_output(tmp_path, capsys):
    _load("output_digests").main([str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    runs = ("forced", "shear", "taylor_green", "undealiased", "forced_cnab2", "forced_random",
            "forced_half", "undealiased_half", "taylor_green_unstepped", "forced_restarted",
            "undealiased_restarted")
    expected = [f"{run}/{name}" for run in runs
                for name in ("diagnostics.csv", "report.txt", "final.ckpt")]
    # a blow-up run gives the files it wrote: no report before the first record
    expected += ["blowup_cap/diagnostics.csv", "blowup_cap/report.txt", "blowup_cap/final.ckpt",
                 "blowup_nonfinite/diagnostics.csv", "blowup_nonfinite/final.ckpt"]
    expected += ["inequalities32/inequalities.csv", "inequalities16/inequalities.csv"]
    assert [line.split("  ")[1] for line in lines] == expected
    digests = {}
    for line in lines:
        digest, path = line.split("  ")
        assert digest == hashlib.sha256((tmp_path / path).read_bytes()).hexdigest()
        digests[path] = digest
    # each restarted pair ends on the uninterrupted run's checkpoint, bit for bit
    for name in ("forced", "undealiased"):
        assert digests[f"{name}_restarted/final.ckpt"] == digests[f"{name}/final.ckpt"]


def test_compare_outputs_counts_changed_values(tmp_path, capsys):
    compare = _load("compare_outputs")
    a = tmp_path / "a"
    (a / "run").mkdir(parents=True)
    (a / "ineq").mkdir()
    (a / "run" / "report.txt").write_text(
        "criterion report\n\nkey-value block\n---------------\nk11 = 0.5\nblowup = False\n")
    write_checkpoint(str(a / "run" / "final.ckpt"),
                     random_divergence_free_state(Grid(8, 8, 5), seed=1))
    (a / "ineq" / "inequalities.csv").write_text(
        "inequality,field_index,lhs,passed\ngn2d_a4,0,1.5,1\ngn3d_a4,0,2.0,1\n")
    b = tmp_path / "b"
    shutil.copytree(a, b)
    compare.main([str(a), str(a)])
    assert capsys.readouterr().out.splitlines() == [
        "ineq/inequalities.csv: identical", "run/final.ckpt: identical",
        "run/report.txt: identical"]
    csv = b / "ineq" / "inequalities.csv"
    csv.write_text(csv.read_text().replace("2.0,1", "2.5,1"))
    compare.main([str(a), str(b)])
    assert capsys.readouterr().out.splitlines() == [
        "ineq/inequalities.csv: 1 values changed, 0 passed flips; "
        "largest relative change: lhs 2.0e-01",
        "run/final.ckpt: identical", "run/report.txt: identical"]
