"""The runnable studies under scripts/: importable, the criterion survey
agrees with the `run` verb, and the output digests cover their file set."""

import hashlib
import importlib.util
import pathlib

import pytest

from channelflow.cli import EXIT_OK, main
from channelflow.io import emit_config

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


def test_output_digests_print_one_line_per_output(tmp_path, capsys):
    _load("output_digests").main([str(tmp_path)])
    lines = capsys.readouterr().out.splitlines()
    runs = ("forced", "shear", "taylor_green", "undealiased", "forced_half", "forced_restarted")
    expected = [f"{run}/{name}" for run in runs
                for name in ("diagnostics.csv", "report.txt", "final.ckpt")]
    expected += ["inequalities32/inequalities.csv", "inequalities16/inequalities.csv"]
    assert [line.split("  ")[1] for line in lines] == expected
    digests = {}
    for line in lines:
        digest, path = line.split("  ")
        assert digest == hashlib.sha256((tmp_path / path).read_bytes()).hexdigest()
        digests[path] = digest
    # the restarted pair ends on the uninterrupted run's checkpoint, bit for bit
    assert digests["forced_restarted/final.ckpt"] == digests["forced/final.ckpt"]
