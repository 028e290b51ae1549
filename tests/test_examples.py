"""The README's library example and the experiment script, run as shipped."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("converged ")


def test_wanet_experiment_smoke(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(
        "wanet_experiment", ROOT / "scripts" / "wanet_experiment.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    rc = script.main(["--max-iter", "50", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert rc == 2
    assert "solver_reason=iteration budget" in lines
    assert "condition_satisfied=false" in lines
    keys = [l.partition("=")[0] for l in lines]
    for key in ("threshold", "sigma_f", "sigma_f_source", "condition_satisfied", "margin"):
        assert key in keys
    assert "did not converge" in captured.err
    assert (tmp_path / "trace_solver.csv").exists()
