"""Command line behavior, exercised in-process and through the module entry."""

import json
import subprocess
import sys

import numpy as np
import pytest

from alregress.cli import main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Manifest plus a 60-row comma file with a linear target."""
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 3))
    y = X @ np.array([1.0, -1.0, 2.0]) + 0.3
    rows = "\n".join(
        ",".join(repr(float(v)) for v in row) + f",{float(y[i])!r}"
        for i, row in enumerate(X)
    )
    (root / "lin.csv").write_text(rows + "\n", encoding="utf-8")
    (root / "sets.json").write_text(
        json.dumps({"lin": {"path": "lin.csv"}}), encoding="utf-8"
    )
    return root


def run_args(workspace, out, extra=()):
    return [
        "run",
        "--manifest", str(workspace / "sets.json"),
        "--dataset", "lin",
        "--strategies", "ours_sequential,random",
        "--trials", "2",
        "--rounds", "5",
        "--out", str(out),
        *extra,
    ]


class TestRun:
    def test_writes_reports_and_exits_zero(self, workspace, tmp_path, capsys):
        assert main(run_args(workspace, tmp_path)) == 0
        captured = capsys.readouterr()
        assert (tmp_path / "curves.csv").exists()
        assert (tmp_path / "ranking.csv").exists()
        assert (tmp_path / "trials.csv").exists()
        assert "ours_sequential" in captured.out
        assert "final-round mean RMSE" in captured.out
        assert str(tmp_path / "curves.csv") in captured.out

    def test_trace_log_flag(self, workspace, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        code = main(run_args(workspace, tmp_path, ["--trace-log", str(trace)]))
        capsys.readouterr()
        assert code == 0
        assert trace.read_text().startswith("dataset,strategy,trial,round,chosen,score")

    def test_unknown_dataset_is_one_line_error(self, workspace, tmp_path, capsys):
        args = run_args(workspace, tmp_path)
        args[args.index("--dataset") + 1] = "nope"
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "lin" in err

    def test_unknown_strategy_rejected(self, workspace, tmp_path, capsys):
        args = run_args(workspace, tmp_path)
        args[args.index("--strategies") + 1] = "gradient_boost"
        assert main(args) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_manifest_rejected(self, workspace, tmp_path, capsys):
        args = run_args(workspace, tmp_path)
        args[args.index("--manifest") + 1] = str(workspace / "absent.json")
        assert main(args) == 1
        capsys.readouterr()

    def test_ridge_and_noise_flags(self, workspace, tmp_path, capsys):
        extra = [
            "--regression", "ridge",
            "--alpha", "0.5",
            "--noise", "gaussian",
            "--noise-scale", "0.2",
            "--seed", "7",
        ]
        assert main(run_args(workspace, tmp_path, extra)) == 0
        capsys.readouterr()

    def test_non_finite_alpha_rejected_before_the_run(
        self, workspace, tmp_path, capsys
    ):
        out = tmp_path / "out"
        extra = ["--regression", "ridge", "--alpha", "inf"]
        assert main(run_args(workspace, out, extra)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: alpha must be finite and >= 0")
        assert not out.exists()


class TestValidateCommand:
    def test_passes_and_exits_zero(self, capsys):
        assert main(["validate", "--seed", "1"]) == 0
        assert "validation passed" in capsys.readouterr().out


class TestModuleEntry:
    def test_python_dash_m_round_trip(self, workspace, tmp_path):
        cmd = [sys.executable, "-m", "alregress", *run_args(workspace, tmp_path)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "wrote" in proc.stdout

    def test_reruns_are_byte_identical(self, workspace, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            cmd = [sys.executable, "-m", "alregress", *run_args(workspace, out)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
        for name in ("curves.csv", "ranking.csv", "trials.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_bad_subcommand_exits_nonzero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "alregress", "frobnicate"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode != 0
