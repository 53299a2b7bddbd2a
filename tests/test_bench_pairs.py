"""tools/bench_pairs.py refuses a run that cannot summarize its pairs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


class Reached(Exception):
    pass


def _reached(*args, **kwargs):
    raise Reached


@pytest.fixture
def no_runs(monkeypatch):
    for name in ("git", "unpack", "run_bench"):
        monkeypatch.setattr(bench_pairs, name, _reached)


def _argv(tmp_path, seeds, pairs):
    return ["--parent", "HEAD", "--workloads", "golden,calls", "--seeds", seeds,
            "--pairs", str(pairs), "--seconds", "1",
            "--out", str(tmp_path / "bench.json")]


def test_one_pair_per_workload_exits_2_before_any_run(tmp_path, capsys,
                                                     no_runs):
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(_argv(tmp_path, "1", 1))
    assert exc.value.code == 2
    assert "at least two pairs" in capsys.readouterr().err
    assert not (tmp_path / "bench.json").exists()


@pytest.mark.parametrize("seeds, pairs", [("1", 2), ("1-2", 1)])
def test_two_pairs_per_workload_go_on_to_git(tmp_path, no_runs, seeds, pairs):
    with pytest.raises(Reached):
        bench_pairs.main(_argv(tmp_path, seeds, pairs))
