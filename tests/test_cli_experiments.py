"""Error/edge paths of ``repro.cli experiments`` and the new engine flags.

Covers: unknown experiment ids, --jobs validation, --metrics together
with --jobs > 1, --out JSON-lines output, and --cache round trips —
all through the real ``main`` entry point.
"""

import json

import pytest

from repro.cli import main
from repro.exp import read_jsonl
from repro.exp.store import main as store_main


def test_unknown_id_exits_nonzero_with_message(capsys):
    assert main(["experiments", "no_such_figure"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment id 'no_such_figure'" in err
    assert "table1" in err, "message should list the known ids"


def test_unknown_id_among_valid_ones_runs_nothing(capsys):
    assert main(["experiments", "table1", "bogus"]) == 2
    captured = capsys.readouterr()
    assert "== table1" not in captured.out


@pytest.mark.parametrize("jobs", ["0", "-4", "zero"])
def test_bad_jobs_rejected(jobs, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["experiments", "table1", "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_metrics_summary_with_parallel_jobs(capsys):
    assert main(["experiments", "ext_dlm", "abl_credits",
                 "--jobs", "2", "--metrics"]) == 0
    out = capsys.readouterr().out
    assert "== ext_dlm" in out and "== abl_credits" in out
    start = out.index("metric")
    assert "counter" in out[start:], "summary table should follow results"


def test_out_writes_valid_json_lines(tmp_path, capsys, quick_result):
    out_path = tmp_path / "results.jsonl"
    assert main(["experiments", "table1", "fig03",
                 "--out", str(out_path)]) == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 2
    for line in lines:
        json.loads(line)
    results = read_jsonl(out_path)
    assert [r.exp_id for r in results] == ["table1", "fig03"]
    assert results[0].rows[0] == ("1 km", "5 us")
    # The CLI path stores the same bytes as a direct in-process run.
    for result in results:
        assert result.to_json() == quick_result(result.exp_id).to_json()


def test_cache_flag_round_trip(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    args = ["experiments", "table1", "--cache", "--cache-dir", cache_dir]
    assert main(args) == 0
    first = capsys.readouterr()
    assert "1 miss(es)" in first.err
    assert main(args) == 0
    second = capsys.readouterr()
    assert "1 hit(s), 0 miss(es)" in second.err
    assert first.out == second.out, "cached output must be identical"


def test_no_cache_is_the_default(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["experiments", "table1"]) == 0
    capsys.readouterr()
    assert not (tmp_path / ".repro-cache").exists()


def test_store_renderer_cli(tmp_path, capsys):
    out_path = tmp_path / "results.jsonl"
    assert main(["experiments", "table1", "--out", str(out_path)]) == 0
    capsys.readouterr()
    assert store_main([str(out_path)]) == 0
    text = capsys.readouterr().out
    assert "== table1" in text and "2000 km" in text
    assert store_main([str(out_path), "--markdown"]) == 0
    md = capsys.readouterr().out
    assert "| distance | one-way delay |" in md


def test_module_cli_jobs_flag(capsys):
    from repro.core.experiments import main as exp_main
    exp_main(["table1", "ext_dlm", "--jobs", "2"])
    out = capsys.readouterr().out
    assert "== table1" in out and "== ext_dlm" in out
