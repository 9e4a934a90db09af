"""CLI (`python -m repro.bench`) tests."""

import json

import pytest

from repro.bench.__main__ import main


def test_single_experiment(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "table1" in out and "PASS" in out


def test_json_output(capsys):
    assert main(["--json", "table1", "figure4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [e["experiment_id"] for e in payload] == ["table1", "figure4"]
    assert all(e["all_checks_pass"] for e in payload)
    assert payload[0]["rows"]


def test_unknown_experiment():
    with pytest.raises(KeyError):
        main(["tableXX"])


def test_help_prints_usage_and_runs_nothing(capsys, monkeypatch):
    monkeypatch.setattr(
        "repro.bench.__main__.run_experiment",
        lambda eid: pytest.fail(f"--help ran {eid}"),
    )
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: python -m repro.bench" in capsys.readouterr().out


def test_unknown_flag_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(
        "repro.bench.__main__.run_experiment",
        lambda eid: pytest.fail(f"an unknown flag ran {eid}"),
    )
    with pytest.raises(SystemExit) as exc:
        main(["--no-such-flag"])
    assert exc.value.code == 2
    assert "usage: python -m repro.bench" in capsys.readouterr().err
