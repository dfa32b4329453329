"""End-to-end CLI runs through temp files."""

import json

import pytest

from auctionlab.cli import main
from auctionlab.instances import Instance, dump_instance, load_instance
from auctionlab.valuations import additive, xos


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "inst.json"
    dump_instance(
        Instance(2, (xos((40, 3), (2, 35)), additive((20, 30)), additive((5, 5)))),
        str(path),
    )
    return str(path)


def test_gen_then_load(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    out_path = tmp_path / "gen.json"
    spec_path.write_text(
        json.dumps(
            {
                "n": 3,
                "m": 2,
                "family": "xos-random",
                "clause_count": [2, 2],
                "value_range": ["1", "50"],
                "seed": 9,
            }
        )
    )
    assert main(["gen", "--spec", str(spec_path), "-o", str(out_path)]) == 0
    inst = load_instance(str(out_path))
    assert inst.bidder_count == 3 and inst.item_count == 2


def test_params_json(capsys):
    assert main(["params", "--psi-min", "1", "--psi-max", "1000000"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"alpha": 2, "beta": 2, "gamma": "80", "t": 4}


def test_run_writes_csv_and_summary(tmp_path, capsys, instance_file):
    csv_path = tmp_path / "report.csv"
    code = main(
        [
            "run",
            "--instance",
            instance_file,
            "--trials",
            "12",
            "--seed",
            "3",
            "-o",
            str(csv_path),
        ]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["trials"] == 12
    assert summary["opt"] is not None
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("trial_seed,branch,welfare")
    assert len(lines) == 13
    assert lines[1].split(",")[0] == "3"


def test_trace_outputs_rows_and_summary(tmp_path, capsys, instance_file):
    csv_path = tmp_path / "trace.csv"
    code = main(
        [
            "trace",
            "--instance",
            instance_file,
            "--seeds",
            "20",
            "--min-seeds",
            "5",
            "-o",
            str(csv_path),
        ]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["seeds"] == 20
    assert not summary["power_warning"]
    assert summary["iterations"]
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("seed,iteration,")
    assert len(lines) > 1


def test_truthtest_clean_instance(capsys, instance_file):
    code = main(
        ["truthtest", "--instance", instance_file, "--seeds", "3", "--deviations", "2"]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["violations"] == []
    assert data["query_budget_violations"] == []


def test_missing_instance_is_usage_error(capsys):
    assert main(["run", "--instance", "/nonexistent.json"]) == 2


def test_bad_params_is_usage_error(capsys):
    assert main(["params", "--psi-min", "0", "--psi-max", "5"]) == 2


@pytest.mark.parametrize(
    "bidder",
    [
        {"kind": "xos", "clauses": [[1.5]]},
        {"kind": "budget_additive", "values": ["1"], "budget": None},
        {"kind": "xos", "clauses": 5},
    ],
    ids=["float-entry", "null-budget", "non-list-clauses"],
)
def test_malformed_instance_is_usage_error(tmp_path, capsys, bidder):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"m": 1, "bidders": [bidder]}))
    assert main(["run", "--instance", str(path)]) == 2
    assert "bidder 0" in capsys.readouterr().err


def test_non_rational_param_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["params", "--psi-min", "abc", "--psi-max", "5"])
    assert exc.value.code == 2
    assert "not a rational number: 'abc'" in capsys.readouterr().err


def test_trace_without_seeds_is_usage_error(capsys, instance_file):
    assert main(["trace", "--instance", instance_file, "--seeds", "0"]) == 2
    assert "--seeds must be at least 1" in capsys.readouterr().err
