"""End-to-end CLI runs through temp files."""

import json

import pytest

from auctionlab import cli
from auctionlab.cli import main
from auctionlab.errors import InstanceShapeError, InvariantViolationError
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
    "bidder, message",
    [
        ({"kind": "xos", "clauses": [[1.5]]}, "got float"),
        ({"kind": "budget_additive", "values": ["1"], "budget": None}, "got NoneType"),
        ({"kind": "xos", "clauses": 5}, '"clauses" must be a list, got int'),
        ({"kind": "xos", "clauses": ["1"]}, "clause 0 must be a list, got str"),
        ({"kind": "xos", "clauses": "1"}, '"clauses" must be a list, got str'),
        (
            {"kind": "budget_additive", "values": "1", "budget": "5"},
            '"values" must be a list, got str',
        ),
        ({"kind": "xos", "clauses": [[True]]}, "got bool"),
        ({"kind": "budget_additive", "values": ["1"], "budget": False}, "got bool"),
        ({"kind": "xos"}, "bidder 0 is missing field 'clauses'"),
        ({"kind": "budget_additive", "budget": "5"}, "is missing field 'values'"),
        ({"kind": "budget_additive", "values": ["1"]}, "is missing field 'budget'"),
        ({"kind": "xos", "clauses": [["1e999999999"]]}, "exponent of '1e999999999'"),
    ],
    ids=[
        "float-entry",
        "null-budget",
        "non-list-clauses",
        "string-clause",
        "string-clauses",
        "string-values",
        "bool-entry",
        "bool-budget",
        "missing-clauses",
        "missing-values",
        "missing-budget",
        "huge-exponent-entry",
    ],
)
def test_malformed_instance_is_usage_error(tmp_path, capsys, bidder, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"m": 1, "bidders": [bidder]}))
    assert main(["run", "--instance", str(path)]) == 2
    err = capsys.readouterr().err
    assert "bidder 0" in err and message in err


@pytest.mark.parametrize(
    "bidder, message",
    [
        ({"kind": "xos", "clauses": [["1", "-2"]]}, "negative clause entry -2"),
        (
            {"kind": "budget_additive", "values": ["1", "2"], "budget": "-1"},
            "negative budget -1",
        ),
        ({"kind": "xos", "clauses": []}, "an XOS valuation needs at least one clause"),
        (
            {"kind": "xos", "clauses": [["1", "2"], ["1"]]},
            "clauses disagree on item count",
        ),
        ({"kind": "xos", "clauses": "1"}, '"clauses" must be a list, got str'),
        (
            {"kind": "mixed"},
            "unknown kind 'mixed' (expected \"xos\" or \"budget_additive\")",
        ),
    ],
    ids=[
        "negative-entry",
        "negative-budget",
        "no-clauses",
        "ragged-clauses",
        "string-clauses",
        "unknown-kind",
    ],
)
def test_bidder_errors_name_the_bidder_once(tmp_path, capsys, bidder, message):
    """Errors in a bidder's entry carry its index exactly once, through
    ``load_instance`` and through the CLI: the ``Valuation`` constructor's
    own errors (the first four) as well as the parser's."""
    path = tmp_path / "bad.json"
    good = {"kind": "xos", "clauses": [["1", "2"]]}
    path.write_text(json.dumps({"m": 2, "bidders": [good, bidder]}))
    with pytest.raises(InstanceShapeError) as exc:
        load_instance(str(path))
    assert str(exc.value) == f"bidder 1: {message}"
    assert main(["run", "--instance", str(path)]) == 2
    assert capsys.readouterr().err == f"error: bidder 1: {message}\n"


def test_bool_item_count_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    bidder = {"kind": "xos", "clauses": [[1]]}
    path.write_text(json.dumps({"m": True, "bidders": [bidder]}))
    assert main(["run", "--instance", str(path)]) == 2
    assert '"m" must be an integer, got True' in capsys.readouterr().err


def test_non_object_instance_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("[1]")
    assert main(["run", "--instance", str(path)]) == 2
    assert "instance file must hold a JSON object, got list" in capsys.readouterr().err


def test_non_rational_param_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["params", "--psi-min", "abc", "--psi-max", "5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "not a rational number: 'abc'" in err
    assert "Invalid literal for Fraction: 'abc'" in err


def test_huge_exponent_param_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["params", "--psi-min", "1", "--psi-max", "1e99999999"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "not a rational number: '1e99999999'" in err
    assert "exponent of '1e99999999' lies outside -" in err


def test_trace_without_seeds_is_usage_error(capsys, instance_file):
    assert main(["trace", "--instance", instance_file, "--seeds", "0"]) == 2
    assert "--seeds must be at least 1" in capsys.readouterr().err


def test_trace_negative_min_seeds_is_usage_error(capsys, instance_file):
    assert main(["trace", "--instance", instance_file, "--min-seeds", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--min-seeds must be nonnegative, got -3" in captured.err


@pytest.mark.parametrize(
    "data, message",
    [
        ({"m": 0, "bidders": []}, "the mechanism needs at least one bidder"),
        (
            {"m": 0, "bidders": [{"kind": "xos", "clauses": [[]]}]},
            "the mechanism needs at least one item",
        ),
    ],
    ids=["no-bidders", "no-items"],
)
def test_trace_rejects_what_run_rejects(tmp_path, capsys, data, message):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(data))
    for command in ("run", "trace", "truthtest"):
        assert main([command, "--instance", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


@pytest.mark.parametrize("stage", ["run", "trace"])
def test_trace_invariant_violation_names_its_seed(
    monkeypatch, capsys, instance_file, stage
):
    # A fault planted at seed 3, in the mechanism run or in its trace, is
    # reported with that seed, and --seeds 4 replays it.
    real_run, real_trace = cli.price_learning_mechanism, cli.build_trace
    seeds = []

    def run(bidders, m, psi_min, psi_max, tape):
        seeds.append(tape.seed)
        if stage == "run" and tape.seed == 3:
            raise InvariantViolationError("planted")
        return real_run(bidders, m, psi_min, psi_max, tape)

    def trace(run, optimal, tree):
        if stage == "trace" and seeds[-1] == 3:
            raise InvariantViolationError("planted")
        return real_trace(run, optimal, tree)

    monkeypatch.setattr(cli, "price_learning_mechanism", run)
    monkeypatch.setattr(cli, "build_trace", trace)
    for count in ("20", "4"):
        assert main(["trace", "--instance", instance_file, "--seeds", count]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "invariant violation: seed 3: planted\n"
    assert main(["trace", "--instance", instance_file, "--seeds", "3"]) == 0


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--seeds", "0"], "seeds must be at least 1, got 0"),
        (["--seeds", "-1"], "seeds must be at least 1, got -1"),
        (["--deviations", "-2"], "deviations must be nonnegative, got -2"),
    ],
    ids=["zero-seeds", "negative-seeds", "negative-deviations"],
)
def test_truthtest_without_runs_is_usage_error(capsys, instance_file, flags, message):
    assert main(["truthtest", "--instance", instance_file, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


# A spec field set to this is left out of the spec.
MISSING = object()


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"n": MISSING}, 'bad generator spec: missing field "n"'),
        ({"m": MISSING}, 'bad generator spec: missing field "m"'),
        ({"n": 2.5}, "n must be an integer, got 2.5"),
        ({"m": "2"}, "m must be an integer, got '2'"),
        ({"n": True}, "n must be an integer, got True"),
        ({"seed": "x"}, "seed must be an integer, got 'x'"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"clause_count": [1.5, 2]}, "invalid clause count range (1.5, 2)"),
        ({"clause_count": [1, 2, 3]}, "clause count must be a pair of integers"),
        ({"clause_count": 3}, "bad generator spec"),
        ({"clause_count": "23"}, '"clause_count" must be a list, got str'),
        ({"value_range": "19"}, '"value_range" must be a list, got str'),
        ({"value_range": ["1/0", "5"]}, '"value_range": Fraction(1, 0)'),
        ({"value_range": ["1", "1e400"]}, "value_range lies outside the float"),
        ({"value_range": ["1e-400", "1"]}, "value_range lies outside the float"),
        ({"value_range": ["1", "1e99999999"]}, "exponent of '1e99999999' lies"),
        ({"value_range": [True, 5]}, '"value_range": expected int, str'),
        ({"value_range": ["1", "2", "3"]}, '"value_range" must hold two numbers, got 3'),
        ({"value_range": []}, '"value_range" must hold two numbers, got 0'),
        ({"value_range": ["5", "1"]}, "0 < lo <= hi, got 5 and 1"),
        ([1], "generator spec must hold a JSON object, got list"),
    ],
    ids=[
        "missing-n",
        "missing-m",
        "float-n",
        "string-m",
        "bool-n",
        "string-seed",
        "float-seed",
        "float-clause-count",
        "triple-clause-count",
        "int-clause-count",
        "string-clause-count",
        "string-value-range",
        "zero-denominator-value-range",
        "overflowing-value-range",
        "underflowing-value-range",
        "huge-exponent-value-range",
        "bool-value-range",
        "triple-value-range",
        "empty-value-range",
        "reversed-value-range",
        "list-spec",
    ],
)
def test_bad_generator_spec_is_usage_error(tmp_path, capsys, fields, message):
    spec_path = tmp_path / "spec.json"
    out_path = tmp_path / "gen.json"
    if isinstance(fields, list):
        spec = fields
    else:
        spec = {"n": 2, "m": 2, **fields}
        spec = {name: value for name, value in spec.items() if value is not MISSING}
    spec_path.write_text(json.dumps(spec))
    assert main(["gen", "--spec", str(spec_path), "-o", str(out_path)]) == 2
    assert message in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["run", "trace", "truthtest", "gen"])
@pytest.mark.parametrize(
    "content, message",
    [
        (b'\xff\xfe{"m": 1}', "codec can't decode byte 0xff"),
        (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
        (b'{"n": ' + b"1" * 5000 + b', "m": 1}', "Exceeds the limit (4300 digits)"),
        (b'{"m": 1, "bidders": [}', "Expecting value"),
    ],
    ids=["non-utf8", "deeply-nested", "huge-integer", "not-json"],
)
def test_unreadable_json_file_is_usage_error(
    tmp_path, capsys, command, content, message
):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    if command == "gen":
        argv = ["gen", "--spec", str(path), "-o", str(tmp_path / "gen.json")]
        kind = "unreadable generator spec"
    else:
        argv = [command, "--instance", str(path)]
        kind = "unreadable instance file"
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert kind in err and message in err
