"""Byte-identity of the CLI outputs on two fixed generated instances.

The files under ``tests/golden/`` hold the instance files and what ``run``,
``trace`` and ``truthtest`` print and write for them. Any change to
allocations, payments, tape draws, the oracle or the report formatting shows
up here as a diff. After a change that is meant to alter outputs, rewrite
them with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from auctionlab.cli import main
from auctionlab.harness import GeneratorSpec, generate_instance
from auctionlab.instances import dump_instance

GOLDEN = Path(__file__).with_name("golden")
SPECS = {
    "xos-6x8": GeneratorSpec(6, 8, "xos-random", seed=11),
    "budget-5x7": GeneratorSpec(5, 7, "budget-additive", seed=12),
}


def instance_text(name: str) -> str:
    buf = io.StringIO()
    dump_instance(generate_instance(SPECS[name]), buf)
    return buf.getvalue()


def produce(name: str, instance_path: str) -> dict[str, str]:
    """Every golden output of one instance, by file name."""
    out: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        commands = {
            "run": ["--trials", "100"],
            "trace": ["--seeds", "60"],
            "truthtest": ["--seeds", "5", "--deviations", "4"],
        }
        for command, extra in commands.items():
            argv = [command, "--instance", instance_path, *extra]
            csv_path = Path(tmp) / f"{command}.csv"
            if command != "truthtest":
                argv += ["-o", str(csv_path)]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main(argv)
            assert code == 0, f"{command} on {name} exited {code}"
            out[f"{name}.{command}.json"] = stdout.getvalue()
            if csv_path.exists():
                out[f"{name}.{command}.csv"] = csv_path.read_text()
    return out


@pytest.mark.parametrize("name", sorted(SPECS))
def test_generator_reproduces_instance(name):
    assert instance_text(name) == (GOLDEN / f"{name}.instance.json").read_text()


@pytest.mark.parametrize("name", sorted(SPECS))
def test_cli_outputs_byte_identical(name):
    outputs = produce(name, str(GOLDEN / f"{name}.instance.json"))
    assert len(outputs) == 5
    for file_name, text in outputs.items():
        assert text == (GOLDEN / file_name).read_text(), file_name


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in SPECS:
        path = GOLDEN / f"{name}.instance.json"
        path.write_text(instance_text(name))
        for file_name, text in produce(name, str(path)).items():
            (GOLDEN / file_name).write_text(text)
    sys.exit(0)
