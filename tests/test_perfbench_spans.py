"""The traced benchmark wraps auctionlab's functions by name: every name it
lists must still exist, or the traced run crashes before it measures."""

import importlib
import importlib.util
import sys
from pathlib import Path

from auctionlab.mechanism import CoinTape

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    # Read the benchmark's module without leaving bytecode beside it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve(monkeypatch):
    spans = load_spans(monkeypatch)
    for module_name, fn_name in spans.FUNCTIONS:
        module = importlib.import_module(f"auctionlab.{module_name}")
        assert callable(getattr(module, fn_name, None)), (module_name, fn_name)
    for method in spans.COIN_TAPE_METHODS:
        assert callable(getattr(CoinTape, method, None)), method


def test_traced_functions_are_not_wrapped(monkeypatch):
    """The tracer patches a function only where it finds the original
    itself, so a decorated one (``lru_cache`` sets ``__wrapped__``) would
    never be traced and its span would read 0 calls."""
    spans = load_spans(monkeypatch)
    for module_name, fn_name in spans.FUNCTIONS:
        fn = getattr(importlib.import_module(f"auctionlab.{module_name}"), fn_name)
        assert not hasattr(fn, "__wrapped__"), (module_name, fn_name)
