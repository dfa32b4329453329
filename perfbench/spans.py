"""Spans around auctionlab's public functions, recorded from outside it.

Callers bind names at import time (``from .valuations import demand_query``),
so a function is wrapped under every ``auctionlab.*`` module attribute that
resolves to it, not only in its defining module. Spans (name, start, end,
parent) are kept in flat int64 arrays and written out when the run ends.
A span's self time is its duration minus the time of its child spans.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from collections.abc import Collection

# (defining module, function); the span is named "<module>.<function>".
FUNCTIONS = (
    ("valuations", "value_query"),
    ("valuations", "demand_query"),
    ("oracle", "brute_force_opt"),
    ("oracle", "welfare"),
    ("price_tree", "solve_parameters"),
    ("price_tree", "build_bins"),
    ("price_tree", "build_modified_tree"),
    ("price_tree", "canonical_vectors"),
    ("auction", "fixed_price_auction"),
    ("auction", "second_price_grand_bundle"),
    ("auction", "greedy_marginal_value"),
    ("mechanism", "final_mechanism"),
    ("mechanism", "price_learning_mechanism"),
    ("trace", "build_trace"),
    ("trace", "check_learnable_or_allocatable"),
    ("harness", "generate_instance"),
    ("harness", "run_experiment"),
    ("harness", "run_trial"),
    ("harness", "truthfulness_report"),
    ("harness", "report_to_csv"),
)
COIN_TAPE_METHODS = (
    "second_price_branch",
    "sample_statistics_group",
    "tree_parity",
    "partition_permutation",
    "stop_coin",
    "pick_auction",
)

# The per-layer metrics the traced run prints, as "<layer>.<quantity>".
METRICS = {
    "valuations.value_query": ("calls", "self_s", "distinct_ratio"),
    "valuations.demand_query": ("calls", "self_s", "masks", "distinct_ratio"),
    "oracle.brute_force_opt": ("calls", "self_s", "distinct_ratio"),
    "oracle.welfare": ("calls", "self_s"),
    "price_tree": ("calls", "self_s"),
    "auction.fixed_price_auction": ("calls", "self_s"),
    "auction.second_price_grand_bundle": ("calls", "self_s"),
    "auction.greedy_marginal_value": ("calls", "self_s"),
    "mechanism.final_mechanism": ("calls", "self_s"),
    "mechanism.price_learning_mechanism": ("calls", "self_s"),
    "mechanism.coin_tape": ("self_s",),
    "trace.build_trace": ("calls", "self_s"),
    "trace.check_learnable_or_allocatable": ("self_s",),
    "harness": ("self_s",),
    "harness.generate_instance": ("self_s",),
}
# Layers that sum several spans; every other layer is the span of its name.
GROUPS = {
    "price_tree": tuple(f"price_tree.{f}" for m, f in FUNCTIONS if m == "price_tree"),
    "mechanism.coin_tape": tuple(f"mechanism.coin_tape.{f}" for f in COIN_TAPE_METHODS),
    "harness": tuple(
        f"harness.{f}" for m, f in FUNCTIONS if m == "harness" and f != "generate_instance"
    ),
}
UNITS = {"calls": "count", "self_s": "s", "masks": "count", "distinct_ratio": "ratio"}


def _unwrap(fn):
    while hasattr(fn, "__wrapped__"):
        fn = fn.__wrapped__
    return fn


def _arg(args, kwargs, position, name, default=None):
    return args[position] if len(args) > position else kwargs.get(name, default)


def _mask(items) -> int:
    if not isinstance(items, Collection):
        raise TypeError("traced calls must pass item collections, not iterators")
    mask = 0
    for j in items:
        mask |= 1 << j
    return mask


class Tracer:
    """Wraps the public functions of an imported auctionlab and records spans.

    ``value_query``, ``demand_query`` and ``brute_force_opt`` also record
    whether their arguments were seen before in the run; valuations count as
    the same when they are equal. That bookkeeping is timed and left out of
    every self time. ``demand_query`` adds up its work count, 2^|allowed|
    bundles per call.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name_col = array("q")
        self.parent_col = array("q")
        self.start_col = array("q")
        self.end_col = array("q")
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self._valuation_ids: dict[int, tuple[object, int]] = {}
        self._by_value: dict[object, int] = {}
        self.seen: dict[str, set] = {}
        self.key_ns: dict[str, int] = {}
        self.masks = 0

    # -- installing -----------------------------------------------------
    def install(self) -> None:
        modules = [
            mod for name, mod in list(sys.modules.items())
            if name == "auctionlab" or name.startswith("auctionlab.")
        ]
        keys = {
            "valuations.value_query": self._value_key,
            "valuations.demand_query": self._demand_key,
            "oracle.brute_force_opt": self._oracle_key,
        }
        for module_name, fn_name in FUNCTIONS:
            original = getattr(sys.modules[f"auctionlab.{module_name}"], fn_name)
            span = f"{module_name}.{fn_name}"
            for mod in modules:
                bound = getattr(mod, fn_name, None)
                if bound is not None and _unwrap(bound) is original:
                    self._patch(mod, fn_name, self.wrap(span, bound, keys.get(span)))
        tape = sys.modules["auctionlab.mechanism"].CoinTape
        for method in COIN_TAPE_METHODS:
            fn = getattr(tape, method)
            self._patch(tape, method, self.wrap(f"mechanism.coin_tape.{method}", fn))

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def wrap(self, span: str, fn, key=None):
        name_id = len(self.names)
        self.names.append(span)
        seen = self.seen.setdefault(span, set())
        excluded = self.key_ns
        excluded.setdefault(span, 0)
        clock = time.perf_counter_ns
        stack = self._stack
        names, parents = self.name_col, self.parent_col
        starts, ends = self.start_col, self.end_col

        def traced(*args, **kwargs):
            start = clock()
            if key is not None:
                seen.add(key(args, kwargs))
                excluded[span] += clock() - start
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(start)
            ends.append(0)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                ends[index] = clock()

        traced.__wrapped__ = fn
        return traced

    # -- argument keys --------------------------------------------------
    def _valuation_id(self, valuation) -> int:
        entry = self._valuation_ids.get(id(valuation))
        if entry is None:
            vid = self._by_value.setdefault(valuation, len(self._by_value))
            # Holding the object keeps its id from being reused.
            entry = self._valuation_ids[id(valuation)] = (valuation, vid)
        return entry[1]

    def _value_key(self, args, kwargs):
        valuation = _arg(args, kwargs, 0, "valuation")
        return self._valuation_id(valuation), _mask(_arg(args, kwargs, 1, "items"))

    def _demand_key(self, args, kwargs):
        valuation = _arg(args, kwargs, 0, "valuation")
        prices = _arg(args, kwargs, 1, "prices")
        allowed = _arg(args, kwargs, 2, "allowed")
        size = len(prices) if allowed is None else len(allowed)
        self.masks += 1 << size
        mask = -1 if allowed is None else _mask(allowed)
        return self._valuation_id(valuation), tuple(prices), mask

    def _oracle_key(self, args, kwargs):
        valuations = _arg(args, kwargs, 0, "valuations")
        m = _arg(args, kwargs, 1, "m")
        return tuple(self._valuation_id(v) for v in valuations), m

    # -- results --------------------------------------------------------
    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit)."""
        import numpy as np

        name = np.frombuffer(self.name_col, dtype=np.int64)
        parent = np.frombuffer(self.parent_col, dtype=np.int64)
        duration = (
            np.frombuffer(self.end_col, dtype=np.int64)
            - np.frombuffer(self.start_col, dtype=np.int64)
        ).astype(np.float64)
        nested = parent >= 0
        children = np.bincount(
            parent[nested], weights=duration[nested], minlength=len(duration)
        )
        own = duration - children
        width = len(self.names)
        calls_by_id = np.bincount(name, minlength=width)
        self_by_id = np.bincount(name, weights=own, minlength=width)
        calls: dict[str, int] = {}
        self_ns: dict[str, float] = {}
        for i, span in enumerate(self.names):
            calls[span] = calls.get(span, 0) + int(calls_by_id[i])
            self_ns[span] = self_ns.get(span, 0.0) + float(self_by_id[i])

        out = {}
        for layer, quantities in METRICS.items():
            spans = GROUPS.get(layer, (layer,))
            layer_calls = sum(calls.get(s, 0) for s in spans)
            for quantity in quantities:
                if quantity == "calls":
                    value = layer_calls
                elif quantity == "self_s":
                    value = sum(self_ns.get(s, 0.0) - self.key_ns[s] for s in spans) / 1e9
                elif quantity == "masks":
                    value = self.masks
                else:
                    value = len(self.seen[spans[0]]) / layer_calls if layer_calls else 0.0
                out[f"{layer}.{quantity}"] = (value, UNITS[quantity])
        return out

    def write(self, path: str) -> None:
        """Save the spans as a NumPy archive: names, then one column each."""
        import numpy as np

        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_col, dtype=np.int64),
            parent=np.frombuffer(self.parent_col, dtype=np.int64),
            start_ns=np.frombuffer(self.start_col, dtype=np.int64),
            end_ns=np.frombuffer(self.end_col, dtype=np.int64),
        )
