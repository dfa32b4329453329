"""Instance files: item count plus one valuation per bidder.

Schema (JSON, numbers carried as decimal strings, never binary floats):

    {
      "m": 3,
      "bidders": [
        {"kind": "xos", "clauses": [["1", "2.5", "0"], ["3", "0", "1"]]},
        {"kind": "budget_additive", "values": ["2", "2", "2"], "budget": "5"}
      ]
    }

Rationals without a finite decimal expansion are written as "p/q"; the parser
accepts both forms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Union

from .errors import InstanceShapeError
from .valuations import Valuation, budget_additive, xos
from .rationals import format_rational


@dataclass(frozen=True)
class Instance:
    item_count: int
    valuations: tuple[Valuation, ...]

    def __post_init__(self) -> None:
        if self.item_count < 0:
            raise InstanceShapeError(f"negative item count {self.item_count}")
        for i, v in enumerate(self.valuations):
            if v.item_count != self.item_count:
                raise InstanceShapeError(
                    f"bidder {i} has {v.item_count} item values, "
                    f"instance has {self.item_count} items"
                )

    @property
    def bidder_count(self) -> int:
        return len(self.valuations)

    def bidders(self) -> list[tuple[int, Valuation]]:
        """The (id, valuation) pairs the mechanism and auctions consume."""
        return list(enumerate(self.valuations))


def valuation_to_dict(v: Valuation) -> dict:
    """One bidder entry of the instance format."""
    rows = [[format_rational(Fraction(x, v.scale)) for x in row] for row in v.rows]
    if v.cap is None:
        return {"kind": "xos", "clauses": rows}
    return {
        "kind": "budget_additive",
        "values": rows[0],
        "budget": format_rational(Fraction(v.cap, v.scale)),
    }


def instance_to_dict(instance: Instance) -> dict:
    return {
        "m": instance.item_count,
        "bidders": [valuation_to_dict(v) for v in instance.valuations],
    }


def _list_field(value: object, name: str) -> list:
    """``value`` if it is a JSON list; anything else (a string above all,
    which would be read character by character) is an instance error."""
    if not isinstance(value, list):
        raise InstanceShapeError(f"{name} must be a list, got {type(value).__name__}")
    return value


def instance_from_dict(data: dict) -> Instance:
    if not isinstance(data, dict):
        raise InstanceShapeError(
            f"instance file must hold a JSON object, got {type(data).__name__}"
        )
    try:
        m = data["m"]
        raw_bidders = data["bidders"]
    except (KeyError, TypeError) as exc:
        raise InstanceShapeError(f"instance is missing field {exc}") from None
    if not isinstance(m, int) or isinstance(m, bool):
        raise InstanceShapeError(f'"m" must be an integer, got {m!r}')
    if not isinstance(raw_bidders, list):
        raise InstanceShapeError('"bidders" must be a list')
    valuations: list[Valuation] = []
    for i, entry in enumerate(raw_bidders):
        if not isinstance(entry, dict):
            raise InstanceShapeError(f"bidder {i} must be an object")
        kind = entry.get("kind")
        try:
            if kind == "xos":
                clauses = _list_field(entry["clauses"], '"clauses"')
                rows = [_list_field(c, f"clause {k}") for k, c in enumerate(clauses)]
                valuations.append(xos(*rows))
            elif kind == "budget_additive":
                values = _list_field(entry["values"], '"values"')
                valuations.append(budget_additive(values, entry["budget"]))
            else:
                raise InstanceShapeError(
                    f'unknown kind {kind!r} (expected "xos" or "budget_additive")'
                )
        except KeyError as exc:
            raise InstanceShapeError(f"bidder {i} is missing field {exc}") from None
        except (InstanceShapeError, TypeError, ValueError, ZeroDivisionError) as exc:
            # One prefix for every error of the entry, the valuation's own
            # shape errors (a negative entry, say) included.
            raise InstanceShapeError(f"bidder {i}: {exc}") from None
    return Instance(m, tuple(valuations))


def dump_instance(instance: Instance, fp: Union[str, IO[str]]) -> None:
    data = instance_to_dict(instance)
    if isinstance(fp, str):
        with open(fp, "w") as handle:
            json.dump(data, handle, indent=2)
            handle.write("\n")
    else:
        json.dump(data, fp, indent=2)
        fp.write("\n")


def load_instance(fp: Union[str, IO[str]]) -> Instance:
    try:
        if isinstance(fp, str):
            with open(fp) as handle:
                data = json.load(handle)
        else:
            data = json.load(fp)
    except (ValueError, RecursionError) as exc:
        raise InstanceShapeError(f"unreadable instance file: {exc}") from None
    return instance_from_dict(data)
