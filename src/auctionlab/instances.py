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
from typing import IO, Union

from .errors import InstanceShapeError
from .valuations import Valuation, XosValuation, budget_additive, xos
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


def instance_to_dict(instance: Instance) -> dict:
    bidders = []
    for v in instance.valuations:
        if isinstance(v, XosValuation):
            bidders.append(
                {
                    "kind": "xos",
                    "clauses": [
                        [format_rational(x) for x in clause.item_values]
                        for clause in v.clauses
                    ],
                }
            )
        else:
            bidders.append(
                {
                    "kind": "budget_additive",
                    "values": [format_rational(x) for x in v.item_values],
                    "budget": format_rational(v.budget),
                }
            )
    return {"m": instance.item_count, "bidders": bidders}


def instance_from_dict(data: dict) -> Instance:
    try:
        m = data["m"]
        raw_bidders = data["bidders"]
    except (KeyError, TypeError) as exc:
        raise InstanceShapeError(f"instance is missing field {exc}") from None
    if not isinstance(m, int):
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
                valuations.append(xos(*entry["clauses"]))
            elif kind == "budget_additive":
                valuations.append(budget_additive(entry["values"], entry["budget"]))
            else:
                raise InstanceShapeError(
                    f'bidder {i}: unknown kind {kind!r} '
                    '(expected "xos" or "budget_additive")'
                )
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
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
    if isinstance(fp, str):
        with open(fp) as handle:
            return instance_from_dict(json.load(handle))
    return instance_from_dict(json.load(fp))
