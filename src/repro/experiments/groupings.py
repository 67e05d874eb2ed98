"""Program groupings for the multiprogrammed experiments (Table 2).

Running all combinations of ten programs in groups of 2, 3 and 4 would be too
expensive, so the paper selects a pseudo-random subset: five companion
programs for the 2-thread experiments, two additional programs for the
3-thread experiments and one final program for the 4-thread experiments
(Table 2).  The speedup of program *X* is then the average over:

* 5 two-thread runs      — X paired with each column-2 program,
* 10 three-thread runs   — X with every (column-2, column-3) pair,
* 10 four-thread runs    — X with every (column-2, column-3, column-4) triple.

The companion identities in the scanned Table 2 are not fully legible; the
sets below are consistent with the examples given in the text (section 6.1
averages HYDRO2D over runs with itself, BDNA, SU2COR, TOMCATV and SWM256).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.errors import ExperimentError
from repro.workloads.profiles import get_profile

__all__ = ["GroupingTable", "DEFAULT_GROUPING_TABLE", "grouping_plan"]


@dataclass(frozen=True)
class GroupingTable:
    """The three companion columns of Table 2."""

    two_thread_companions: tuple[str, ...]
    three_thread_companions: tuple[str, ...]
    four_thread_companions: tuple[str, ...]

    def __post_init__(self) -> None:
        for name in (
            *self.two_thread_companions,
            *self.three_thread_companions,
            *self.four_thread_companions,
        ):
            get_profile(name)  # raises for unknown programs

    def companions_for(self, num_contexts: int) -> list[tuple[str, ...]]:
        """All companion tuples used for runs with ``num_contexts`` contexts."""
        if num_contexts == 2:
            return [(c,) for c in self.two_thread_companions]
        if num_contexts == 3:
            return [
                (c2, c3)
                for c2, c3 in itertools.product(
                    self.two_thread_companions, self.three_thread_companions
                )
            ]
        if num_contexts == 4:
            return [
                (c2, c3, c4)
                for c2, c3, c4 in itertools.product(
                    self.two_thread_companions,
                    self.three_thread_companions,
                    self.four_thread_companions,
                )
            ]
        raise ExperimentError(
            f"the grouping methodology covers 2..4 contexts, got {num_contexts}"
        )

    def as_rows(self) -> list[dict[str, str]]:
        """Table 2 in row form (for the report / benchmark harness)."""
        rows = []
        width = max(
            len(self.two_thread_companions),
            len(self.three_thread_companions),
            len(self.four_thread_companions),
        )
        for index in range(width):
            rows.append(
                {
                    "2 threads": _cell(self.two_thread_companions, index),
                    "3 threads": _cell(self.three_thread_companions, index),
                    "4 threads": _cell(self.four_thread_companions, index),
                }
            )
        return rows


def _cell(values: tuple[str, ...], index: int) -> str:
    return values[index] if index < len(values) else ""


#: The grouping companions used by this reproduction (consistent with the
#: legible examples of the paper: hydro2d's 2-thread runs pair it with itself,
#: bdna, su2cor, tomcatv and swm256; the 3- and 4-thread examples add flo52,
#: nasa7/swm256-style highly-vectorized codes and arc2d).
DEFAULT_GROUPING_TABLE = GroupingTable(
    two_thread_companions=("hydro2d", "bdna", "su2cor", "tomcatv", "swm256"),
    three_thread_companions=("flo52", "nasa7"),
    four_thread_companions=("arc2d",),
)


def grouping_plan(
    program: str,
    *,
    table: GroupingTable = DEFAULT_GROUPING_TABLE,
    max_groups_per_size: int | None = None,
) -> dict[int, list[tuple[str, ...]]]:
    """All multiprogram groups used to evaluate ``program``.

    Each group is a full tuple of program names, with ``program`` on hardware
    context 0.  ``max_groups_per_size`` truncates the number of companion
    tuples per context count — used by the quick benchmark harness so that a
    representative subset can be run in seconds (the paper itself notes its
    scheme is "not complete" but sufficient to detect outliers).
    """
    get_profile(program)
    plan: dict[int, list[tuple[str, ...]]] = {}
    for num_contexts in (2, 3, 4):
        companions = table.companions_for(num_contexts)
        if max_groups_per_size is not None:
            companions = companions[:max_groups_per_size]
        plan[num_contexts] = [(program, *companion) for companion in companions]
    return plan
