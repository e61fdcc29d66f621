"""The effectiveness matrix: one dense, once-checked layout for the analysis."""

from __future__ import annotations

import math
from functools import reduce
from itertools import product
from operator import add
from typing import Iterable, Sequence

AXES = ("topic", "system", "profile")


def offsets(sizes: Sequence[int], strides: Sequence[int]) -> list[int]:
    """sum(i[a] * strides[a]) for each index tuple i over `sizes`, in C order."""
    out = [0]
    for size, stride in zip(sizes, strides):
        out = [o + i * stride for o in out for i in range(size)]
    return out


def _imbalance(cells: dict, levels: list) -> str:
    """What keeps `cells` from being complete and balanced over AXES: the
    first missing combination in level order, else the first combination
    in insertion order with the fewest variants."""
    counts: dict = {}
    for key in cells:
        counts[key[:3]] = counts.get(key[:3], 0) + 1
    for combo in product(*levels):
        if combo not in counts:
            return f"missing cell {dict(zip(AXES, combo))}"
    bad = min(counts, key=counts.get)
    return f"cell {dict(zip(AXES, bad))} has {counts[bad]} observations, others differ"


class EffectivenessMatrix:
    """NDCG@k cells over (topic, system, profile, variant), complete and
    balanced: every (topic, system, profile) combination holds the same
    number of variants.

    `levels` holds each axis's sorted levels, also named `topics`,
    `systems` and `profiles`. `values` is the flat C-order list over
    (topic, system, profile, variant), a combination's variants in index
    order, and `keys` the (topic, system, profile, index) key of each
    value. Build one with `from_scores`, which checks every cell and the
    balance once.
    """

    __slots__ = ("levels", "topics", "systems", "profiles", "variants", "keys", "values")

    def __init__(self, levels: tuple, keys: list, values: list):
        self.levels = levels
        self.topics, self.systems, self.profiles = levels
        self.variants = len(values) // math.prod(map(len, levels))
        self.keys = keys
        self.values = values

    @classmethod
    def from_scores(
        cls, scores: Iterable[tuple[str, str, str, int, float]]
    ) -> "EffectivenessMatrix":
        """The matrix of (topic, system, profile, index, value) cells, in
        any order. Raises ValueError for a value outside [0, 1], a
        duplicate key, a missing (topic, system, profile) combination or
        unequal variant counts."""
        cells: dict[tuple[str, str, str, int], float] = {}
        for topic, system, profile, index, value in scores:
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"cell value {value} outside [0, 1]")
            key = (topic, system, profile, index)
            if key in cells:
                raise ValueError(f"duplicate cell {key}")
            cells[key] = value
        if not cells:
            raise ValueError("no cells")
        keys = sorted(cells)
        levels = tuple(sorted({key[a] for key in keys}) for a in range(3))
        combos = list(product(*levels))
        r = len(keys) // len(combos)
        # Sorted keys are balanced when each run of r starts and ends in
        # its own combination.
        if (
            len(keys) != r * len(combos)
            or [key[:3] for key in keys[::r]] != combos
            or [key[:3] for key in keys[r - 1 :: r]] != combos
        ):
            raise ValueError(_imbalance(cells, levels))
        return cls(levels, keys, [cells[key] for key in keys])

    def __len__(self) -> int:
        return len(self.values)

    def items(self):
        return zip(self.keys, self.values)

    def group_means(self, axis: str) -> dict:
        """The mean of each level of `axis`, levels sorted. Each level sums
        its cells left to right in C order, whatever order they came in."""
        pos = AXES.index(axis)
        levels = self.levels[pos]
        run = math.prod(map(len, self.levels[pos + 1 :])) * self.variants
        sums = [0.0] * len(levels)
        for block, start in enumerate(range(0, len(self.values), run)):
            j = block % len(levels)
            sums[j] = reduce(add, self.values[start : start + run], sums[j])
        count = len(self.values) // len(levels)
        return {lv: s / count for lv, s in zip(levels, sums)}

    def for_profile(self, profile: str) -> "EffectivenessMatrix":
        """The one-profile matrix of `profile`'s cells, taken by index."""
        if profile not in self.profiles:
            raise ValueError(f"no cells for profile {profile!r}")
        r = self.variants
        step = len(self.profiles) * r
        take = offsets((len(self.values) // step, r), (step, 1))
        start = self.profiles.index(profile) * r
        return EffectivenessMatrix(
            (self.topics, self.systems, [profile]),
            [self.keys[start + i] for i in take],
            [self.values[start + i] for i in take],
        )

    def arranged(self, axes: Sequence[int]) -> tuple[list, list[int]]:
        """The values as a C-order list over (`axes`..., replicate), and
        that shape. `axes` are ascending axis numbers; the replicate runs
        over the other axes and the variants in C order."""
        shape = [len(lv) for lv in self.levels] + [self.variants]
        order = list(axes) + [a for a in range(4) if a not in axes]
        values = self.values
        if order != sorted(order):
            strides = [shape[1] * shape[2] * shape[3], shape[2] * shape[3], shape[3], 1]
            picks = offsets([shape[a] for a in order], [strides[a] for a in order])
            values = [values[i] for i in picks]
        dims = [shape[a] for a in axes]
        return values, dims + [len(values) // math.prod(dims)]
