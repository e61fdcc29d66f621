"""The effectiveness matrix and the balance check the analysis needs."""

from __future__ import annotations

import math
from itertools import product
from typing import Iterable, Sequence

AXES = ("topic", "system", "profile")


class EffectivenessMatrix:
    """NDCG@k cells keyed by (topic, system, profile, variant index)."""

    def __init__(self):
        self._cells: dict[tuple[str, str, str, int], float] = {}

    def set(self, topic: str, system: str, profile: str, index: int, value: float) -> None:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"cell value {value} outside [0, 1]")
        key = (topic, system, profile, index)
        if key in self._cells:
            raise ValueError(f"duplicate cell {key}")
        self._cells[key] = value

    def __len__(self) -> int:
        return len(self._cells)

    def items(self):
        return self._cells.items()

    @classmethod
    def from_scores(
        cls, scores: Iterable[tuple[str, str, str, int, float]]
    ) -> "EffectivenessMatrix":
        matrix = cls()
        for topic, system, profile, index, value in scores:
            matrix.set(topic, system, profile, index, value)
        return matrix

    def _axis_values(self, axis: int) -> list:
        return sorted({key[axis] for key in self._cells})

    @property
    def topics(self) -> list[str]:
        return self._axis_values(0)

    @property
    def systems(self) -> list[str]:
        return self._axis_values(1)

    @property
    def profiles(self) -> list[str]:
        return self._axis_values(2)

    def group_means(self, axis: str) -> tuple[dict, dict]:
        """Mean and cell count for each level of `axis`, levels sorted.

        Each level sums its cells in insertion order, so every caller
        gets the same floats for the same matrix.
        """
        pos = AXES.index(axis)
        sums: dict = {}
        counts: dict = {}
        for key, value in self._cells.items():
            sums[key[pos]] = sums.get(key[pos], 0.0) + value
            counts[key[pos]] = counts.get(key[pos], 0) + 1
        levels = sorted(sums)
        return {lv: sums[lv] / counts[lv] for lv in levels}, {lv: counts[lv] for lv in levels}

    def subset(self, profiles: Iterable[str]) -> "EffectivenessMatrix":
        """The cells of the given profiles, in insertion order."""
        keep = set(profiles)
        out = EffectivenessMatrix()
        out._cells = {key: v for key, v in self._cells.items() if key[2] in keep}
        return out

    def balanced_cells(self, factors: Sequence[str]) -> tuple[list, dict]:
        """Each factor's sorted levels and the cells of each combination.

        A combination maps to its (replicate key, value) pairs sorted by
        replicate key. Raises when a factor-level combination is missing
        or replicate counts differ between combinations.
        """
        factor_axes = [AXES.index(f) for f in factors]
        levels = [self._axis_values(a) for a in factor_axes]
        buckets: dict[tuple, list] = {}
        for key, value in self._cells.items():
            combo = tuple(key[a] for a in factor_axes)
            rep_key = tuple(v for a, v in enumerate(key) if a not in factor_axes)
            buckets.setdefault(combo, []).append((rep_key, value))
        if len(buckets) != math.prod(len(level) for level in levels):
            for cell in product(*levels):
                if cell not in buckets:
                    raise ValueError(f"missing cell {dict(zip(factors, cell))}")
        counts = {len(vs) for vs in buckets.values()}
        if len(counts) != 1:
            bad = min(buckets, key=lambda c: len(buckets[c]))
            raise ValueError(
                f"unbalanced design: cell {dict(zip(factors, bad))} has "
                f"{len(buckets[bad])} observations, others differ"
            )
        for values in buckets.values():
            values.sort(key=lambda pair: pair[0])
        return levels, buckets
