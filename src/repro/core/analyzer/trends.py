"""Trend analysis over the recorded statistics time series.

The paper's third analysis level "interprets the data's meaning,
identifies trends and patterns and starts predicting potential problems
in advance" (left as an outlook in section VI).  This module implements
it: least-squares fits over any statistics field, each able to say when
its line reaches a given value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.analyzer.workload_view import statistics_sample
from repro.core.ima import STATISTIC_FIELDS


@dataclass(frozen=True)
class Trend:
    """A fitted linear trend over one statistics field."""

    field: str
    samples: int
    slope_per_second: float
    intercept: float
    first_timestamp: float
    last_timestamp: float
    last_value: float
    r_squared: float

    @property
    def rising(self) -> bool:
        return self.slope_per_second > 0


def fit_trend(field: str,
              points: Sequence[tuple[float, float]]) -> Trend | None:
    """Least-squares line through (timestamp, value) points."""
    if len(points) < 2:
        return None
    ordered = sorted(points)
    t0 = ordered[0][0]
    xs = [t - t0 for t, _ in ordered]
    ys = [v for _, v in ordered]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    ss_xx = sum((x - mean_x) ** 2 for x in xs)
    ss_xy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    ss_yy = sum((y - mean_y) ** 2 for y in ys)
    if ss_xx == 0:
        return None
    slope = ss_xy / ss_xx
    intercept = mean_y - slope * mean_x
    if ss_yy == 0:
        r_squared = 1.0
    else:
        residuals = sum(
            (y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
        r_squared = max(0.0, 1.0 - residuals / ss_yy)
    return Trend(
        field=field,
        samples=n,
        slope_per_second=slope,
        intercept=intercept,
        first_timestamp=t0,
        last_timestamp=ordered[-1][0],
        last_value=ordered[-1][1],
        r_squared=r_squared,
    )


def trends_from_statistics(rows: Sequence[tuple],
                           fields: Sequence[str] = STATISTIC_FIELDS,
                           ) -> dict[str, Trend]:
    """Fit every requested field of statistics rows, in any shape
    :func:`~repro.core.analyzer.workload_view.statistics_sample` reads
    (``WorkloadView.statistics``, ``wl_statistics``, ``ima_statistics``).
    """
    position = {name: i + 1 for i, name in enumerate(STATISTIC_FIELDS)}
    series: dict[str, list[tuple[float, float]]] = {f: [] for f in fields}
    for row in rows:
        sample = statistics_sample(row)
        for field in fields:
            series[field].append((sample[0], float(sample[position[field]])))
    fitted: dict[str, Trend] = {}
    for field, points in series.items():
        trend = fit_trend(field, points)
        if trend is not None:
            fitted[field] = trend
    return fitted
