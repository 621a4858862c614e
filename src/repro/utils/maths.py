"""Numeric helpers shared by metrics and experiment harnesses."""

from __future__ import annotations

from typing import Iterable

import numpy as np


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values.

    The paper reports average optimisation rates as geometric means
    (Table II, Table III); zero or negative entries are rejected because
    they make the geometric mean undefined.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("geometric mean of an empty sequence is undefined")
    if np.any(arr <= 0):
        raise ValueError("geometric mean requires strictly positive values")
    return float(np.exp(np.mean(np.log(arr))))
