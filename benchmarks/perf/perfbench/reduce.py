"""Reducers: raw samples in, reported numbers out.

Kept free of any ``repro`` import on purpose — the instrument must not
change when the program it measures does, and the tests exercise these
functions on hand-made samples.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from typing import Any, Dict, Optional, Sequence


def sum_of_unit_minima(samples: Sequence[Sequence[float]]) -> float:
    """``wall_s``: Σ over units of the unit's minimum over its samples.

    ``samples[u]`` holds every time unit ``u`` took.  The program is
    deterministic, so interference only ever adds time; the per-unit
    minimum is the least-disturbed observation of each unit, and taking
    it per unit (not per pass) lets one clean sample of every unit
    suffice even when no single pass was clean throughout.
    """
    if not samples or not all(samples):
        raise ValueError("every unit needs at least one sample")
    return sum(min(unit) for unit in samples)


def confirmed(times: Sequence[float], tolerance: float) -> bool:
    """Has the minimum been seen twice?  True once the two smallest
    samples agree to within ``tolerance`` of the smaller."""
    if len(times) < 2:
        return False
    low, second = sorted(times)[:2]
    return second - low <= tolerance * low


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile, ``pct`` in (0, 100]."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median — the steadiness figure the driver gates on."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else math.inf


def pass_summary(totals: Sequence[float]) -> Dict[str, float]:
    """Median / IQR / count of whole-pass times (information, not gated)."""
    out = {"n": len(totals), "median_s": statistics.median(totals)}
    if len(totals) >= 2:
        q1, _q2, q3 = statistics.quantiles(totals, n=4)
        out["iqr_s"] = q3 - q1
    return out


# ---------------------------------------------------------------------------
# Deterministic-result digests (the "simulated statistics identical" guard)
# ---------------------------------------------------------------------------

def _plain(value: Any) -> Any:
    """JSON fallback: numpy scalars/arrays to Python, the rest to ``str``."""
    for attr in ("tolist", "item"):
        convert = getattr(value, attr, None)
        if callable(convert):
            return convert()
    return str(value)


def strip_wall(obj: Any) -> Any:
    """Drop every host-time field (any dict key mentioning ``wall``)."""
    if isinstance(obj, dict):
        return {k: strip_wall(v) for k, v in obj.items()
                if "wall" not in str(k)}
    if isinstance(obj, (list, tuple)):
        return [strip_wall(v) for v in obj]
    return obj


def canonical(obj: Any) -> Any:
    """``obj`` as plain sorted JSON data with the wall fields dropped."""
    return json.loads(json.dumps(strip_wall(obj), sort_keys=True,
                                 default=_plain))


def digest(obj: Any) -> str:
    blob = json.dumps(canonical(obj), sort_keys=True).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def flatten(obj: Any, prefix: str = "") -> Dict[str, Any]:
    """``{"rows": [{"a": 1}]}`` -> ``{"rows[0].a": 1}`` (leaf paths)."""
    out: Dict[str, Any] = {}
    if isinstance(obj, dict):
        for key in sorted(obj):
            out.update(flatten(obj[key], f"{prefix}.{key}" if prefix
                               else str(key)))
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            out.update(flatten(item, f"{prefix}[{i}]"))
    else:
        out[prefix] = obj
    return out


def first_difference(expected: Any, observed: Any) -> Optional[str]:
    """The first leaf path (sorted) where two canonical objects differ."""
    a, b = flatten(expected), flatten(observed)
    for path in sorted(set(a) | set(b)):
        if a.get(path, "<absent>") != b.get(path, "<absent>"):
            return (f"{path}: expected {a.get(path, '<absent>')!r}, "
                    f"got {b.get(path, '<absent>')!r}")
    return None
