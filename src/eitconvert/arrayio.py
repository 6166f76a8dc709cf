"""Deterministic CSV persistence.

Every export in the package is CSV with a single header row.  Floats are
written with ``repr``, the shortest digit string that round-trips in IEEE
double, so re-running a scenario with identical inputs yields a
byte-identical file body.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "write_csv",
    "read_csv",
]


def write_csv(path, header, columns) -> None:
    """Write named real columns (equal length 1-D arrays) as CSV.

    Bodies are byte-stable: no timestamps, repr-formatted floats, newline
    terminated rows.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    n = {len(c) for c in columns}
    if len(n) > 1:
        raise ValueError(f"column lengths differ: {sorted(n)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def read_csv(path):
    """Read a CSV written by write_csv; returns (header, dict of float arrays)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2, dtype=float)
    if data.size == 0:
        return header, {name: np.empty(0) for name in header}
    return header, {name: data[:, i] for i, name in enumerate(header)}
