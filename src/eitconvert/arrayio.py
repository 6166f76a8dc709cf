"""Deterministic CSV persistence.

Every export in the package is CSV with a single header row.  Floats are
written with ``repr``, the shortest digit string that round-trips in IEEE
double, so re-running a scenario with identical inputs yields a
byte-identical file body.
"""

from __future__ import annotations

import io

import numpy as np

__all__ = [
    "write_csv",
    "read_csv",
]


# rows formatted at a time: whole-column string lists raised the peak
# resident memory of the convert benchmark by 1.5 MB, 256 rows by none
_BLOCK_ROWS = 256


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
        for start in range(0, max(n, default=0), _BLOCK_ROWS):
            text = [map(repr, c[start:start + _BLOCK_ROWS].tolist())
                    for c in columns]
            fh.writelines(",".join(row) + "\n" for row in zip(*text))


def read_csv(source):
    """Read a CSV written by write_csv from a path or an open text stream;
    returns (header, dict of float arrays)."""
    if isinstance(source, io.TextIOBase):
        return _read_rows(source)
    with open(source, "r", encoding="utf-8") as fh:
        return _read_rows(fh)


def _read_rows(fh):
    header = fh.readline().strip().split(",")
    data = np.loadtxt(fh, delimiter=",", ndmin=2, dtype=float)
    if data.size == 0:
        return header, {name: np.empty(0) for name in header}
    return header, {name: data[:, i] for i, name in enumerate(header)}
