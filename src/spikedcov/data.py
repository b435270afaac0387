"""CSV dataset ingestion and the shipped covariance fixture.

The loaders import ``csv``, ``pathlib`` and ``importlib.resources``
themselves, so that ``import spikedcov`` does not load them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from pathlib import Path

__all__ = ["Dataset", "ParseError", "load_csv", "banknote_fixture_path"]


class ParseError(ValueError):
    """CSV parse failure; carries the 1-based line number, and its message
    names the file."""

    def __init__(self, message: str, line: int, path: str):
        super().__init__(f"{path}: line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Dataset:
    """Rectangular numeric table: n rows, p named columns."""

    columns: tuple[str, ...]
    values: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


def load_csv(path) -> Dataset:
    """Load a headered numeric CSV.

    First row is the header; every body cell must parse as a finite float.
    Ragged rows, non-numeric cells (e.g. "NA"), and empty files raise
    :class:`ParseError` naming the file and the offending line (and column).
    """
    import csv

    path = os.fspath(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [(lineno, row) for lineno, row in enumerate(reader, start=1) if row]
    if not rows:
        raise ParseError("empty file", line=1, path=path)
    header_line, header = rows[0]
    columns = tuple(name.strip() for name in header)
    if not columns or any(not c for c in columns):
        raise ParseError("missing or blank column name in header", line=header_line, path=path)
    p = len(columns)
    body = []
    for lineno, row in rows[1:]:
        if len(row) != p:
            raise ParseError(f"expected {p} fields, found {len(row)}", line=lineno, path=path)
        parsed = []
        for col, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(
                    f"non-numeric value {cell.strip()!r} in column {columns[col]!r}",
                    line=lineno,
                    path=path,
                ) from None
            if not np.isfinite(value):
                raise ParseError(
                    f"non-finite value {cell.strip()!r} in column {columns[col]!r}",
                    line=lineno,
                    path=path,
                )
            parsed.append(value)
        body.append(parsed)
    if not body:
        raise ParseError("no data rows after the header", line=header_line, path=path)
    return Dataset(columns=columns, values=np.array(body, dtype=float))


def banknote_fixture_path() -> Path:
    """Path of the shipped 4×4 banknote covariance fixture."""
    from importlib import resources
    from pathlib import Path

    return Path(resources.files("spikedcov") / "fixtures" / "banknote_cov.csv")
