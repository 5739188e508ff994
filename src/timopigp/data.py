"""Observation containers and CSV serialization.

Dataset CSV schema: header ``quantity,x,z,value,dataset_id``; quantity is one
of {w, phi, eps, M, V, q}; z is empty unless quantity = eps.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from timopigp.errors import DataFormatError
from timopigp.quantities import QuantityKind

CSV_HEADER = ["quantity", "x", "z", "value", "dataset_id"]


def _check_finite(owner, *names) -> None:
    """Raise ValueError naming the first field with an inf or NaN value."""
    for name in names:
        values = getattr(owner, name)
        if values is not None and not np.isfinite(values).all():
            bad = float(values[~np.isfinite(values)][0])
            raise ValueError(f"{name} must be finite, got {bad!r}")


@dataclass
class Dataset:
    """One homogeneous block of observations of a single quantity."""

    kind: QuantityKind
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray | None = None
    sigma_n: float = 0.0
    learn_noise: bool = False
    label: str = ""

    def __post_init__(self):
        self.x = np.atleast_1d(np.asarray(self.x, dtype=float))
        self.y = np.atleast_1d(np.asarray(self.y, dtype=float))
        if self.z is not None:
            self.z = np.broadcast_to(
                np.asarray(self.z, dtype=float), self.x.shape).copy()
        if self.x.shape != self.y.shape or self.x.size < 1:
            raise ValueError("x and y must be equal-length, non-empty vectors")
        _check_finite(self, "x", "y", "z")
        if not 0 <= self.sigma_n < math.inf:
            raise ValueError(f"sigma_n must be non-negative and finite, "
                             f"got {self.sigma_n!r}")
        if self.kind is QuantityKind.STRAIN and self.z is None:
            raise ValueError("strain datasets require depths z")

    def __len__(self) -> int:
        return self.x.size


@dataclass
class BoundaryCondition:
    """Artificial noiseless observations enforcing support constraints."""

    kind: QuantityKind
    x: np.ndarray
    y: np.ndarray | None = None
    z: np.ndarray | None = None

    def __post_init__(self):
        self.x = np.atleast_1d(np.asarray(self.x, dtype=float))
        if self.y is None:
            self.y = np.zeros_like(self.x)
        self.y = np.atleast_1d(np.asarray(self.y, dtype=float))
        if self.z is not None:
            self.z = np.atleast_1d(np.asarray(self.z, dtype=float))
        if self.y.shape != self.x.shape:
            raise ValueError(f"boundary condition has {self.y.size} values "
                             f"for {self.x.size} locations")
        _check_finite(self, "x", "y", "z")

    def as_dataset(self) -> Dataset:
        return Dataset(kind=self.kind, x=self.x, y=self.y, z=self.z,
                       sigma_n=0.0, learn_noise=False, label="__bc__")


def write_csv(path, header, rows) -> None:
    """Write a CSV through ``csv.writer``: None as an empty field and any
    other value as its ``str``, which for a float or a numpy float64 is
    the shortest repr, so floats round-trip exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path, row_parser, empty="empty file"):
    """A CSV file's non-blank rows, each parsed by ``row_parser(names)``,
    the row parser that the header ``names`` gives.  An empty file, a row
    whose field count is not the header's and a ValueError from the
    header's or a row's parser are DataFormatErrors at file:line.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            names = next(reader)
        except StopIteration:
            raise DataFormatError(path, 1, empty) from None
        try:
            parse_row = row_parser(names)
        except ValueError as exc:
            raise DataFormatError(path, 1, str(exc)) from None
        parsed = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(names):
                raise DataFormatError(path, line_no,
                                      f"expected {len(names)} fields, "
                                      f"got {len(row)}")
            try:
                parsed.append(parse_row(row))
            except ValueError as exc:
                raise DataFormatError(path, line_no, str(exc)) from None
    return parsed


def finite_floats(names, fields) -> list:
    """The fields as floats; a ValueError names the first inf or NaN."""
    values = [float(f) for f in fields]
    for name, v in zip(names, values):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")
    return values


def write_datasets_csv(path, datasets: list[Dataset]) -> None:
    write_csv(path, CSV_HEADER,
              ([ds.kind.code, ds.x[j], None if ds.z is None else ds.z[j],
                ds.y[j], ds.label or f"ds{i}"]
               for i, ds in enumerate(datasets) for j in range(len(ds))))


def read_datasets_csv(path, span: float | None = None) -> list[Dataset]:
    """Parse a dataset CSV, grouping rows by dataset_id in file order.

    With ``span``, the beam length L, a row whose x is off [0, L] is refused.
    """
    groups: dict[str, tuple] = {}   # dataset_id: (kind, rows)

    def row_parser(names):
        if [h.strip() for h in names] != CSV_HEADER:
            raise ValueError(f"expected header {','.join(CSV_HEADER)}")
        return parse_row

    def parse_row(row):
        code, xs, zs, vs, ds_id = [c.strip() for c in row]
        kind = QuantityKind.from_code(code)
        x, value, *z = finite_floats(("x", "value", "z"),
                                     [xs, vs] + ([zs] if zs else []))
        z = z[0] if z else None
        if span is not None and not 0.0 <= x <= span:
            raise ValueError(f"dataset {ds_id!r}: x = {x!r} is off the "
                             f"span [0, {span!r}]")
        if kind is QuantityKind.STRAIN and z is None:
            raise ValueError("strain rows require a z value")
        first, rows = groups.setdefault(ds_id, (kind, []))
        if first is not kind:
            raise ValueError(f"dataset {ds_id!r} mixes quantities "
                             f"{first.code} and {kind.code}")
        rows.append((x, value, z))

    read_csv(path, row_parser)
    datasets = []
    for ds_id, (kind, rows) in groups.items():
        x, y, z = zip(*rows)
        datasets.append(Dataset(kind=kind, x=x, y=y, label=ds_id,
                                z=z if kind is QuantityKind.STRAIN else None))
    return datasets
