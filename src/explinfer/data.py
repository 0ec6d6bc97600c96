"""Tabular CSV ingestion, encoding, sensitive-attribute handling and splits.

A schema names the feature columns (numeric or categorical), the label
column and the sensitive column. Encoding one-hots categoricals with a
vocabulary fitted on the training split and z-scores numerics with training
statistics, so nothing from the held-out splits leaks into the
representation. The sensitive attribute is binarized from the schema and is
included in the feature matrix only when the threat model allows it.

Splits follow a fixed topology: 70% trains the target model, the remaining
30% is the test set, split in half into the adversary's auxiliary set and
the held-out evaluation set.
"""

from __future__ import annotations

import array
import csv
import json
from collections.abc import Mapping
from dataclasses import dataclass, replace
from types import MappingProxyType

import numpy as np


class SchemaError(ValueError):
    """The schema file or its relationship to the CSV is invalid."""


class DataError(ValueError):
    """A data value cannot be interpreted under the schema."""


MISSING_MARKERS = {"", "?", "NA", "N/A", "na", "null", "None"}

NUMERIC = "numeric"
CATEGORICAL = "categorical"


@dataclass(frozen=True)
class TabularSchema:
    """A valid schema: building one checks it and raises SchemaError. It
    keeps read-only copies of columns and binarization_map, so a built
    schema stays valid."""

    columns: tuple[tuple[str, str], ...]  # feature columns only: (name, kind)
    label_column: str
    sensitive_column: str
    sensitive_positive_value: str | None = None
    binarization_map: Mapping[str, int] | None = None
    label_positive_value: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple((n, k) for n, k in self.columns))
        names = [n for n, _ in self.columns]
        if not all(isinstance(v, str) for v in (*names, self.label_column,
                                                 self.sensitive_column)):
            raise SchemaError("column names must be strings")
        for name in ("sensitive_positive_value", "label_positive_value"):
            if not isinstance(getattr(self, name), (str, type(None))):
                raise SchemaError(f"{name} must be a string or null")
        m = self.binarization_map
        if m is not None and not (isinstance(m, Mapping) and all(
                isinstance(k, str) and v in (0, 1) for k, v in m.items())):
            raise SchemaError("binarization_map must map strings to 0 or 1")
        if m is not None:
            object.__setattr__(self, "binarization_map", MappingProxyType(dict(m)))
        if len(set(names)) != len(names):
            raise SchemaError("duplicate feature column names")
        for n, kind in self.columns:
            if kind not in (NUMERIC, CATEGORICAL):
                raise SchemaError(f"column {n!r} has unknown kind {kind!r}")
        if self.label_column in names or self.sensitive_column in names:
            raise SchemaError("label and sensitive columns must not be listed as features")
        if self.label_column == self.sensitive_column:
            raise SchemaError("label and sensitive columns must differ")
        if self.sensitive_positive_value is None and not self.binarization_map:
            raise SchemaError(
                "need sensitive_positive_value or binarization_map to binarize s")

    @property
    def feature_names(self) -> list[str]:
        return [n for n, _ in self.columns]

    def sensitive_bit(self, value: str) -> float:
        """The binarized sensitive attribute of a value."""
        if self.binarization_map is None:
            return float(value == self.sensitive_positive_value)
        if value not in self.binarization_map:
            raise DataError(f"sensitive value {value!r} not covered by binarization_map")
        return float(self.binarization_map[value])

    def label_bit(self, value: str) -> float:
        if self.label_positive_value is not None:
            return float(value == self.label_positive_value)
        try:
            f = float(value)
        except ValueError:
            raise DataError(f"label value {value!r} is not 0/1 and no "
                            f"label_positive_value is set")
        if f not in (0.0, 1.0):
            raise DataError(f"numeric label must be 0 or 1, got {value!r}")
        return f

    @classmethod
    def from_json(cls, path: str) -> "TabularSchema":
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
        try:
            return cls(
                columns=[(c["name"], c["kind"]) for c in raw["columns"]],
                label_column=raw["label_column"],
                sensitive_column=raw["sensitive_column"],
                sensitive_positive_value=raw.get("sensitive_positive_value"),
                binarization_map=raw.get("binarization_map"),
                label_positive_value=raw.get("label_positive_value"),
            )
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"malformed schema file {path}: {exc}") from exc

    def to_json(self, path: str) -> None:
        write_json(path, {
            "columns": [{"name": n, "kind": k} for n, k in self.columns],
            "label_column": self.label_column,
            "sensitive_column": self.sensitive_column,
            "sensitive_positive_value": self.sensitive_positive_value,
            "binarization_map": (None if self.binarization_map is None
                                 else dict(self.binarization_map)),
            "label_positive_value": self.label_positive_value,
        })


def write_csv(path: str, rows) -> None:
    """One comma-joined line per row of values (a header row, then data
    rows): a float as repr, which reads back bit-exact, anything else as
    str. Nothing is quoted, so a one-cell row is written verbatim."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                               for v in row) + "\n" for row in rows)


def write_json(path: str, obj) -> None:
    """Indented JSON with sorted keys, so equal objects give equal bytes."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass
class RawTable:
    """One array per schema column, by name: float64 for a numeric feature,
    else dtype=object, one str per cell. Rows with missing values are dropped."""

    columns: dict[str, np.ndarray]
    row_ids: np.ndarray
    n_dropped_missing: int

    @property
    def n_rows(self) -> int:
        return len(self.row_ids)

    def select(self, indices) -> "RawTable":
        return RawTable({name: col[indices] for name, col in self.columns.items()},
                        self.row_ids[indices], n_dropped_missing=0)


def load_csv(path: str, schema: TabularSchema) -> RawTable:
    """Read and type-check the CSV; rows with missing schema values are
    dropped and counted."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"empty CSV file: {path}")
        header = [h.strip() for h in header]
        needed = schema.feature_names + [schema.label_column, schema.sensitive_column]
        missing = [c for c in needed if c not in header]
        if missing:
            raise SchemaError(f"CSV is missing schema columns: {missing}")
        positions = [header.index(c) for c in needed]
        numeric = {n for n, kind in schema.columns if kind == NUMERIC}
        # numbers as C doubles: a float object per cell would outlive the read
        cells = {c: array.array("d") if c in numeric else [] for c in needed}
        n_dropped = 0
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            # a short row lacks its last values: "" is a missing marker
            values = [row[j].strip() if j < len(row) else "" for j in positions]
            if any(v in MISSING_MARKERS for v in values):
                n_dropped += 1
                continue
            for name, v in zip(needed, values):
                try:
                    cells[name].append(float(v) if name in numeric else v)
                except ValueError:
                    raise DataError(f"{path}:{line_no}: column {name!r} has "
                                    f"non-numeric value {v!r}")
    n = len(cells[schema.label_column])
    if not n:
        raise DataError(f"no usable rows in {path}")
    return RawTable({c: np.array(v, dtype=np.float64 if c in numeric else object)
                     for c, v in cells.items()}, np.arange(n), n_dropped)


@dataclass
class EncodingStats:
    """Standardization moments and categorical vocabularies fitted on one split."""

    numeric_mean: dict[str, float]
    numeric_std: dict[str, float]
    vocabularies: dict[str, list[str]]


def fit_encoding(table: RawTable, schema: TabularSchema) -> EncodingStats:
    numeric_mean, numeric_std, vocabularies = {}, {}, {}
    for name, kind in schema.columns:
        col = table.columns[name]
        if kind == NUMERIC:
            numeric_mean[name] = float(col.mean())
            std = float(col.std())
            # constant columns encode to zero rather than dividing by zero
            numeric_std[name] = std if std > 0 else 1.0
        else:
            vocabularies[name] = sorted(set(col))
    return EncodingStats(numeric_mean, numeric_std, vocabularies)


def _per_value(col: np.ndarray, fn) -> np.ndarray:
    """fn of each distinct value of a string column, spread over its rows as
    float64; fn meets values in row order, so its errors name the first row's."""
    out = {v: fn(v) for v in dict.fromkeys(col)}
    return np.fromiter(map(out.__getitem__, col), np.float64, len(col))


@dataclass
class TabularDataset:
    features: np.ndarray
    labels: np.ndarray
    sensitive: np.ndarray
    column_groups: dict[str, list[int]]
    sensitive_columns: list[int]  # the sensitive attribute's column; [] if censored
    row_ids: np.ndarray
    # categorical values unseen by fit_encoding; a row slice keeps its dataset's count
    unknown_category_count: int = 0

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_columns(self) -> int:
        return self.features.shape[1]

    def __getitem__(self, rows: slice) -> "TabularDataset":
        return replace(self, features=self.features[rows], labels=self.labels[rows],
                       sensitive=self.sensitive[rows], row_ids=self.row_ids[rows])


def encode(
    table: RawTable,
    schema: TabularSchema,
    include_sensitive: bool,
    stats: EncodingStats,
) -> TabularDataset:
    """Encode a typed table into the model's feature matrix, each row on its own.

    Numerics are z-scored and categoricals one-hot encoded against `stats`,
    from fit_encoding on the training split. A categorical value unseen at fit
    time encodes as the all-zero pattern within its indicator group and is
    counted. The binarized sensitive attribute becomes one 0/1 column iff
    include_sensitive.
    """
    blocks: list[np.ndarray] = []
    column_groups: dict[str, list[int]] = {}
    next_col = 0
    unknown = 0
    n = table.n_rows
    for name, kind in schema.columns:
        col = table.columns[name]
        if kind == NUMERIC:
            if name not in stats.numeric_mean:
                raise SchemaError(f"statistics missing numeric column {name!r}")
            arr = (col - stats.numeric_mean[name]) / stats.numeric_std[name]
            blocks.append(arr[:, None])
            column_groups[name] = [next_col]
            next_col += 1
        else:
            vocab = stats.vocabularies.get(name)
            if vocab is None:
                raise SchemaError(f"statistics missing categorical column {name!r}")
            lookup = {v: k for k, v in enumerate(vocab)}
            codes = _per_value(col, lambda v: lookup.get(v, -1)).astype(np.intp)
            known = np.flatnonzero(codes >= 0)
            unknown += n - len(known)
            block = np.zeros((n, len(vocab)))
            block[known, codes[known]] = 1.0
            blocks.append(block)
            column_groups[name] = list(range(next_col, next_col + len(vocab)))
            next_col += len(vocab)

    sensitive = _per_value(table.columns[schema.sensitive_column], schema.sensitive_bit)
    if include_sensitive:
        blocks.append(sensitive[:, None])
        column_groups[schema.sensitive_column] = [next_col]

    return TabularDataset(
        features=np.hstack(blocks) if blocks else np.zeros((n, 0)),
        labels=_per_value(table.columns[schema.label_column], schema.label_bit),
        sensitive=sensitive,
        column_groups=column_groups,
        sensitive_columns=[next_col] if include_sensitive else [],
        row_ids=np.asarray(table.row_ids, dtype=np.int64),
        unknown_category_count=unknown,
    )


def split_indices(n: int, seed: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Seeded shuffle, then (train, test, n_aux): 70% train rows, and test
    rows whose first n_aux (half, rounded down) are aux and the rest eval."""
    if n < 10:
        raise ValueError(f"need at least 10 rows to split, got {n}")
    perm = np.random.default_rng(seed).permutation(n)
    n_train = int(round(0.7 * n))
    return perm[:n_train], perm[n_train:], (n - n_train) // 2


@dataclass
class DatasetSplits:
    """The train rows, and the test rows: n_aux aux rows, then eval rows."""

    target_train: TabularDataset
    test: TabularDataset
    n_aux: int

    @property
    def aux(self) -> TabularDataset:
        return self.test[:self.n_aux]

    @property
    def eval(self) -> TabularDataset:
        return self.test[self.n_aux:]


def sensitive_base_rate(ds: TabularDataset) -> float:
    """Fraction of rows whose sensitive attribute is 1."""
    if ds.n_rows == 0:
        raise ValueError("empty dataset has no base rate")
    return float(np.mean(ds.sensitive))
