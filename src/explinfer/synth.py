"""Synthetic tabular data with a perfectly recoverable sensitive attribute.

The sensitive flag is a deterministic function of the first numeric feature,
whose two classes are separated by a margin (no mass near the decision
point), and the label equals the flag. An attack with explanation access can
therefore recover the flag exactly. Used by the test suite and handy for
pipeline demos.
"""

from __future__ import annotations

import os

import numpy as np

from . import nn
from .data import TabularSchema, write_csv


def write_synthetic_dataset(
    directory: str, n: int = 300, seed: int = 0
) -> tuple[str, str]:
    """Write synthetic.csv and synthetic_schema.json; returns their paths.
    n and seed are checked by nn.check_number before anything is written."""
    nn.check_number("n", n, True, True)
    nn.check_number("seed", seed, True, False)
    os.makedirs(directory, exist_ok=True)
    rng = np.random.default_rng(seed)
    sign = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    x0 = sign * (0.5 + np.abs(rng.normal(size=n)))  # |x0| >= 0.5: class margin
    x1 = rng.normal(size=n)
    x2 = rng.normal(size=n)
    group = rng.choice(["a", "b", "c"], size=n)
    s = (x0 > 0.0).astype(int)
    y = s.copy()  # label coincides with the sensitive flag

    csv_path = os.path.join(directory, "synthetic.csv")
    write_csv(csv_path, [["x0", "x1", "x2", "group", "flag", "outcome"],
                         *zip(x0, x1, x2, group, np.where(s, "yes", "no"), y)])

    schema = TabularSchema(
        columns=[("x0", "numeric"), ("x1", "numeric"), ("x2", "numeric"),
                 ("group", "categorical")],
        label_column="outcome",
        sensitive_column="flag",
        sensitive_positive_value="yes",
    )
    schema_path = os.path.join(directory, "synthetic_schema.json")
    schema.to_json(schema_path)
    return csv_path, schema_path
