"""Census-shaped synthetic CSV for the benchmark.

The columns, kinds and schema are those of the Adult census data as the
desk-scale tests use it (race is the sensitive attribute, White vs the rest;
income >50K is the label). Categorical vocabularies have Adult's sizes
(workclass 7, education 16, marital-status 7, occupation 14, relationship 6,
sex 2, native-country 41), so under tm1 the encoding is 6 numeric + 93
indicator + 1 sensitive = 100 columns.

Race shapes native-country, sex and income, and income depends on the usual
covariates, so the attack has real signal while the sensitive base rate
stays near Adult's 0.855. Every draw comes from one generator seeded by the
workload seed: the same seed writes the same bytes.
"""

from __future__ import annotations

import json
import os

import numpy as np

NUMERIC = ["age", "fnlwgt", "education-num", "capital-gain", "capital-loss",
           "hours-per-week"]
CATEGORICAL = ["workclass", "education", "marital-status", "occupation",
               "relationship", "sex", "native-country"]
HEADER = ["age", "workclass", "fnlwgt", "education", "education-num",
          "marital-status", "occupation", "relationship", "race", "sex",
          "capital-gain", "capital-loss", "hours-per-week", "native-country",
          "income"]

WORKCLASS = ["Private", "Self-emp-not-inc", "Self-emp-inc", "Federal-gov",
             "Local-gov", "State-gov", "Without-pay"]
# ordered by education-num 1..16
EDUCATION = ["Preschool", "1st-4th", "5th-6th", "7th-8th", "9th", "10th",
             "11th", "12th", "HS-grad", "Some-college", "Assoc-voc",
             "Assoc-acdm", "Bachelors", "Masters", "Prof-school", "Doctorate"]
MARITAL = ["Married-civ-spouse", "Never-married", "Divorced", "Separated",
           "Widowed", "Married-spouse-absent", "Married-AF-spouse"]
OCCUPATION = ["Prof-specialty", "Craft-repair", "Exec-managerial",
              "Adm-clerical", "Sales", "Other-service", "Machine-op-inspct",
              "Transport-moving", "Handlers-cleaners", "Farming-fishing",
              "Tech-support", "Protective-serv", "Priv-house-serv",
              "Armed-Forces"]
RELATIONSHIP = ["Husband", "Not-in-family", "Own-child", "Unmarried", "Wife",
                "Other-relative"]
SEX = ["Male", "Female"]
COUNTRY = ["United-States", "Mexico", "Philippines", "Germany", "Puerto-Rico",
           "Canada", "El-Salvador", "India", "Cuba", "England", "China",
           "South", "Jamaica", "Italy", "Dominican-Republic", "Japan",
           "Guatemala", "Poland", "Vietnam", "Columbia", "Haiti", "Portugal",
           "Taiwan", "Iran", "Greece", "Nicaragua", "Peru", "Ecuador",
           "France", "Ireland", "Hong", "Thailand", "Cambodia",
           "Trinadad&Tobago", "Outlying-US(Guam-USVI-etc)", "Laos",
           "Yugoslavia", "Scotland", "Honduras", "Hungary",
           "Holand-Netherlands"]
RACE = ["White", "Black", "Asian-Pac-Islander", "Amer-Indian-Eskimo", "Other"]

VOCAB = {"workclass": WORKCLASS, "education": EDUCATION,
         "marital-status": MARITAL, "occupation": OCCUPATION,
         "relationship": RELATIONSHIP, "sex": SEX, "native-country": COUNTRY}

# each category is forced onto this many rows, so a random 70% training
# split sees every value (and tm1 encodes to 100 columns) with near certainty
MIN_PER_CATEGORY = 10


def schema_dict() -> dict:
    return {
        "columns": ([{"name": n, "kind": "numeric"} for n in NUMERIC]
                    + [{"name": n, "kind": "categorical"} for n in CATEGORICAL]),
        "label_column": "income",
        "label_positive_value": ">50K",
        "sensitive_column": "race",
        "sensitive_positive_value": "White",
    }


def _skewed(rng, n, size, decay):
    p = decay ** np.arange(size)
    return rng.choice(size, size=n, p=p / p.sum())


def generate(n_rows: int, seed: int) -> dict[str, np.ndarray]:
    """Column name -> values for n_rows census-shaped records."""
    if n_rows < MIN_PER_CATEGORY * len(COUNTRY):
        raise ValueError(f"need at least {MIN_PER_CATEGORY * len(COUNTRY)} rows")
    rng = np.random.default_rng([20220820, seed])
    n = n_rows
    race = rng.choice(len(RACE), size=n, p=[0.855, 0.094, 0.031, 0.010, 0.010])
    white = race == 0
    foreign = rng.random(n) < np.where(white, 0.05, 0.35)
    country = np.where(foreign, 1 + _skewed(rng, n, len(COUNTRY) - 1, 0.9), 0)
    male = rng.random(n) < np.where(white, 0.69, 0.52)
    age = np.clip(rng.normal(38.5, 13.5, n), 17, 90).round()
    edu = np.clip(rng.normal(9.5, 2.6, n) + 0.4 * white, 0, 15).round().astype(int)
    married = rng.random(n) < np.clip(0.1 + 0.012 * (age - 17) + 0.15 * white
                                      + 0.1 * male, 0.05, 0.8)
    marital = np.where(married, 0, 1 + _skewed(rng, n, len(MARITAL) - 1, 0.55))
    relationship = np.where(
        married, np.where(male, 0, 4),
        np.where(age < 25, 2, 1 + rng.choice([0, 2, 4], size=n, p=[0.6, 0.3, 0.1])))
    workclass = _skewed(rng, n, len(WORKCLASS), 0.35)
    occupation = _skewed(rng, n, len(OCCUPATION), 0.82)
    hours = np.clip(rng.normal(40.5 + 3.0 * male, 11.5, n), 1, 99).round()
    fnlwgt = np.exp(rng.normal(12.0, 0.5, n)).round()
    gain = np.where(rng.random(n) < 0.08, np.exp(rng.normal(8.5, 1.0, n)), 0.0).round()
    loss = np.where(rng.random(n) < 0.05, rng.normal(1870, 360, n), 0.0).round()

    # income >50K for about 28% of records; race carries enough weight that
    # the tm1 phi_all attack beats the all-positive baseline on most seeds
    logit = (-12.0 + 0.07 * (age - 38) + 0.66 * (edu - 8) + 0.06 * (hours - 40)
             + 4.0 * married + 0.8 * male + 5.0 * white + 4.4 * (gain > 0)
             + 2.0 * (occupation == 2) + 1.6 * (occupation == 0))
    income = rng.random(n) < 1.0 / (1.0 + np.exp(-logit))

    cols = {"workclass": workclass, "education": edu, "marital-status": marital,
            "occupation": occupation, "relationship": relationship,
            "sex": np.where(male, 0, 1), "native-country": country}
    for name, values in cols.items():
        size = len(VOCAB[name])
        rows = rng.choice(n, size=MIN_PER_CATEGORY * size, replace=False)
        values[rows] = np.repeat(np.arange(size), MIN_PER_CATEGORY)
    edu = cols["education"]

    out = {name: np.asarray(VOCAB[name])[values] for name, values in cols.items()}
    out.update({
        "age": age, "fnlwgt": fnlwgt, "education-num": edu + 1.0,
        "capital-gain": gain, "capital-loss": loss, "hours-per-week": hours,
        "race": np.asarray(RACE)[race],
        "income": np.where(income, ">50K", "<=50K"),
    })
    return out


def write(directory: str, n_rows: int, seed: int) -> tuple[str, str]:
    """Write census.csv and census_schema.json; returns their paths."""
    os.makedirs(directory, exist_ok=True)
    cols = generate(n_rows, seed)
    text = [",".join(HEADER)]
    for i in range(n_rows):
        text.append(",".join(
            str(int(cols[c][i])) if c in NUMERIC else str(cols[c][i])
            for c in HEADER))
    csv_path = os.path.join(directory, "census.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(text) + "\n")
    schema_path = os.path.join(directory, "census_schema.json")
    with open(schema_path, "w", encoding="utf-8") as fh:
        json.dump(schema_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, schema_path
