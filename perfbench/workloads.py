"""Workload inputs: the census-shaped CSV and the experiment configs.

Run as a script (`python3 perfbench/workloads.py WORKLOAD DIR SEED`) it
imports the package and writes one workload's inputs into DIR; the
benchmark times that process as part of set-up.

census  the ROADMAP census run at reduced row count: tm1 phi_all and tm2
        phi_non_sensitive, target [1024,512,256,128] x 30 epochs, IG with 50
        steps, attack MLP [64,128,32] x 500 epochs. Every stage scales with
        rows, so each keeps its share of the full run.
matrix  tm1 with four explainers x {mlp, forest}: 8 cells on phi_all and
        pred_plus_phi. The target is smaller than census's and the attack
        shorter, so that no stage takes more than half the time.
wire    a served census-shaped target; the adversary fetches explanations
        (GradientSHAP) and predictions for the aux and eval records. The
        target's training is set-up, so it trains for few epochs: the cost
        of a request does not depend on how long the model trained.
"""

from __future__ import annotations

import json
import os
import sys

import census

ROWS = {"census": 1000, "matrix": 1000, "wire": 2000}

_BASE = {
    "census": {"explainer": "integrated_gradients"},
    "matrix": {
        "threat_model": "tm1",
        "explainer": ["integrated_gradients", "deeplift", "gradient_shap",
                      "smoothgrad"],
        "attack_kind": ["mlp", "forest"],
        "surfaces": ["phi_all", "pred_plus_phi"],
        "target_hidden": [512, 256, 128], "target_epochs": 10,
        "attack_epochs": 150, "forest_trees": 30,
    },
    "wire": {"threat_model": "tm1", "explainer": "gradient_shap",
             "surfaces": ["phi_all"], "target_epochs": 2},
}

# census runs as two experiments, as the acceptance census run does
CENSUS_CELLS = [("tm1", "phi_all"), ("tm2", "phi_non_sensitive")]


def configs(workload: str, directory: str, seed: int) -> list[dict]:
    """The experiment config(s) of one workload; one `explinfer experiment`
    invocation each."""
    base = dict(_BASE[workload],
                dataset_csv=os.path.join(directory, "census.csv"),
                schema=os.path.join(directory, "census_schema.json"),
                split_seed=seed, model_seed=seed + 1, attack_seed=seed + 2,
                explainer_seed=seed + 3)
    if workload != "census":
        return [dict(base, output_dir=os.path.join(directory, "out"))]
    return [dict(base, threat_model=tm, surfaces=[surface],
                 output_dir=os.path.join(directory, f"out-{tm}"))
            for tm, surface in CENSUS_CELLS]


def write_inputs(workload: str, directory: str, seed: int) -> list[str]:
    """Write the CSV, schema and config files; returns the config paths."""
    census.write(directory, ROWS[workload], seed)
    paths = []
    for i, cfg in enumerate(configs(workload, directory, seed)):
        path = os.path.join(directory, f"config-{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, indent=2, sort_keys=True)
        paths.append(path)
    return paths


if __name__ == "__main__":
    import explinfer  # noqa: F401  (a user's set-up pays for the import)

    write_inputs(sys.argv[1], sys.argv[2], int(sys.argv[3]))
