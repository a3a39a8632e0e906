"""Seeded input generators for the benchmark workloads.

Every input is a pure function of the workload name and the seed, and is
written as the TSV files the package's loaders read.  Sizes are fixed: the
seed changes which edges exist, never how many, so run-to-run timing depends
on the machine and not on the draw.

Regenerate the inputs of one workload and seed into a directory with

    python3 bench/inputs.py --workload nc-onehot --seed 1 --out some/dir
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# nc-onehot: planted-signal graph.  A labeled node points under relation 0 at
# SIGNAL_DEGREE of the HUBS_PER_CLASS hubs of its class; under every other
# relation each node (hubs included) points at NOISE_DEGREE uniformly random
# nodes, so those relations carry no class signal.
NC_NODES = 1000
NC_CLASSES = 2
NC_HUBS_PER_CLASS = 4
NC_SIGNAL_DEGREE = 2
NC_NOISE_RELATIONS = 5
NC_NOISE_DEGREE = 1
NC_TRAIN_FRACTION = 0.5

# Link prediction: every entity has exactly one out-edge per relation to a
# uniformly random other entity; LP_TEST_TRIPLES of them are held out.
LP_SHAPES = {
    "lp-train": dict(entities=500, relations=4, test=20),
    "lp-rank": dict(entities=500, relations=1, test=20),
}


@dataclass
class GeneratedInputs:
    """Named triples plus the labels or triple split of one workload."""

    triples: list[tuple[str, str, str]]
    labels: dict[str, str] = field(default_factory=dict)
    train_nodes: list[str] = field(default_factory=list)
    test_nodes: list[str] = field(default_factory=list)
    train_triples: list[tuple[str, str, str]] = field(default_factory=list)
    test_triples: list[tuple[str, str, str]] = field(default_factory=list)


def _node(i: int) -> str:
    return f"n{i}"


def nc_planted(seed: int) -> GeneratedInputs:
    rng = np.random.default_rng((seed, 0x4E43))
    num_hubs = NC_CLASSES * NC_HUBS_PER_CLASS
    labeled = np.arange(num_hubs, NC_NODES)
    classes = rng.permutation(np.arange(labeled.size) % NC_CLASSES)
    triples = []
    labels = {}
    for i, cls in zip(labeled.tolist(), classes.tolist()):
        labels[_node(i)] = f"c{cls}"
        hubs = cls * NC_HUBS_PER_CLASS + rng.choice(NC_HUBS_PER_CLASS, NC_SIGNAL_DEGREE, replace=False)
        triples.extend((_node(i), "r0", _node(int(hub))) for hub in np.sort(hubs))
    for r in range(1, NC_NOISE_RELATIONS + 1):
        for i in range(NC_NODES):
            tails = rng.choice(NC_NODES, NC_NOISE_DEGREE, replace=False)
            triples.extend((_node(i), f"r{r}", _node(int(t))) for t in np.sort(tails))
    names = sorted(labels, key=lambda s: int(s[1:]))
    order = rng.permutation(len(names))
    cut = round(NC_TRAIN_FRACTION * len(names))
    return GeneratedInputs(
        triples=triples,
        labels=labels,
        train_nodes=[names[k] for k in np.sort(order[:cut])],
        test_nodes=[names[k] for k in np.sort(order[cut:])],
    )


def lp_random(workload: str, seed: int) -> GeneratedInputs:
    shape = LP_SHAPES[workload]
    n, num_rel = shape["entities"], shape["relations"]
    rng = np.random.default_rng((seed, 0x4C50, num_rel))
    triples = []
    for r in range(num_rel):
        tails = (np.arange(n) + rng.integers(1, n, size=n)) % n  # never a self edge
        triples.extend((_node(i), f"r{r}", _node(int(t))) for i, t in enumerate(tails))
    held = set(rng.choice(len(triples), shape["test"], replace=False).tolist())
    return GeneratedInputs(
        triples=triples,
        train_triples=[t for k, t in enumerate(triples) if k not in held],
        test_triples=[triples[k] for k in sorted(held)],
    )


def generate(workload: str, seed: int) -> GeneratedInputs:
    if workload == "nc-onehot":
        return nc_planted(seed)
    if workload in LP_SHAPES:
        return lp_random(workload, seed)
    raise ValueError(f"unknown workload {workload!r}")


def write_tsv(inputs: GeneratedInputs, out: Path) -> dict[str, Path]:
    """Write the inputs in the formats of ``brgcn.hetgraph``'s loaders."""
    out.mkdir(parents=True, exist_ok=True)
    files = {"triples": out / "triples.tsv"}
    _write_rows(files["triples"], inputs.triples)
    if inputs.labels:
        files["labels"] = out / "labels.tsv"
        _write_rows(files["labels"], inputs.labels.items())
        for key in ("train_nodes", "test_nodes"):
            files[key] = out / f"{key}.txt"
            files[key].write_text("".join(f"{name}\n" for name in getattr(inputs, key)))
    if inputs.test_triples:
        for key in ("train_triples", "test_triples"):
            files[key] = out / f"{key}.tsv"
            _write_rows(files[key], getattr(inputs, key))
    return files


def _write_rows(path: Path, rows) -> None:
    path.write_text("".join("\t".join(row) + "\n" for row in rows), encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["nc-onehot", *LP_SHAPES])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    for name, path in write_tsv(generate(args.workload, args.seed), args.out).items():
        print(f"{name}: {path}")


if __name__ == "__main__":
    main()
