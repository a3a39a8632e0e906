"""Command-line experiment runner.

Subcommands: ``train-nc``, ``train-lp``, ``eval``, ``ablate``,
``export-attention``.  Each takes ``--config FILE`` plus repeatable
``--set key=value`` overrides.  The config's ``task`` chooses the pipeline;
``train-nc`` and ``ablate`` refuse any task but ``node_classification``,
``train-lp`` any but ``link_prediction``.  Exit codes: 0 success, 2
configuration or input problems, 3 numeric failure in training or eval.

Artifacts land under ``output_dir``: a ``config.resolved`` snapshot at the
root, and per seed a ``metrics.csv`` (``epoch,loss,train_acc,val_metric``)
plus ``checkpoint.npz``.  ``eval`` writes ``results.json``, ``ablate``
writes ``ablation.csv``, ``export-attention`` writes ``attention.json``.
Nothing is written until the inputs have loaded and the first run has
trained or the results are computed, so a refused run leaves no directory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import evalkit
from . import hetgraph as hg
from .config import ExperimentConfig, snapshot, validate_config
from .decoders import ensemble_score
from .diffnum import CheckpointError, NumericError, load_checkpoint, save_checkpoint
from .layer import ConfigurationError
from .training import (
    LinkPredictionModel,
    NodeClassificationModel,
    TrainingAbort,
    run_graph,
    train_link_predictor,
    train_node_classifier,
)


class UsageError(Exception):
    """A problem the user can fix in the config or invocation."""


# ---------------------------------------------------------------------------
# data loading helpers
# ---------------------------------------------------------------------------


def _require(cfg: ExperimentConfig, *keys: str) -> None:
    missing = [k for k in keys if getattr(cfg, k) is None]
    if missing:
        raise UsageError("missing required config key(s): " + ", ".join(missing))


def _resolve_split(parts: dict[str, tuple[int, ...] | None], universe) -> hg.SplitSpec:
    """Fill unspecified partitions so the three cover the universe exactly."""
    universe = list(universe)
    if all(v is None for v in parts.values()):
        return hg.SplitSpec(tuple(universe))
    assigned = set()
    for v in parts.values():
        if v is not None:
            assigned.update(v)
    leftover = tuple(i for i in universe if i not in assigned)
    if parts["test"] is None:
        parts["test"] = leftover
    elif parts["train"] is None:
        parts["train"] = leftover
    elif leftover:
        raise UsageError(f"split files leave {len(leftover)} items unassigned")
    split = hg.SplitSpec(
        parts["train"] or (), parts["valid"] or (), parts["test"] or ()
    )
    split.validate(universe)
    return split


def _load_data(cfg: ExperimentConfig):
    """The graph, labels (None for link prediction) and split of ``cfg.task``.

    Splits are read from the task's ``*_nodes_path`` or ``*_triples_path`` keys.
    """
    nc = cfg.task == "node_classification"
    _require(cfg, "triples_path", *(("labels_path",) if nc else ()))
    graph = hg.load_triples(cfg.triples_path, cfg.triples_format)
    labels, kind, load = None, "triples", hg.load_triple_split
    if nc:
        labels = hg.load_labels(cfg.labels_path, graph)
        kind, load = "nodes", hg.load_node_split
    parts = {}
    for part in ("train", "valid", "test"):
        path = getattr(cfg, f"{part}_{kind}_path")
        parts[part] = load(path, graph) if path else None
    universe = labels.labeled_ids if nc else range(graph.num_triples)
    return graph, labels, _resolve_split(parts, universe)


def _prepare_output(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.resolved").write_text(snapshot(cfg), encoding="utf-8")
    return out


def _write_csv(path: Path, header: str, lines) -> None:
    path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_train(cfg: ExperimentConfig) -> int:
    graph, labels, split = _load_data(cfg)
    out = None
    for seed in cfg.seeds:
        train_cfg = cfg.to_train_config(seed)
        if labels is None:
            run = train_link_predictor(
                graph, split, train_cfg, cfg.decoder, standalone=cfg.standalone_decoder
            )
            accuracy = ""
        else:
            run = train_node_classifier(graph, labels, split, train_cfg)
            accuracy = f", train acc {run.train_accuracy:.2f}%"
            if run.test_accuracy is not None:
                accuracy += f", test acc {run.test_accuracy:.2f}%"
        out = out or _prepare_output(cfg)  # a run refused before it trains writes nothing
        seed_dir = out / f"seed_{seed}"
        seed_dir.mkdir(exist_ok=True)
        rows = [f"{epoch},{loss!r},{acc!r},{val}" for epoch, loss, acc, val in run.metrics_rows]
        _write_csv(seed_dir / "metrics.csv", "epoch,loss,train_acc,val_metric", rows)
        save_checkpoint(seed_dir / "checkpoint.npz", run.model.state_arrays())
        print(f"seed {seed}: final loss {run.loss_curve[-1]:.6f}{accuracy}")
    return 0


def _restore(cfg: ExperimentConfig, graph, labels, split, checkpoint, standalone):
    """The run graph of ``cfg.task`` and the model loaded from ``checkpoint`` onto it."""
    rng = np.random.default_rng(cfg.seeds[0])
    train_cfg = cfg.to_train_config(cfg.seeds[0])
    g = run_graph(graph, cfg, split.train if labels is None else None)
    if labels is None:
        model = LinkPredictionModel.build(
            rng, g, graph.num_relations, train_cfg, cfg.decoder, standalone=standalone
        )
    else:
        model = NodeClassificationModel.build(rng, g, labels.num_classes, train_cfg)
    model.load_arrays(load_checkpoint(checkpoint))
    return g, model


def _cmd_eval(cfg: ExperimentConfig) -> int:
    _require(cfg, "checkpoint")
    graph, labels, split = _load_data(cfg)
    if labels is None and not split.test:
        raise UsageError("link-prediction eval needs a non-empty test split")
    g, model = _restore(cfg, graph, labels, split, cfg.checkpoint, cfg.standalone_decoder)
    results = {"task": cfg.task}
    if labels is None:
        fn = model.score_fn(g)
        if cfg.ensemble_checkpoint is not None:
            _, emb_model = _restore(cfg, graph, labels, split, cfg.ensemble_checkpoint, True)
            fn_emb = emb_model.score_fn(g)
            enc_fn = fn
            fn = lambda h, r, t: ensemble_score(enc_fn(h, r, t), fn_emb(h, r, t), cfg.beta)
        test_triples = graph.triples[list(split.test)]
        _, summary = evalkit.rank_triples(fn, test_triples, graph.num_nodes, graph.triples)
        results.update(summary)
    else:
        pred = model.predict(g)
        for name, ids in (("train", split.train), ("valid", split.valid), ("test", split.test)):
            if ids:
                results[f"accuracy_{name}"] = evalkit.accuracy(pred, labels, ids)
    out = _prepare_output(cfg)
    _write_json(out / "results.json", results)
    for key in sorted(results):
        if key != "task":
            print(f"{key}: {results[key]:.4f}")
    return 0


def _attention_payload(g: hg.HeteroGraph, traces) -> dict:
    """``attention.json``'s content; gamma comes from the flat arrays, not the traces' mappings."""
    return {
        "relations": {str(r): name for r, name in enumerate(g.relation_names)},
        "layers": [
            {
                "gamma": {f"{i}:{r}": values for (i, r), values in trace.gamma_lists()},
                "psi": {str(i): p.tolist() for i, p in trace.psi.items()},
                "rel_order": {str(i): list(rels) for i, rels in trace.rel_order.items()},
            }
            for trace in traces
        ],
    }


def _cmd_export_attention(cfg: ExperimentConfig) -> int:
    _require(cfg, "checkpoint")
    graph, labels, split = _load_data(cfg)
    if labels is None and cfg.standalone_decoder:
        raise UsageError("a standalone decoder has no attention to export")
    g, model = _restore(cfg, graph, labels, split, cfg.checkpoint, standalone=False)
    _, traces = model.encode(g, collect_trace=True)
    payload = _attention_payload(g, traces)
    out = _prepare_output(cfg)
    _write_json(out / "attention.json", payload)
    print(f"wrote attention for {len(traces)} layer(s) to {out / 'attention.json'}")
    return 0


def _cmd_ablate(cfg: ExperimentConfig) -> int:
    graph, labels, split = _load_data(cfg)
    report = evalkit.ablate(
        graph,
        labels,
        split,
        cfg.to_train_config(cfg.seeds[0]),
        strategies=cfg.ablation_strategies,
        fractions=cfg.ablation_fractions,
        seeds=cfg.seeds,
    )
    rows = [f"{name},{fraction!r},{seed},{acc!r}" for name, fraction, seed, acc in report.rows]
    out = _prepare_output(cfg)
    _write_csv(out / "ablation.csv", "strategy,fraction,seed,accuracy", rows)
    _write_json(
        out / "relation_scores.json",
        {
            str(seed): {
                graph.relation_names[r]: score
                for r, score in info.relation_scores.items()
            }
            for seed, info in report.full_runs.items()
        },
    )
    print(f"wrote {len(report.rows)} ablation rows to {out / 'ablation.csv'}")
    return 0


# Each subcommand's function and the task it serves; None serves the config's task.
_COMMANDS = {
    "train-nc": (_cmd_train, "node_classification"),
    "train-lp": (_cmd_train, "link_prediction"),
    "eval": (_cmd_eval, None),
    "ablate": (_cmd_ablate, "node_classification"),
    "export-attention": (_cmd_export_attention, None),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="brgcn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a key=value config file")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            dest="overrides",
            help="override a config key (repeatable; wins over file values)",
        )
    args = parser.parse_args(argv)

    overrides = {}
    for item in args.overrides:
        if "=" not in item:
            print(f"error: --set expects KEY=VALUE, got {item!r}", file=sys.stderr)
            return 2
        key, _, value = item.partition("=")
        overrides[key.strip()] = value

    cfg, errors = validate_config(args.config, overrides)
    if errors:
        for err in errors:
            print(f"config error: {err}", file=sys.stderr)
        return 2

    command, task = _COMMANDS[args.command]
    try:
        if task not in (None, cfg.task):
            raise UsageError(f"{args.command} needs task = {task}, got task = {cfg.task}")
        return command(cfg)
    except (UsageError, hg.GraphError, ConfigurationError, CheckpointError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (TrainingAbort, NumericError) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
