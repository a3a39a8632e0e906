"""Command-line experiment runner.

Subcommands: ``train-nc``, ``train-lp``, ``eval``, ``ablate``,
``export-attention``.  Each takes ``--config FILE`` plus repeatable
``--set key=value`` overrides.  Exit codes: 0 success, 2 configuration or
input problems, 3 numeric failure during training.

Artifacts land under ``output_dir``: a ``config.resolved`` snapshot at the
root, and per seed a ``metrics.csv`` (``epoch,loss,train_acc,val_metric``)
plus ``checkpoint.npz``.  ``eval`` writes ``results.json``, ``ablate``
writes ``ablation.csv``, ``export-attention`` writes ``attention.json``.
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
from .layer import ConfigurationError, stack_forward
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


def _load_nc_data(cfg: ExperimentConfig):
    _require(cfg, "triples_path", "labels_path")
    graph = hg.load_triples(cfg.triples_path, cfg.triples_format)
    labels = hg.load_labels(cfg.labels_path, graph)
    labels.validate(graph)
    parts = {
        "train": hg.load_node_split(cfg.train_nodes_path, graph) if cfg.train_nodes_path else None,
        "valid": hg.load_node_split(cfg.valid_nodes_path, graph) if cfg.valid_nodes_path else None,
        "test": hg.load_node_split(cfg.test_nodes_path, graph) if cfg.test_nodes_path else None,
    }
    return graph, labels, _resolve_split(parts, labels.labeled_ids)


def _load_lp_data(cfg: ExperimentConfig):
    _require(cfg, "triples_path")
    graph = hg.load_triples(cfg.triples_path, cfg.triples_format)
    parts = {
        "train": hg.load_triple_split(cfg.train_triples_path, graph)
        if cfg.train_triples_path
        else None,
        "valid": hg.load_triple_split(cfg.valid_triples_path, graph)
        if cfg.valid_triples_path
        else None,
        "test": hg.load_triple_split(cfg.test_triples_path, graph)
        if cfg.test_triples_path
        else None,
    }
    return graph, _resolve_split(parts, range(graph.num_triples))


def _prepare_output(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.resolved").write_text(snapshot(cfg), encoding="utf-8")
    return out


def _write_metrics(path: Path, rows) -> None:
    lines = ["epoch,loss,train_acc,val_metric"]
    for epoch, loss, train_acc, val in rows:
        lines.append(f"{epoch},{loss!r},{train_acc!r},{val}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_train_nc(cfg: ExperimentConfig) -> int:
    graph, labels, split = _load_nc_data(cfg)
    out = _prepare_output(cfg)
    for seed in cfg.seeds:
        run = train_node_classifier(
            graph, labels, split, cfg.to_train_config(seed), variant=cfg.variant
        )
        seed_dir = out / f"seed_{seed}"
        seed_dir.mkdir(exist_ok=True)
        _write_metrics(seed_dir / "metrics.csv", run.metrics_rows)
        save_checkpoint(seed_dir / "checkpoint.npz", run.model.state_arrays())
        msg = f"seed {seed}: final loss {run.loss_curve[-1]:.6f}, train acc {run.train_accuracy:.2f}%"
        if run.test_accuracy is not None:
            msg += f", test acc {run.test_accuracy:.2f}%"
        print(msg)
    return 0


def _cmd_train_lp(cfg: ExperimentConfig) -> int:
    graph, split = _load_lp_data(cfg)
    out = _prepare_output(cfg)
    for seed in cfg.seeds:
        run = train_link_predictor(
            graph,
            split,
            cfg.to_train_config(seed),
            cfg.decoder,
            standalone=cfg.standalone_decoder,
        )
        seed_dir = out / f"seed_{seed}"
        seed_dir.mkdir(exist_ok=True)
        _write_metrics(seed_dir / "metrics.csv", run.metrics_rows)
        save_checkpoint(seed_dir / "checkpoint.npz", run.model.state_arrays())
        print(f"seed {seed}: final loss {run.loss_curve[-1]:.6f}")
    return 0


def _build_nc_model(cfg: ExperimentConfig, graph_aug, num_classes):
    rng = np.random.default_rng(cfg.seeds[0])
    model = NodeClassificationModel.build(
        rng, graph_aug, num_classes, cfg.to_train_config(cfg.seeds[0]), variant=cfg.variant
    )
    model.load_arrays(load_checkpoint(cfg.checkpoint))
    return model


def _build_lp_model(cfg: ExperimentConfig, graph_aug, num_score_relations, checkpoint, standalone):
    rng = np.random.default_rng(cfg.seeds[0])
    model = LinkPredictionModel.build(
        rng,
        graph_aug,
        num_score_relations,
        cfg.to_train_config(cfg.seeds[0]),
        cfg.decoder,
        standalone=standalone,
    )
    model.load_arrays(load_checkpoint(checkpoint))
    return model


def _cmd_eval(cfg: ExperimentConfig) -> int:
    _require(cfg, "checkpoint")
    out = _prepare_output(cfg)
    if cfg.task == "node_classification":
        graph, labels, split = _load_nc_data(cfg)
        g = run_graph(graph, cfg)
        model = _build_nc_model(cfg, g, labels.num_classes)
        pred = model.predict(g)
        results = {"task": cfg.task}
        for name, ids in (("train", split.train), ("valid", split.valid), ("test", split.test)):
            if ids:
                results[f"accuracy_{name}"] = evalkit.accuracy(pred, labels, ids)
    else:
        graph, split = _load_lp_data(cfg)
        if not split.test:
            raise UsageError("link-prediction eval needs a non-empty test split")
        g_enc = run_graph(graph, cfg, split.train)
        model = _build_lp_model(
            cfg, g_enc, graph.num_relations, cfg.checkpoint, cfg.standalone_decoder
        )
        fn = model.score_fn(g_enc)
        if cfg.ensemble_checkpoint is not None:
            emb_model = _build_lp_model(
                cfg, g_enc, graph.num_relations, cfg.ensemble_checkpoint, standalone=True
            )
            fn_emb = emb_model.score_fn(g_enc)
            enc_fn = fn
            fn = lambda h, r, t: ensemble_score(enc_fn(h, r, t), fn_emb(h, r, t), cfg.beta)
        test_triples = graph.triples[list(split.test)]
        _, summary = evalkit.rank_triples(fn, test_triples, graph.num_nodes, graph.triples)
        results = {"task": cfg.task, **summary}
    _write_json(out / "results.json", results)
    for key in sorted(results):
        if key != "task":
            print(f"{key}: {results[key]:.4f}")
    return 0


def _cmd_export_attention(cfg: ExperimentConfig) -> int:
    _require(cfg, "checkpoint")
    out = _prepare_output(cfg)
    if cfg.task == "node_classification":
        graph, labels, _ = _load_nc_data(cfg)
        g = run_graph(graph, cfg)
        model = _build_nc_model(cfg, g, labels.num_classes)
        _, traces = model.forward(g, collect_trace=True)
    else:
        graph, split = _load_lp_data(cfg)
        if cfg.standalone_decoder:
            raise UsageError("a standalone decoder has no attention to export")
        g = run_graph(graph, cfg, split.train)
        model = _build_lp_model(cfg, g, graph.num_relations, cfg.checkpoint, standalone=False)
        _, traces = stack_forward(model.encoder, None, g, collect_trace=True)
    payload = {
        "relations": {str(r): name for r, name in enumerate(g.relation_names)},
        "layers": [
            {
                "gamma": {f"{i}:{r}": trace.gamma[(i, r)].tolist() for (i, r) in trace.gamma},
                "psi": {str(i): trace.psi[i].tolist() for i in trace.psi},
                "rel_order": {str(i): list(trace.rel_order[i]) for i in trace.rel_order},
            }
            for trace in traces
        ],
    }
    _write_json(out / "attention.json", payload)
    print(f"wrote attention for {len(traces)} layer(s) to {out / 'attention.json'}")
    return 0


def _cmd_ablate(cfg: ExperimentConfig) -> int:
    graph, labels, split = _load_nc_data(cfg)
    out = _prepare_output(cfg)
    report = evalkit.ablate(
        graph,
        labels,
        split,
        cfg.to_train_config(cfg.seeds[0]),
        strategies=cfg.ablation_strategies,
        fractions=cfg.ablation_fractions,
        seeds=cfg.seeds,
        variant=cfg.variant,
    )
    lines = ["strategy,fraction,seed,accuracy"]
    for strategy, fraction, seed, acc in report.rows:
        lines.append(f"{strategy},{fraction!r},{seed},{acc!r}")
    (out / "ablation.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
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


_COMMANDS = {
    "train-nc": _cmd_train_nc,
    "train-lp": _cmd_train_lp,
    "eval": _cmd_eval,
    "ablate": _cmd_ablate,
    "export-attention": _cmd_export_attention,
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

    try:
        return _COMMANDS[args.command](cfg)
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
