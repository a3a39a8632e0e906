"""Config validation, resolution, snapshots, and the CLI surface."""

import importlib.resources
import json
import logging
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from brgcn import training
from brgcn.cli import main
from brgcn.config import ExperimentConfig, snapshot, validate_config
from brgcn.diffnum import load_checkpoint, save_checkpoint
from brgcn.layer import ConfigurationError
from brgcn.training import TrainConfig
from synth import memorization_kg


def _cfg_file(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestValidateConfig:
    def test_empty_file_yields_defaults(self, tmp_path):
        cfg, errors = validate_config(_cfg_file(tmp_path, ""))
        assert errors == []
        assert cfg == ExperimentConfig()
        assert cfg.lr == 0.05
        assert cfg.hidden_units == 16
        assert cfg.epochs == 85

    def test_negative_lr_reported_by_name(self, tmp_path):
        cfg, errors = validate_config(_cfg_file(tmp_path, "lr = -1\n"))
        assert cfg is None
        assert any("lr" in e for e in errors)

    def test_unknown_key(self, tmp_path):
        cfg, errors = validate_config(_cfg_file(tmp_path, "learning_rate = 0.1\n"))
        assert cfg is None
        assert any("unknown key: learning_rate" in e for e in errors)

    def test_duplicate_key(self, tmp_path):
        cfg, errors = validate_config(_cfg_file(tmp_path, "lr = 0.1\nlr = 0.2\n"))
        assert cfg is None
        assert any("duplicate key: lr" in e for e in errors)

    def test_all_errors_collected(self, tmp_path):
        cfg, errors = validate_config(
            _cfg_file(tmp_path, "lr = -1\ndropout = 2\nepochs = 0\n")
        )
        assert cfg is None
        assert len(errors) == 3

    def test_bad_preset_does_not_hide_other_errors(self, tmp_path):
        cfg, errors = validate_config(_cfg_file(tmp_path, "preset = bogus\nlr = -1\n"))
        assert cfg is None
        assert errors == [
            "lr: must be positive, got -1.0",
            "preset: expected one of ('none', 'aifb', 'mutag', 'bgs', 'am'), got 'bogus'",
        ]

    def test_train_config_runs_the_same_checks(self, tmp_path):
        _, errors = validate_config(_cfg_file(tmp_path, "num_layers = 0\nl2_penalty = -1\n"))
        assert len(errors) == 2
        with pytest.raises(ConfigurationError) as err:
            TrainConfig(num_layers=0, l2_penalty=-1.0).validate()
        assert str(err.value) == "; ".join(errors)

    def test_beta_is_a_config_key_and_not_a_training_setting(self, tmp_path):
        cfg, errors = validate_config(_cfg_file(tmp_path, "beta = 0.7\n"))
        assert errors == [] and cfg.beta == 0.7
        bad = validate_config(_cfg_file(tmp_path, "beta = 1.5\n"))
        assert bad == (None, ["beta: must lie in [0, 1], got 1.5"])
        assert "beta" not in {f.name for f in fields(TrainConfig)}
        assert cfg.to_train_config(0) == TrainConfig()

    def test_to_train_config_copies_the_shared_settings(self):
        assert ExperimentConfig().to_train_config(7) == TrainConfig(seed=7)
        cfg = ExperimentConfig(lr=0.3, num_layers=3, add_inverse=True, seeds=(4,))
        assert cfg.to_train_config(4) == TrainConfig(lr=0.3, num_layers=3, add_inverse=True, seed=4)

    def test_aifb_preset(self, tmp_path):
        cfg, errors = validate_config(_cfg_file(tmp_path, "preset = aifb\n"))
        assert errors == []
        assert (cfg.lr, cfg.hidden_units, cfg.epochs) == (0.05, 16, 85)
        assert (cfg.num_bases, cfg.dropout, cfg.leaky_slope) == (0, 0.4, 0.2)

    def test_bgs_preset_and_explicit_override(self, tmp_path):
        cfg, _ = validate_config(_cfg_file(tmp_path, "preset = bgs\nlr = 0.123\n"))
        assert cfg.lr == 0.123  # explicit key beats the preset
        assert cfg.num_bases == 1
        assert cfg.epochs == 95

    def test_override_wins_over_file(self, tmp_path):
        cfg, _ = validate_config(_cfg_file(tmp_path, "lr = 0.3\n"), {"lr": "0.7"})
        assert cfg.lr == 0.7

    def test_seed_list_and_fraction_list(self, tmp_path):
        cfg, errors = validate_config(
            _cfg_file(tmp_path, "seeds = 3,1,4\nablation_fractions = 0.2,0.4\n")
        )
        assert errors == []
        assert cfg.seeds == (3, 1, 4)
        assert cfg.ablation_fractions == (0.2, 0.4)

    def test_bool_parse_error(self, tmp_path):
        cfg, errors = validate_config(_cfg_file(tmp_path, "add_inverse = yes\n"))
        assert cfg is None
        assert any("add_inverse" in e for e in errors)

    def test_missing_referenced_file(self, tmp_path):
        cfg, errors = validate_config(_cfg_file(tmp_path, "triples_path = /nope.tsv\n"))
        assert cfg is None
        assert any("triples_path" in e and "not found" in e for e in errors)

    def test_empty_or_directory_config_path(self, tmp_path):
        for path in ("", tmp_path):
            assert validate_config(path) == (None, [f"config file not found: {Path(path)}"])

    def test_a_byte_that_is_not_utf8_is_one_error(self, tmp_path):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b"epochs = 3\n# caf\xff\n")
        assert validate_config(path) == (None, [f"config file is not UTF-8 (invalid start byte): {path}"])

    def test_lines_end_where_data_file_lines_end(self, tmp_path):
        # \r\n and \r end a line, as in the data files; a form feed does not.
        path = tmp_path / "exp.cfg"
        path.write_bytes(b"epochs = 3\r\nlr = 0.5\rseeds = 1\x0c2\n")
        assert validate_config(path) == (None, ["seeds: cannot parse value '1\\x0c2'"])

    def test_snapshot_is_fixed_point(self, tmp_path):
        original, errors = validate_config(
            _cfg_file(tmp_path, "preset = mutag\nseeds = 1,2\nlr = 0.02\nbeta = 0.25\n")
        )
        assert errors == []
        snap_path = _cfg_file(tmp_path, snapshot(original), name="snap.cfg")
        resolved, errors = validate_config(snap_path)
        assert errors == []
        assert resolved == original
        assert snapshot(resolved) == snapshot(original)


GOLDEN = Path(__file__).parent / "golden"


class TestCliNodeClassification:
    @pytest.mark.parametrize(
        "dropout, golden", [("0.0", "toy_metrics.csv"), ("0.4", "toy_metrics_dropout.csv")]
    )
    def test_toy_metrics_match_golden_bytes(self, toy_config, tmp_path, dropout, golden):
        # The README quick-start run (dropout 0.0), and the same with dropout
        # 0.4, whose masks come from the seeded generator.  Recorded with numpy
        # 2.4 on x86-64; another BLAS or SIMD exp may move the last digits.
        assert main(["train-nc", "--config", str(toy_config), "--set", f"dropout={dropout}"]) == 0
        metrics = (tmp_path / "out" / "seed_0" / "metrics.csv").read_bytes()
        assert metrics == (GOLDEN / golden).read_bytes()

    def test_toy_multi_edge_groups_match_golden_bytes(self, toy_config, tmp_path):
        # The README quick-start run with inverses and dropout 0.4: its graph
        # has 2 groups of 5 edges among 44 groups, so node attention chooses
        # there, unlike the toy graph without inverses, whose groups all hold
        # one edge.  Its metrics.csv and export-attention's attention.json.
        # Recorded with numpy 2.4 on x86-64; another BLAS or SIMD exp may move the last digits.
        multi = ["--set", "add_inverse=true", "--set", "dropout=0.4"]
        assert main(["train-nc", "--config", str(toy_config), *multi]) == 0
        metrics = (tmp_path / "out" / "seed_0" / "metrics.csv").read_bytes()
        assert metrics == (GOLDEN / "toy_multi_metrics.csv").read_bytes()
        ckpt = f"checkpoint={tmp_path / 'out' / 'seed_0' / 'checkpoint.npz'}"
        att = ["--set", ckpt, "--set", f"output_dir={tmp_path / 'att'}"]
        assert main(["export-attention", "--config", str(toy_config), *multi, *att]) == 0
        attention = (tmp_path / "att" / "attention.json").read_bytes()
        assert attention == (GOLDEN / "toy_multi_attention.json").read_bytes()

    @pytest.mark.parametrize("patience, golden", [(0, "toy_valid_metrics.csv"), (2, "toy_valid_stop_metrics.csv")])
    def test_toy_valid_split_matches_golden_bytes(self, toy_config, tmp_path, patience, golden):
        # The quick-start run with inverses, dropout 0.4 and lines 4 and 8 of
        # the training split (one node of each class) as a validation split.
        # Without early stopping every metrics forward but the last runs over
        # the train and valid nodes' receptive fields; with patience 2 every
        # one runs over the whole graph, and the run stops after 3 epochs.
        # Recorded while every forward still ran over the whole graph, with
        # numpy 2.4 on x86-64; another BLAS or SIMD exp may move the last digits.
        lines = (importlib.resources.files("brgcn.data") / "toy_nc_train.txt").read_text().splitlines()
        (tmp_path / "train.txt").write_text("".join(f"{x}\n" for k, x in enumerate(lines) if k not in (3, 7)))
        (tmp_path / "valid.txt").write_text(f"{lines[3]}\n{lines[7]}\n")
        split = ["--set", f"train_nodes_path={tmp_path / 'train.txt'}",
                 "--set", f"valid_nodes_path={tmp_path / 'valid.txt'}"]
        multi = ["--set", "add_inverse=true", "--set", "dropout=0.4", "--set", f"early_stop_patience={patience}"]
        assert main(["train-nc", "--config", str(toy_config), *split, *multi]) == 0
        metrics = (tmp_path / "out" / "seed_0" / "metrics.csv").read_bytes()
        assert metrics == (GOLDEN / golden).read_bytes()
        assert len(metrics.splitlines()) == (86 if patience == 0 else 4)

    def test_toy_training_run(self, toy_config, tmp_path):
        assert main(["train-nc", "--config", str(toy_config)]) == 0
        out = tmp_path / "out"
        metrics = (out / "seed_0" / "metrics.csv").read_text().strip().splitlines()
        assert metrics[0] == "epoch,loss,train_acc,val_metric"
        assert len(metrics) == 1 + 85
        final = metrics[-1].split(",")
        assert float(final[2]) == 100.0
        assert (out / "seed_0" / "checkpoint.npz").exists()
        assert (out / "config.resolved").exists()

    def test_determinism_across_runs(self, toy_config, tmp_path):
        assert main(["train-nc", "--config", str(toy_config), "--set", "epochs=10"]) == 0
        first = (tmp_path / "out" / "seed_0" / "metrics.csv").read_bytes()
        assert (
            main(
                [
                    "train-nc",
                    "--config",
                    str(toy_config),
                    "--set",
                    "epochs=10",
                    "--set",
                    f"output_dir={tmp_path / 'out2'}",
                ]
            )
            == 0
        )
        second = (tmp_path / "out2" / "seed_0" / "metrics.csv").read_bytes()
        assert first == second

    def test_eval_and_export_attention(self, toy_config, tmp_path):
        main(["train-nc", "--config", str(toy_config), "--set", "epochs=20"])
        ckpt = tmp_path / "out" / "seed_0" / "checkpoint.npz"
        code = main(
            [
                "eval",
                "--config",
                str(toy_config),
                "--set",
                f"checkpoint={ckpt}",
                "--set",
                f"output_dir={tmp_path / 'eval'}",
            ]
        )
        assert code == 0
        results = json.loads((tmp_path / "eval" / "results.json").read_text())
        assert results["accuracy_train"] == 100.0
        code = main(
            [
                "export-attention",
                "--config",
                str(toy_config),
                "--set",
                f"checkpoint={ckpt}",
                "--set",
                f"output_dir={tmp_path / 'att'}",
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "att" / "attention.json").read_text())
        assert payload["relations"]
        for layer in payload["layers"]:
            for vec in layer["gamma"].values():
                assert abs(sum(vec) - 1.0) <= 1e-9
            for mat in layer["psi"].values():
                for row in mat:
                    assert abs(sum(row) - 1.0) <= 1e-9

    def test_eval_refuses_checkpoint_with_extra_relations(self, toy_config, tmp_path, capsys):
        # Trained with inverse relations, evaluated without them: layer 0
        # stores one entry of a per group and per live tail slot, and the
        # inverses add both, so the first group, layer0.a, is longer than
        # the smaller model's and the load must fail.
        args = ["--config", str(toy_config), "--set", "epochs=2"]
        assert main(["train-nc", *args, "--set", "add_inverse=true"]) == 0
        ckpt = tmp_path / "out" / "seed_0" / "checkpoint.npz"
        capsys.readouterr()
        code = main(
            ["eval", *args, "--set", f"checkpoint={ckpt}", "--set", f"output_dir={tmp_path / 'ev'}"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "checkpoint shape (88,) != expected (56,)" in err
        assert "'layer0.a'" in err

    def test_eval_without_checkpoint_is_config_error(self, toy_config):
        assert main(["eval", "--config", str(toy_config)]) == 2

    def test_eval_with_missing_checkpoint_path(self, toy_config):
        code = main(
            ["eval", "--config", str(toy_config), "--set", "checkpoint=/missing.npz"]
        )
        assert code == 2

    def test_bad_config_key_exits_2(self, toy_config):
        assert main(["train-nc", "--config", str(toy_config), "--set", "bogus=1"]) == 2

    def test_bad_set_syntax_exits_2(self, toy_config):
        assert main(["train-nc", "--config", str(toy_config), "--set", "oops"]) == 2

    def test_missing_config_file_exits_2(self):
        assert main(["train-nc", "--config", "/does/not/exist.cfg"]) == 2

    def test_numeric_failure_exits_3(self, toy_config):
        code = main(
            ["train-nc", "--config", str(toy_config), "--set", "l2_penalty=1e308"]
        )
        assert code == 3

    def test_overflowing_update_names_its_epoch_and_parameter(self, toy_config, tmp_path, capsys):
        # Adam's first step at lr 1e308 overflows; the evaluation forward that reads it is trapped.
        assert main(["train-nc", "--config", str(toy_config), "--set", "lr=1e308"]) == 3
        err = capsys.readouterr().err
        assert "epoch 0: non-finite values" in err and "offending parameter: layer0." in err
        assert not (tmp_path / "out").exists()

    def test_ablate_writes_rows(self, toy_config, tmp_path):
        code = main(
            [
                "ablate",
                "--config",
                str(toy_config),
                "--set",
                "epochs=3",
                "--set",
                "ablation_fractions=0.5,1.0",
                "--set",
                f"output_dir={tmp_path / 'abl'}",
            ]
        )
        assert code == 0
        rows = (tmp_path / "abl" / "ablation.csv").read_text().strip().splitlines()
        assert rows[0] == "strategy,fraction,seed,accuracy"
        assert len(rows) == 1 + 3 * 2  # three strategies, two fractions, one seed
        assert (tmp_path / "abl" / "relation_scores.json").exists()


def _write_lp_dataset(tmp_path):
    graph = memorization_kg(num_entities=8, num_triples=14, seed=4)
    lines = [
        f"e{h}\tr{r}\te{t}" for h, r, t in graph.triples
    ]
    triples = tmp_path / "kg.tsv"
    triples.write_text("\n".join(lines) + "\n")
    train = tmp_path / "train.tsv"
    test = tmp_path / "test.tsv"
    train.write_text("\n".join(lines[:11]) + "\n")
    test.write_text("\n".join(lines[11:]) + "\n")
    return triples, train, test


class TestCliLinkPrediction:
    def test_readme_quick_start_matches_golden_bytes(self, tmp_path):
        # The README link-prediction quick start: the first 16 toy triples
        # train, the last 4 test, with inverses and self loops.  Recorded with
        # numpy 2.4 on x86-64; another BLAS or SIMD exp may move the last digits.
        data = importlib.resources.files("brgcn.data")
        lines = (data / "toy_nc_triples.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
        train, test = tmp_path / "toy_lp_train.tsv", tmp_path / "toy_lp_test.tsv"
        train.write_text("".join(lines[:16]), encoding="utf-8")
        test.write_text("".join(lines[-4:]), encoding="utf-8")
        cfg = _cfg_file(
            tmp_path,
            f"""task = link_prediction
triples_path = {data / 'toy_nc_triples.tsv'}
train_triples_path = {train}
test_triples_path = {test}
decoder = distmult
add_inverse = true
add_self_loop = true
hidden_units = 8
output_dir = {tmp_path / 'toy_lp'}
""",
        )
        out = tmp_path / "toy_lp"
        assert main(["train-lp", "--config", str(cfg)]) == 0
        assert main(["eval", "--config", str(out / "config.resolved"),
                     "--set", f"checkpoint={out / 'seed_0' / 'checkpoint.npz'}",
                     "--set", f"output_dir={tmp_path / 'toy_lp_eval'}"]) == 0
        assert (out / "seed_0" / "metrics.csv").read_bytes() == (GOLDEN / "toy_lp_metrics.csv").read_bytes()
        results = (tmp_path / "toy_lp_eval" / "results.json").read_bytes()
        assert results == (GOLDEN / "toy_lp_results.json").read_bytes()

    @pytest.mark.parametrize("decoder", ["distmult", "transe", "hole", "complex"])
    def test_train_eval_roundtrip(self, tmp_path, decoder):
        triples, train, test = _write_lp_dataset(tmp_path)
        cfg = _cfg_file(
            tmp_path,
            f"""task = link_prediction
triples_path = {triples}
train_triples_path = {train}
test_triples_path = {test}
decoder = {decoder}
hidden_units = 8
epochs = 30
dropout = 0.0
lr = 0.05
output_dir = {tmp_path / 'lp'}
""",
        )
        assert main(["train-lp", "--config", str(cfg)]) == 0
        ckpt = tmp_path / "lp" / "seed_0" / "checkpoint.npz"
        assert ckpt.exists()
        code = main(
            [
                "eval",
                "--config",
                str(cfg),
                "--set",
                f"checkpoint={ckpt}",
                "--set",
                f"output_dir={tmp_path / 'lp_eval'}",
            ]
        )
        assert code == 0
        results = json.loads((tmp_path / "lp_eval" / "results.json").read_text())
        for key in ("mrr_raw", "mrr_filtered", "hits@10_filtered"):
            assert key in results
        assert results["mrr_filtered"] >= results["mrr_raw"]

    def test_standalone_decoder_with_ensemble_eval(self, tmp_path):
        triples, train, test = _write_lp_dataset(tmp_path)
        base = f"""task = link_prediction
triples_path = {triples}
train_triples_path = {train}
test_triples_path = {test}
decoder = distmult
hidden_units = 8
epochs = 15
dropout = 0.0
lr = 0.05
"""
        enc_cfg = _cfg_file(tmp_path, base + f"output_dir = {tmp_path / 'enc'}\n", "enc.cfg")
        emb_cfg = _cfg_file(
            tmp_path,
            base + f"standalone_decoder = true\noutput_dir = {tmp_path / 'emb'}\n",
            "emb.cfg",
        )
        assert main(["train-lp", "--config", str(enc_cfg)]) == 0
        assert main(["train-lp", "--config", str(emb_cfg)]) == 0
        code = main(
            [
                "eval",
                "--config",
                str(enc_cfg),
                "--set",
                f"checkpoint={tmp_path / 'enc' / 'seed_0' / 'checkpoint.npz'}",
                "--set",
                f"ensemble_checkpoint={tmp_path / 'emb' / 'seed_0' / 'checkpoint.npz'}",
                "--set",
                "beta=0.4",
                "--set",
                f"output_dir={tmp_path / 'ens'}",
            ]
        )
        assert code == 0
        results = json.loads((tmp_path / "ens" / "results.json").read_text())
        assert "mrr_filtered" in results

    def test_ensemble_eval_with_standalone_hole(self, tmp_path):
        # The encoder model and the standalone embedding model both score with HolE.
        triples, train, test = _write_lp_dataset(tmp_path)
        base = f"""task = link_prediction
triples_path = {triples}
train_triples_path = {train}
test_triples_path = {test}
decoder = hole
hidden_units = 8
epochs = 15
dropout = 0.0
lr = 0.05
"""
        enc_cfg = _cfg_file(tmp_path, base + f"output_dir = {tmp_path / 'enc'}\n", "enc.cfg")
        emb_cfg = _cfg_file(
            tmp_path, base + f"standalone_decoder = true\noutput_dir = {tmp_path / 'emb'}\n", "emb.cfg"
        )
        assert main(["train-lp", "--config", str(enc_cfg)]) == 0
        assert main(["train-lp", "--config", str(emb_cfg)]) == 0
        code = main(
            [
                "eval",
                "--config",
                str(enc_cfg),
                "--set",
                f"checkpoint={tmp_path / 'enc' / 'seed_0' / 'checkpoint.npz'}",
                "--set",
                f"ensemble_checkpoint={tmp_path / 'emb' / 'seed_0' / 'checkpoint.npz'}",
                "--set",
                "beta=0.4",
                "--set",
                f"output_dir={tmp_path / 'ens'}",
            ]
        )
        assert code == 0
        results = json.loads((tmp_path / "ens" / "results.json").read_text())
        assert results["mrr_filtered"] >= results["mrr_raw"]
        for setting in ("raw", "filtered"):
            hits = [results[f"hits@{k}_{setting}"] for k in (1, 3, 10)]
            assert 0.0 <= hits[0] <= hits[1] <= hits[2] <= 1.0


    @pytest.mark.parametrize("which", ["checkpoint", "ensemble_checkpoint"])
    def test_eval_refuses_checkpoint_of_another_decoder(self, tmp_path, capsys, which):
        # Decoders of equal width have parameters of equal shapes; the kind in
        # their names is what tells a DistMult checkpoint from a HolE one.
        triples, train, test = _write_lp_dataset(tmp_path)
        base = f"""task = link_prediction
triples_path = {triples}
train_triples_path = {train}
test_triples_path = {test}
hidden_units = 8
epochs = 2
"""
        enc_cfg = _cfg_file(tmp_path, base + f"decoder = distmult\noutput_dir = {tmp_path / 'enc'}\n", "enc.cfg")
        emb_cfg = _cfg_file(
            tmp_path,
            base + f"decoder = hole\nstandalone_decoder = true\noutput_dir = {tmp_path / 'emb'}\n",
            "emb.cfg",
        )
        assert main(["train-lp", "--config", str(enc_cfg)]) == 0
        assert main(["train-lp", "--config", str(emb_cfg)]) == 0
        capsys.readouterr()
        args = ["--set", f"checkpoint={tmp_path / 'enc' / 'seed_0' / 'checkpoint.npz'}"]
        if which == "checkpoint":
            args += ["--set", "decoder=hole"]
            stray = "'decoder.distmult.rel'"
        else:
            args += ["--set", f"ensemble_checkpoint={tmp_path / 'emb' / 'seed_0' / 'checkpoint.npz'}"]
            stray = "'decoder.hole.entity', 'decoder.hole.rel'"
        code = main(["eval", "--config", str(enc_cfg), *args, "--set", f"output_dir={tmp_path / 'ev'}"])
        assert code == 2
        err = capsys.readouterr().err
        assert "checkpoint has parameters the model lacks" in err and stray in err
        assert not (tmp_path / "ev" / "results.json").exists()

    def test_complex_decoder_refuses_odd_width(self, tmp_path, capsys):
        triples, train, test = _write_lp_dataset(tmp_path)
        cfg = _cfg_file(
            tmp_path,
            f"""task = link_prediction
triples_path = {triples}
train_triples_path = {train}
decoder = complex
hidden_units = 7
output_dir = {tmp_path / 'lp'}
""",
        )
        assert main(["train-lp", "--config", str(cfg)]) == 2
        assert "complex decoder needs an even embedding width" in capsys.readouterr().err


class TestPerRelationCheckpoints:
    """Checkpoints in the per-relation format (one array per relation, decoder
    without its kind), written by the earlier code, evaluate as they did then."""

    @staticmethod
    def _eval(args, out, caplog):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="brgcn.training"):
            assert main(["eval", *args, "--set", f"output_dir={out}"]) == 0
        warnings = [r for r in caplog.records if "per-relation format" in r.getMessage()]
        assert len(warnings) == 1
        return (out / "results.json").read_bytes()

    def test_node_classification(self, toy_config, tmp_path, caplog):
        ckpt = GOLDEN / "per_relation_nc_checkpoint.npz"
        args = ["--config", str(toy_config), "--set", "hidden_units=4", "--set", f"checkpoint={ckpt}"]
        results = self._eval(args, tmp_path / "ev", caplog)
        assert results == (GOLDEN / "per_relation_nc_results.json").read_bytes()
        assert main(["export-attention", *args, "--set", f"output_dir={tmp_path / 'att'}"]) == 0
        attention = (tmp_path / "att" / "attention.json").read_bytes()
        assert attention == (GOLDEN / "per_relation_nc_attention.json").read_bytes()

    def test_link_prediction(self, tmp_path, caplog):
        data = importlib.resources.files("brgcn.data")
        lines = (data / "toy_nc_triples.tsv").read_text().splitlines(keepends=True)
        (tmp_path / "train.tsv").write_text("".join(lines[:16]))
        (tmp_path / "test.tsv").write_text("".join(lines[-4:]))
        cfg = _cfg_file(
            tmp_path,
            f"""task = link_prediction
triples_path = {data / 'toy_nc_triples.tsv'}
train_triples_path = {tmp_path / 'train.tsv'}
test_triples_path = {tmp_path / 'test.tsv'}
decoder = distmult
add_inverse = true
add_self_loop = true
hidden_units = 4
checkpoint = {GOLDEN / 'per_relation_lp_checkpoint.npz'}
""",
        )
        results = self._eval(["--config", str(cfg)], tmp_path / "ev", caplog)
        assert results == (GOLDEN / "per_relation_lp_results.json").read_bytes()


class TestFullSlotCheckpoints:
    """The README quick start's checkpoint as written before layer 0 stored its
    live slots only, each group in the full slot layout: it evaluates and
    exports as it did then."""

    def test_node_classification(self, toy_config, tmp_path, caplog):
        args = ["--config", str(toy_config), "--set", f"checkpoint={GOLDEN / 'toy_checkpoint.npz'}"]
        for command, name, golden in (
            ("eval", "results.json", "toy_results.json"),
            ("export-attention", "attention.json", "toy_attention.json"),
        ):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="brgcn.training"):
                assert main([command, *args, "--set", f"output_dir={tmp_path / command}"]) == 0
            assert [r.getMessage() for r in caplog.records] == [
                "checkpoint in the full slot layout: layer 0 keeps the rows of the graph's live slots"
            ]
            assert (tmp_path / command / name).read_bytes() == (GOLDEN / golden).read_bytes()

    def test_node_classification_under_bases(self, toy_config, tmp_path, caplog):
        # The quick start with 2 bases and inverses, written while layer 0 under bases kept a in the
        # full slot layout: its a is reduced to the live rows, and it evaluates as it did then.
        args = ["--config", str(toy_config), "--set", "num_bases=2", "--set", "add_inverse=true",
                "--set", f"checkpoint={GOLDEN / 'toy_bases_checkpoint.npz'}", "--set", f"output_dir={tmp_path}"]
        with caplog.at_level(logging.WARNING, logger="brgcn.training"):
            assert main(["eval", *args]) == 0
        assert [r.getMessage() for r in caplog.records] == [
            "checkpoint in the full slot layout: layer 0 keeps the rows of the graph's live slots"
        ]
        assert (tmp_path / "results.json").read_bytes() == (GOLDEN / "toy_bases_results.json").read_bytes()


class TestCliVariants:
    """``variant`` is read from the config by both tasks and every subcommand."""

    def test_node_only_runs_every_nc_command(self, toy_config, tmp_path):
        args = ["--config", str(toy_config), "--set", "variant=node_only", "--set", "epochs=5"]
        assert main(["train-nc", *args]) == 0
        assert (tmp_path / "out" / "seed_0" / "metrics.csv").read_text().count("\n") == 1 + 5
        ckpt = tmp_path / "out" / "seed_0" / "checkpoint.npz"
        for command, out in (("eval", "ev"), ("export-attention", "att")):
            where = ["--set", f"checkpoint={ckpt}", "--set", f"output_dir={tmp_path / out}"]
            assert main([command, *args, *where]) == 0
        layers = json.loads((tmp_path / "att" / "attention.json").read_text())["layers"]
        assert len(layers) == 2 and all(layer["gamma"] and not layer["psi"] for layer in layers)
        # ablate, which ranks relations by psi, refuses it (TestRefusedRunsWriteNothing).

    def test_link_prediction_encoder_follows_the_variant(self, tmp_path):
        triples, train, test = _write_lp_dataset(tmp_path)
        cfg = _cfg_file(
            tmp_path,
            f"""task = link_prediction
triples_path = {triples}
train_triples_path = {train}
test_triples_path = {test}
hidden_units = 8
epochs = 5
""",
        )
        metrics = {}
        for variant in ("full", "rgcn_baseline"):
            args = ["--set", f"variant={variant}", "--set", f"output_dir={tmp_path / variant}"]
            assert main(["train-lp", "--config", str(cfg), *args]) == 0
            metrics[variant] = (tmp_path / variant / "seed_0" / "metrics.csv").read_bytes()
        assert metrics["full"] != metrics["rgcn_baseline"]
        ckpt = tmp_path / "rgcn_baseline" / "seed_0" / "checkpoint.npz"
        args = ["--set", "variant=rgcn_baseline", "--set", f"checkpoint={ckpt}"]
        args += ["--set", f"output_dir={tmp_path / 'att'}"]
        assert main(["export-attention", "--config", str(cfg), *args]) == 0
        layers = json.loads((tmp_path / "att" / "attention.json").read_text())["layers"]
        assert len(layers) == 1 and layers[0]["gamma"] and layers[0]["psi"] == {}
        # rgcn_baseline's gamma is the uniform 1/|N_i^r| it aggregates with
        assert all(vec == [1 / len(vec)] * len(vec) for vec in layers[0]["gamma"].values())


class TestCliTaskDecision:
    """The config's ``task`` chooses the pipeline; a training subcommand refuses another task."""

    def _lp_cfg(self, tmp_path, task_line):
        triples, train, test = _write_lp_dataset(tmp_path)
        return _cfg_file(
            tmp_path,
            f"""{task_line}
triples_path = {triples}
train_triples_path = {train}
test_triples_path = {test}
hidden_units = 8
epochs = 3
output_dir = {tmp_path / 'lp'}
""",
        )

    def test_train_lp_refuses_config_without_task(self, tmp_path, capsys):
        cfg = self._lp_cfg(tmp_path, "")
        assert main(["train-lp", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "task" in err and "link_prediction" in err and "node_classification" in err
        assert not (tmp_path / "lp").exists()

    def test_train_lp_refuses_early_stopping(self, tmp_path, capsys):
        # link prediction records no validation metric to stop on
        cfg = self._lp_cfg(tmp_path, "task = link_prediction")
        assert main(["train-lp", "--config", str(cfg), "--set", "early_stop_patience=2"]) == 2
        assert "early_stop_patience" in capsys.readouterr().err
        assert not (tmp_path / "lp" / "seed_0").exists()

    @pytest.mark.parametrize("command", ["train-nc", "ablate"])
    def test_nc_commands_refuse_link_prediction(self, toy_config, tmp_path, capsys, command):
        code = main([command, "--config", str(toy_config), "--set", "task=link_prediction"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{command} needs task = node_classification" in err and "link_prediction" in err
        assert not (tmp_path / "out").exists()

    def test_resolved_lp_config_evaluates(self, tmp_path):
        cfg = self._lp_cfg(tmp_path, "task = link_prediction")
        assert main(["train-lp", "--config", str(cfg)]) == 0
        resolved = tmp_path / "lp" / "config.resolved"
        ckpt = tmp_path / "lp" / "seed_0" / "checkpoint.npz"
        out = tmp_path / "lp_eval"
        args = ["--set", f"checkpoint={ckpt}", "--set", f"output_dir={out}"]
        assert main(["eval", "--config", str(resolved), *args]) == 0
        assert "mrr_filtered" in json.loads((out / "results.json").read_text())


class TestRefusedRunsWriteNothing:
    """A run refused for its config or inputs exits 2 and leaves no output directory."""

    def test_train_lp_with_early_stopping(self, tmp_path, capsys):
        triples, train, _ = _write_lp_dataset(tmp_path)
        cfg = _cfg_file(
            tmp_path,
            f"task = link_prediction\ntriples_path = {triples}\ntrain_triples_path = {train}\n"
            f"epochs = 2\noutput_dir = {tmp_path / 'lp'}\n",
        )
        assert main(["train-lp", "--config", str(cfg), "--set", "early_stop_patience=2"]) == 2
        assert "early_stop_patience" in capsys.readouterr().err
        assert not (tmp_path / "lp").exists()

    def test_eval_without_labels(self, toy_config, tmp_path, capsys):
        text = toy_config.read_text().splitlines(keepends=True)
        cfg = _cfg_file(tmp_path, "".join(line for line in text if not line.startswith("labels_path")))
        ckpt = GOLDEN / "per_relation_nc_checkpoint.npz"
        args = ["--set", "hidden_units=4", "--set", f"checkpoint={ckpt}"]
        assert main(["eval", "--config", str(cfg), *args]) == 2
        assert "labels_path" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_export_attention_with_an_unknown_test_node(self, toy_config, tmp_path, capsys):
        (tmp_path / "test.txt").write_text("no_such_node\n")
        ckpt = GOLDEN / "per_relation_nc_checkpoint.npz"
        args = ["--set", "hidden_units=4", "--set", f"checkpoint={ckpt}"]
        args += ["--set", f"test_nodes_path={tmp_path / 'test.txt'}"]
        assert main(["export-attention", "--config", str(toy_config), *args]) == 2
        assert "no_such_node" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_train_nc_with_a_repeated_test_node(self, toy_config, tmp_path, capsys):
        # A node listed twice would count twice in the test accuracy.
        data = importlib.resources.files("brgcn.data")
        lines = (data / "toy_nc_test.txt").read_text(encoding="utf-8").splitlines(keepends=True)
        (tmp_path / "test.txt").write_text("".join(lines + lines[:1]), encoding="utf-8")
        args = ["--set", f"test_nodes_path={tmp_path / 'test.txt'}"]
        assert main(["train-nc", "--config", str(toy_config), *args]) == 2
        assert "repeat" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("variant", ["node_only", "rgcn_baseline"])
    def test_ablate_with_a_variant_without_psi(self, toy_config, tmp_path, capsys, monkeypatch, variant):
        def train(*args, **kwargs):
            raise AssertionError("ablate trained before refusing")

        monkeypatch.setattr(training, "train_node_classifier", train)
        assert main(["ablate", "--config", str(toy_config), "--set", f"variant={variant}"]) == 2
        assert variant in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_ablate_without_test_nodes(self, toy_config, tmp_path, capsys, monkeypatch):
        # With no split files every labeled node trains, so no accuracy is a test accuracy.
        def train(*args, **kwargs):
            raise AssertionError("ablate trained before refusing")

        monkeypatch.setattr(training, "train_node_classifier", train)
        text = toy_config.read_text().splitlines(keepends=True)
        cfg = _cfg_file(tmp_path, "".join(line for line in text if "_nodes_path" not in line))
        assert main(["ablate", "--config", str(cfg)]) == 2
        assert "no test nodes" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("setting", ["lr=inf", "l2_penalty=inf", "leaky_slope=nan", "leaky_slope=inf"])
    def test_train_nc_with_a_non_finite_setting(self, toy_config, tmp_path, capsys, setting):
        assert main(["train-nc", "--config", str(toy_config), "--set", setting]) == 2
        key = setting.partition("=")[0]
        assert f"config error: {key}: must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["config", "triples_path", "labels_path", "train_nodes_path"])
    def test_train_nc_with_a_file_that_is_not_utf8(self, toy_config, tmp_path, capsys, key):
        values = dict(line.split(" = ") for line in toy_config.read_text().splitlines())
        original = toy_config if key == "config" else Path(values[key])
        bad = tmp_path / "latin1"
        bad.write_bytes(original.read_bytes() + b"# caf\xff\n")
        args = ["--config", str(bad)] if key == "config" else ["--config", str(toy_config), "--set", f"{key}={bad}"]
        assert main(["train-nc", *args]) == 2
        what = {"config": "config error: config", "triples_path": "error: triple",
                "labels_path": "error: label", "train_nodes_path": "error: split"}[key]
        assert capsys.readouterr().err == f"{what} file is not UTF-8 (invalid start byte): {bad}\n"
        assert not (tmp_path / "out").exists()

    def test_train_lp_on_a_graph_without_valid_negatives(self, tmp_path, capsys):
        # Every (head, tail) pair of r is a triple, so no corruption of a training triple is a negative.
        _cfg_file(tmp_path, "a\tr\ta\na\tr\tb\nb\tr\ta\nb\tr\tb\n", "kg.tsv")
        _cfg_file(tmp_path, "a\tr\ta\na\tr\tb\nb\tr\ta\n", "train.tsv")
        _cfg_file(tmp_path, "b\tr\tb\n", "test.tsv")
        cfg = _cfg_file(
            tmp_path,
            f"task = link_prediction\ntriples_path = {tmp_path / 'kg.tsv'}\n"
            f"train_triples_path = {tmp_path / 'train.tsv'}\ntest_triples_path = {tmp_path / 'test.tsv'}\n"
            f"epochs = 2\nhidden_units = 4\noutput_dir = {tmp_path / 'lp'}\n",
        )
        assert main(["train-lp", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == "error: no valid corruption of (0, 0, 0) found in 100 draws\n"
        assert "Traceback" not in err
        assert not (tmp_path / "lp").exists()

    def test_eval_of_a_standalone_decoder_with_a_nan_embedding(self, tmp_path, capsys):
        triples, train, test = _write_lp_dataset(tmp_path)
        cfg = _cfg_file(
            tmp_path,
            f"task = link_prediction\ntriples_path = {triples}\ntrain_triples_path = {train}\n"
            f"test_triples_path = {test}\nstandalone_decoder = true\nhidden_units = 4\nepochs = 2\n"
            f"output_dir = {tmp_path / 'lp'}\n",
        )
        assert main(["train-lp", "--config", str(cfg)]) == 0
        arrays = load_checkpoint(tmp_path / "lp" / "seed_0" / "checkpoint.npz")
        arrays["decoder.distmult.entity"][0, 0] = np.nan
        save_checkpoint(tmp_path / "nan.npz", arrays)
        capsys.readouterr()
        args = ["--set", f"checkpoint={tmp_path / 'nan.npz'}", "--set", f"output_dir={tmp_path / 'eval'}"]
        assert main(["eval", "--config", str(cfg), *args]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: score_fn returned a non-finite score for test triple (")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("kind", ["text", "npy"])
    def test_eval_of_a_file_that_is_no_checkpoint(self, toy_config, tmp_path, capsys, kind):
        ckpt = tmp_path / "ckpt.npz"
        if kind == "text":
            ckpt.write_text("not a checkpoint\n")
        else:
            with open(ckpt, "wb") as fh:
                np.save(fh, np.zeros(3))
        assert main(["eval", "--config", str(toy_config), "--set", f"checkpoint={ckpt}"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {ckpt} is not a recognized checkpoint (not an .npz archive)\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where", ["empty", "directory"])
    def test_train_nc_with_an_empty_or_directory_path(self, toy_config, tmp_path, capsys, where):
        value = "" if where == "empty" else str(tmp_path)
        assert main(["train-nc", "--config", str(toy_config), "--set", f"labels_path={value}"]) == 2
        assert "labels_path" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
