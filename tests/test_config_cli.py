"""Config validation, resolution, snapshots, and the CLI surface."""

import json

import numpy as np
import pytest

from brgcn.cli import main
from brgcn.config import ExperimentConfig, snapshot, validate_config
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


class TestCliNodeClassification:
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
        # Trained with inverse relations, evaluated without them: every
        # weight has the right shape, but the inverse relations' weights
        # have no place in the smaller model, so the load must fail.
        args = ["--config", str(toy_config), "--set", "epochs=2"]
        assert main(["train-nc", *args, "--set", "add_inverse=true"]) == 0
        ckpt = tmp_path / "out" / "seed_0" / "checkpoint.npz"
        capsys.readouterr()
        code = main(
            ["eval", *args, "--set", f"checkpoint={ckpt}", "--set", f"output_dir={tmp_path / 'ev'}"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "checkpoint has parameters the model lacks" in err
        assert "layer0.a.4" in err and "layer1.w_value.4" in err

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

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_numeric_failure_exits_3(self, toy_config):
        code = main(
            ["train-nc", "--config", str(toy_config), "--set", "l2_penalty=1e308"]
        )
        assert code == 3

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
    def test_train_eval_roundtrip(self, tmp_path):
        triples, train, test = _write_lp_dataset(tmp_path)
        cfg = _cfg_file(
            tmp_path,
            f"""task = link_prediction
triples_path = {triples}
train_triples_path = {train}
test_triples_path = {test}
decoder = distmult
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
