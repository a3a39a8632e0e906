"""Losses, negative sampling, the optimizer, and the training pipelines."""

import ctypes
import logging
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import brgcn
from brgcn import diffnum as dn
from brgcn import hetgraph as hg
from brgcn import evalkit, training
from brgcn import layer as layer_mod
from brgcn.diffnum import Tape, Tensor
from brgcn.layer import BrgcnLayerParams, ConfigurationError
from brgcn.training import (
    M_TOP_PAD,
    TRAINING_TOP_PAD,
    Adam,
    NodeClassificationModel,
    SamplingExhaustedError,
    TrainConfig,
    TrainingAbort,
    lp_loss,
    nc_loss,
    negative_sample,
    optimize,
    train_link_predictor,
    train_node_classifier,
)
from gradcheck import grad_check
from synth import memorization_kg, planted_graph


def _filtered_draws(positives, num_nodes, known, rng, omega):
    """The negatives of ``positives`` as the sampler draws them, filtered against the plain set ``known``."""
    out = []
    for h, r, t in positives:
        for _ in range(omega):
            while True:
                k = math.floor(rng.random() * 2 * num_nodes)  # cells 0..N-1 corrupt the head, N..2N-1 the tail
                cand = (k, r, t) if k < num_nodes else (h, r, k - num_nodes)
                if cand not in known:
                    out.append(cand)
                    break
    return out


def _labels(ids, mapping, k):
    return hg.NodeLabels(tuple(ids), dict(mapping), k)


class TestNcLoss:
    def test_perfect_one_hot_gives_zero(self):
        probs = Tensor(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))
        labels = _labels([0, 1, 2], {0: 0, 1: 1, 2: 0}, 2)
        assert nc_loss(probs, labels).item() == pytest.approx(0.0, abs=1e-12)

    def test_uniform_prediction(self):
        probs = Tensor(np.full((6, 2), 0.5))
        labels = _labels([0, 1, 2, 3], {i: i % 2 for i in range(4)}, 2)
        assert nc_loss(probs, labels).item() == pytest.approx(4 * math.log(2))

    def test_unlabeled_nodes_contribute_nothing(self):
        probs = np.full((6, 2), 0.5)
        probs[4] = [0.01, 0.99]  # unlabeled rows may be anything
        labels = _labels([0, 1], {0: 0, 1: 1}, 2)
        assert nc_loss(Tensor(probs), labels).item() == pytest.approx(2 * math.log(2))

    def test_random_case_matches_hand_sum(self):
        rng = np.random.default_rng(0)
        raw = rng.uniform(0.05, 1.0, size=(5, 3))
        probs = raw / raw.sum(axis=1, keepdims=True)
        classes = {i: int(rng.integers(3)) for i in range(5)}
        labels = _labels(range(5), classes, 3)
        expected = -sum(math.log(probs[i, classes[i]]) for i in range(5))
        assert nc_loss(Tensor(probs), labels).item() == pytest.approx(expected, rel=1e-12)

    def test_nonnegative_and_zero_only_at_one_hot(self):
        labels = _labels([0], {0: 1}, 2)
        almost = Tensor(np.array([[0.05, 0.95]]))
        assert nc_loss(almost, labels).item() > 0.0

    def test_zero_probability_clamped_with_warning(self, caplog):
        labels = _labels([0], {0: 0}, 2)
        with caplog.at_level(logging.WARNING):
            value = nc_loss(Tensor(np.array([[0.0, 1.0]])), labels).item()
        assert value == pytest.approx(-math.log(1e-12))
        assert any("clamped" in r.message for r in caplog.records)


class TestLpLoss:
    def test_normalization_constant(self):
        # c = -1/len(y): one positive at alpha=0 among 20 labels contributes
        # log(1/2)/20; 19 negatives at alpha=-500 contribute nothing
        loss = lp_loss((1,) + (0,) * 19, Tensor(np.array([0.0] + [-500.0] * 19)))
        assert loss.item() == pytest.approx(math.log(2) / 20)

    def test_all_zero_scores_batch(self):
        loss = lp_loss((1, 1, 0, 0), Tensor(np.zeros(4)))
        assert loss.item() == pytest.approx(4 * math.log(2) / 4)

    def test_perfect_separation_limit(self):
        loss = lp_loss((1, 0), Tensor(np.array([500.0, -500.0])))
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_loss_is_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = 6
            y = tuple(int(rng.integers(2)) for _ in range(n))
            loss = lp_loss(y, Tensor(rng.normal(size=n) * 3))
            assert loss.item() >= 0.0

    def test_monotone_in_scores(self):
        # dL/d(alpha_pos) < 0 and dL/d(alpha_neg) > 0
        scores = dn.param(np.array([0.3, -0.2]))
        with Tape() as tape:
            tape.backward(lp_loss((1, 0), scores))
        assert scores.grad[0] < 0.0
        assert scores.grad[1] > 0.0

    def test_saturation_warning(self, caplog):
        with caplog.at_level(logging.WARNING):
            lp_loss((1,), Tensor(np.array([-80.0])))
        assert any("clamped" in r.message for r in caplog.records)

    def test_batch_validation(self):
        # labels of another length than the scores, or a label other than 0 and 1
        with pytest.raises(dn.DimensionError, match="does not match 2 labels"):
            lp_loss((1, 0), Tensor(np.zeros(1)))
        with pytest.raises(ConfigurationError):
            lp_loss((2,), Tensor(np.zeros(1)))

    @pytest.mark.parametrize("bad", [(-1,), (0.5,), ("a",), (None,), ([0],)])
    def test_batch_refuses_every_y_but_0_and_1(self, bad):
        with pytest.raises(ConfigurationError, match="y entries must be 0 or 1"):
            lp_loss(bad, Tensor(np.zeros(1)))

    @pytest.mark.parametrize("good", [(1,), (0, 1, 1), (True, False), (1.0, 0.0)])
    def test_batch_accepts_zeros_and_ones(self, good):
        lp_loss(good, Tensor(np.zeros(len(good))))

    def test_scale_is_one_over_the_label_count(self):
        rng = np.random.default_rng(8)
        for n in (1, 2, 7, 40):
            y = rng.integers(0, 2, size=n)
            a = rng.normal(size=n) * 2
            p = 1.0 / (1.0 + np.exp(-a))
            loglik = np.sum(y * np.log(p) + (1 - y) * np.log(1 - p))
            assert lp_loss(y, Tensor(a)).item() == pytest.approx(-loglik / n, rel=1e-12)

    def test_empty_batch_refused(self):
        with pytest.raises(ConfigurationError, match="at least one scored triple"):
            lp_loss((), Tensor(np.zeros(0)))


class TestNegativeSampling:
    def _graph(self):
        return hg.HeteroGraph.from_triples(
            [(0, 0, 1), (1, 0, 2), (2, 0, 3), (3, 0, 4), (4, 0, 0)], num_nodes=5
        )

    def test_omega_count_and_filtering(self):
        g = self._graph()
        rng = np.random.default_rng(0)
        for omega in (1, 3):
            negs = negative_sample((0, 0, 1), g, rng, omega=omega)
            assert len(negs) == omega
            for h, r, t in negs:
                assert r == 0
                assert (h, r, t) not in g.triple_set

    def test_graph_triple_set_filters_as_a_plain_set_does(self):
        g = self._graph()
        for seed in range(5):
            got = negative_sample((0, 0, 1), g, np.random.default_rng(seed), omega=20)
            want = _filtered_draws([(0, 0, 1)], 5, set(g.triple_set), np.random.default_rng(seed), 20)
            assert got == want

    def test_exactly_one_slot_differs(self):
        g = self._graph()
        rng = np.random.default_rng(1)
        for _ in range(200):
            (h, r, t), = negative_sample((2, 0, 3), g, rng)
            assert (h == 2) != (t == 3)

    def test_exhaustion_when_all_corruptions_are_positive(self):
        g = hg.HeteroGraph.from_triples(
            [(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1)], num_nodes=2
        )
        with pytest.raises(SamplingExhaustedError):
            negative_sample((0, 0, 1), g, np.random.default_rng(2))

    def test_head_tail_balance_within_3_sigma(self):
        g = self._graph()
        rng = np.random.default_rng(3)
        heads = 0
        n = 10_000
        for _ in range(n):
            (h, r, t), = negative_sample((1, 0, 2), g, rng)
            heads += h != 1
        sigma = math.sqrt(n * 0.25)
        assert abs(heads - n / 2) <= 3 * sigma

    def test_each_cell_of_one_positive_within_5_sigma(self):
        # 7 nodes give 14 (end, entity) cells; the positive fills a head and
        # a tail cell, and (3, 0, 2) and (1, 0, 5) one more of each.
        n = 7
        g = hg.HeteroGraph.from_triples([(i, 0, (i + 1) % n) for i in range(n)] + [(3, 0, 2), (1, 0, 5)])
        counts = {}
        for neg in negative_sample((1, 0, 2), g, np.random.default_rng(4), omega=14_000):
            cell = ("head", neg[0]) if neg[0] != 1 else ("tail", neg[2])
            counts[cell] = counts.get(cell, 0) + 1
        free = [(end, e) for end in ("head", "tail") for e in range(n)
                if ((e, 0, 2) if end == "head" else (1, 0, e)) not in g.triple_set]
        assert len(free) == 10 and set(counts) <= set(free)
        p = 1 / len(free)
        sigma = math.sqrt(14_000 * p * (1 - p))
        for cell in free:
            assert abs(counts.get(cell, 0) - 14_000 * p) <= 5 * sigma, cell

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 500, 14541])
    def test_the_lowest_uniform_corrupts_the_first_head_and_the_highest_the_last_tail(self, n):
        class Uniforms:  # a generator stub that returns the given doubles in turn
            def __init__(self, *values):
                self.values = iter(values)

            def random(self):
                return next(self.values)

        g = hg.HeteroGraph.from_triples(np.zeros((0, 3), dtype=np.int64), num_nodes=n)
        positive = (n - 1, 0, 0)
        assert negative_sample(positive, g, Uniforms(0.0)) == [(0, 0, 0)]
        assert negative_sample(positive, g, Uniforms(np.nextafter(1.0, 0.0))) == [(n - 1, 0, n - 1)]

    def test_an_unrejected_negative_consumes_one_double(self):
        g = hg.HeteroGraph.from_triples(np.zeros((0, 3), dtype=np.int64), num_nodes=5)
        rng, replay = np.random.default_rng(9), np.random.default_rng(9)
        assert len(negative_sample((0, 0, 1), g, rng)) == 1
        replay.random()
        assert rng.bit_generator.state == replay.bit_generator.state
        # so omega unrejected negatives are the cells of one bulk draw of omega doubles
        negs = negative_sample((0, 0, 1), g, rng, omega=6)
        cells = (replay.random(6) * 10).astype(int).tolist()
        assert negs == [(k, 0, 1) if k < 5 else (0, 0, k - 5) for k in cells]
        assert rng.bit_generator.state == replay.bit_generator.state

    def test_fixed_seed_reproduces_samples(self):
        g = self._graph()
        a = negative_sample((0, 0, 1), g, np.random.default_rng(7), omega=5)
        b = negative_sample((0, 0, 1), g, np.random.default_rng(7), omega=5)
        assert a == b


class TestOptimize:
    def test_quadratic_bowl(self):
        theta = dn.param(np.array([2.0, -1.5, 0.7]), name="theta")
        cfg = TrainConfig(lr=0.1, epochs=500, dropout=0.0)
        optimize([theta], lambda epoch: dn.tsum(dn.mul(theta, theta)), cfg)
        assert np.linalg.norm(theta.data) < 1e-3

    def test_fixed_seed_bit_reproducible(self):
        def run():
            rng = np.random.default_rng(42)
            theta = dn.param(rng.normal(size=4))
            cfg = TrainConfig(lr=0.05, epochs=50, dropout=0.0)
            curve = optimize(
                [theta],
                lambda epoch: dn.tsum(dn.mul(dn.sub(theta, rng.normal(size=4)), dn.sub(theta, 1.0))),
                cfg,
            )
            return curve, theta.data.copy()

        curve_a, theta_a = run()
        curve_b, theta_b = run()
        assert curve_a == curve_b
        assert np.array_equal(theta_a, theta_b)

    def test_l2_penalty_added_to_objective(self):
        theta = dn.param(np.array([3.0]))
        cfg = TrainConfig(lr=1e-9, epochs=1, l2_penalty=0.5, dropout=0.0)
        curve = optimize([theta], lambda epoch: dn.tsum(theta), cfg)
        assert curve == [pytest.approx(3.0 + 0.5 * 9.0)]

    def test_the_step_is_released_before_adam_and_on_epoch_run(self, monkeypatch):
        # Each step tapes a 24 MB product; none of it is alive when Adam or on_epoch runs.
        theta, wide = dn.param(np.ones((3, 1))), np.ones(1_000_000)
        live = []

        def measured(fn):
            return lambda *args: (live.append(tracemalloc.get_traced_memory()[0]), fn(*args))[1]

        monkeypatch.setattr(Adam, "step", measured(Adam.step))
        tracemalloc.start()
        try:
            loss_fn = lambda epoch: dn.tsum(dn.mul(theta, wide))
            optimize([theta], loss_fn, TrainConfig(epochs=2, dropout=0.0), on_epoch=measured(lambda e, v: None))
        finally:
            tracemalloc.stop()
        assert len(live) == 4 and max(live) < 1_000_000, live

    def test_nan_loss_aborts_with_epoch_and_parameter(self):
        theta = dn.param(np.array([30.0]), name="theta")
        cfg = TrainConfig(lr=1e3, epochs=50, dropout=0.0)
        with pytest.raises(TrainingAbort, match="epoch"):
            optimize([theta], lambda epoch: dn.tsum(dn.exp(dn.mul(theta, theta))), cfg)

    def test_overflowing_last_update_aborts_with_epoch_and_parameter(self):
        # lr * m_hat = 1e308 * 10 overflows; no later op reads theta, so optimize checks it once.
        theta = dn.param(np.array([1.0]), name="theta")
        cfg = TrainConfig(lr=1e308, epochs=1, dropout=0.0)
        with pytest.raises(TrainingAbort, match="^epoch 0: non-finite parameter .*offending parameter: theta$"):
            optimize([theta], lambda epoch: dn.tsum(dn.mul(theta, 10.0)), cfg)

    def test_overflow_in_a_training_step_aborts_instead_of_warning(self):
        # lambda * sum ||theta||^2 overflows in a finite mul; under the suite's
        # error::RuntimeWarning numpy's overflow warning must not escape first.
        graph, labels = planted_graph(num_labeled=10, num_distractors=3, seed=5)
        cfg = TrainConfig(epochs=2, hidden_units=4, l2_penalty=1e308)
        with pytest.raises(TrainingAbort, match="^epoch 0: non-finite values produced by op"):
            train_node_classifier(graph, labels, hg.SplitSpec(tuple(labels.labeled_ids)), cfg)

    def test_numeric_failure_in_on_epoch_aborts_with_epoch_and_parameter(self):
        theta = dn.param(np.array([1.0]), name="theta")

        def on_epoch(epoch, value):
            dn.exp(dn.mul(theta, 1e3))

        with pytest.raises(TrainingAbort, match="^epoch 0: non-finite values produced by op 'exp'"):
            optimize([theta], lambda epoch: dn.tsum(theta), TrainConfig(epochs=2, dropout=0.0), on_epoch=on_epoch)

    def test_adam_matches_reference_step(self):
        # one step from zero moments: update = lr * g / (sqrt(g^2) + eps)
        p = dn.param(np.array([1.0, -2.0]))
        p.grad = np.array([0.5, -1.0])
        adam = Adam([p], lr=0.1)
        adam.step()
        expected = np.array([1.0, -2.0]) - 0.1 * np.array([0.5, -1.0]) / (
            np.abs(np.array([0.5, -1.0])) + 1e-8
        )
        np.testing.assert_allclose(p.data, expected, atol=1e-12)

    def test_adam_in_place_is_bit_equal_to_the_formula(self):
        # 20 steps against the out-of-place formula; gradients span 1e-12..1e12,
        # with zeros, signed zeros and a missing gradient.
        rng = np.random.default_rng(9)
        shapes = [(3, 4), (5,), (2, 3)]
        params = [dn.param(rng.normal(size=s)) for s in shapes]
        buffers = [p.data for p in params]
        ref_p = [p.data.copy() for p in params]
        ref_m = [np.zeros(s) for s in shapes]
        ref_v = [np.zeros(s) for s in shapes]
        adam = Adam(params, lr=0.05)
        for t in range(1, 21):
            for k, p in enumerate(params):
                g = rng.normal(size=p.data.shape) * 10.0 ** rng.integers(-12, 13, size=p.data.shape)
                g.reshape(-1)[:2] = (0.0, -0.0)
                p.grad = None if (t + k) % 7 == 0 else g
                g = np.zeros_like(g) if p.grad is None else g
                ref_m[k] = 0.9 * ref_m[k] + (1 - 0.9) * g
                ref_v[k] = 0.999 * ref_v[k] + (1 - 0.999) * g * g
                m_hat, v_hat = ref_m[k] / (1 - 0.9**t), ref_v[k] / (1 - 0.999**t)
                ref_p[k] = ref_p[k] - 0.05 * m_hat / (np.sqrt(v_hat) + 1e-8)
            adam.step()
            for p, buf, want in zip(params, buffers, ref_p):
                assert p.data is buf  # updated in place
                assert np.array_equal(p.data.view(np.int64), want.view(np.int64))
        assert all(np.array_equal(a.view(np.int64), b.view(np.int64)) for a, b in zip(adam.m, ref_m))
        assert all(np.array_equal(a.view(np.int64), b.view(np.int64)) for a, b in zip(adam.v, ref_v))

    def test_config_validation(self):
        for bad in (
            dict(lr=-1.0),
            dict(dropout=1.0),
            dict(task="link_prediction", omega=0),
            dict(num_layers=0),
            dict(num_layers=-3),
            dict(hidden_units=0),
            dict(encoder_layers=0),
            dict(l2_penalty=-1),
        ):
            with pytest.raises(ConfigurationError):
                TrainConfig(**bad).validate()


# Faults of a one-hot NC model's epochs 2-5, printed by a fresh interpreter; with
# the argument "off" the epochs run without optimize's heap scope.
FAULTS_OF_EPOCHS_2_TO_5 = """
import contextlib, resource, sys
import numpy as np
from brgcn import hetgraph as hg, training
if sys.argv[1] == "off":
    training._kept_heap = contextlib.nullcontext
rng = np.random.default_rng(0)
n, num_rel = 1000, 7
triples = [(i, r, int(t)) for r in range(num_rel) for i, t in enumerate(rng.integers(0, n, n))]
graph = hg.HeteroGraph.from_triples(triples, num_nodes=n)
labels = hg.NodeLabels(tuple(range(n)), {i: i % 2 for i in range(n)}, 2)
cfg = training.TrainConfig(epochs=6, seed=0)
model = training.NodeClassificationModel.build(np.random.default_rng(0), graph, 2, cfg)
faults = []

def loss_fn(epoch):
    return training.nc_loss(model.forward(graph, rng=rng)[0], labels)

def on_epoch(epoch, value):
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)

training.optimize(model.params(), loss_fn, cfg, on_epoch=on_epoch)
print(faults[5] - faults[1])
"""


class FakeLibc:
    def __init__(self):
        self.calls = []

    def mallopt(self, param, value):
        self.calls.append((param, value))
        return 1


class TestKeptHeap:
    PAD, RESTORE = (M_TOP_PAD, TRAINING_TOP_PAD), (M_TOP_PAD, 128 * 1024)

    @pytest.fixture
    def libc(self, monkeypatch):
        """A glibc whose mallopt records its calls."""
        fake = FakeLibc()
        monkeypatch.setattr(ctypes, "CDLL", lambda name: fake)
        monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
        monkeypatch.delenv("MALLOC_TOP_PAD_", raising=False)
        monkeypatch.delenv("GLIBC_TUNABLES", raising=False)
        return fake

    def test_the_pad_is_set_for_the_epochs_and_restored(self, libc):
        theta = dn.param(np.array([2.0]))
        during = []

        def loss_fn(epoch):
            during.append(list(libc.calls))
            return dn.tsum(dn.mul(theta, theta))

        optimize([theta], loss_fn, TrainConfig(epochs=3, dropout=0.0))
        assert during == [[self.PAD]] * 3
        assert libc.calls == [self.PAD, self.RESTORE]

    def test_an_aborted_run_restores_the_default(self, libc):
        theta = dn.param(np.array([30.0]), name="theta")
        with pytest.raises(TrainingAbort):
            optimize([theta], lambda epoch: dn.tsum(dn.exp(dn.mul(theta, theta))), TrainConfig(lr=1e3, epochs=50))
        assert libc.calls == [self.PAD, self.RESTORE]

    @pytest.mark.parametrize(
        "var, value", [("MALLOC_TOP_PAD_", "65536"), ("GLIBC_TUNABLES", "glibc.malloc.top_pad=65536")]
    )
    def test_a_pad_the_user_set_is_left_alone(self, libc, monkeypatch, var, value):
        monkeypatch.setenv(var, value)
        theta = dn.param(np.array([1.0]))
        optimize([theta], lambda epoch: dn.tsum(dn.mul(theta, theta)), TrainConfig(epochs=2))
        assert libc.calls == []

    @pytest.mark.parametrize("confstr", [None, "musl"])
    def test_no_call_where_libc_is_not_glibc(self, libc, monkeypatch, confstr):
        def other_libc(name):
            if confstr is None:
                raise ValueError("unrecognized configuration name")
            return confstr

        monkeypatch.setattr(os, "confstr", other_libc)
        theta = dn.param(np.array([1.0]))
        optimize([theta], lambda epoch: dn.tsum(dn.mul(theta, theta)), TrainConfig(epochs=2))
        assert libc.calls == []

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap scope acts on glibc only")
    def test_later_epochs_do_not_fault_the_heap_back_in(self):
        env = {k: v for k, v in os.environ.items() if k not in ("MALLOC_TOP_PAD_", "GLIBC_TUNABLES")}
        env.update(PYTHONPATH=str(Path(brgcn.__file__).parents[1]), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

        def faults(scope):
            run = [sys.executable, "-c", FAULTS_OF_EPOCHS_2_TO_5, scope]
            return int(subprocess.run(run, env=env, capture_output=True, text=True, check=True).stdout)

        kept, trimmed = faults("on"), faults("off")
        assert kept <= trimmed / 10, f"{kept} faults in epochs 2-5 with the scope, {trimmed} without"


class TestTaskGradients:
    def test_classification_loss_gradients(self):
        graph, labels = planted_graph(num_labeled=4, num_distractors=2, seed=1)
        g = hg.augment(graph, add_self_loop=True)
        from brgcn.training import NodeClassificationModel

        cfg = TrainConfig(hidden_units=3, dropout=0.0, num_layers=2)
        model = NodeClassificationModel.build(np.random.default_rng(0), g, 2, cfg)

        def f():
            probs, _ = model.forward(g)
            return nc_loss(probs, labels)

        report = grad_check(f, model.params(), eps=1e-5, tol=1e-4)
        assert report.passed, str(report)

    def test_classification_loss_gradients_with_bases(self):
        # Every parameter of a 2-layer model under bases, coefficients and basis
        # included, against central differences.
        graph, labels = planted_graph(num_labeled=4, num_distractors=2, seed=1)
        g = hg.augment(graph, add_inverse=True, add_self_loop=True)
        cfg = TrainConfig(hidden_units=3, dropout=0.0, num_layers=2, num_bases=2)
        model = NodeClassificationModel.build(np.random.default_rng(0), g, 2, cfg)

        def f():
            probs, _ = model.forward(g)
            return nc_loss(probs, labels)

        report = grad_check(f, model.params(), eps=1e-5, tol=1e-4)
        assert report.passed, str(report)
        names = set(report.per_param)
        assert {f"layer{k}.{group}" for k in (0, 1) for group in ("basis", "coeff_query", "coeff_value")} <= names

    def test_link_prediction_loss_gradients(self):
        graph = memorization_kg(num_entities=5, num_triples=8, seed=2)
        from brgcn.training import LinkPredictionModel
        from brgcn.decoders import score_triples

        cfg = TrainConfig(task="link_prediction", hidden_units=3, dropout=0.0)
        model = LinkPredictionModel.build(
            np.random.default_rng(1), graph, graph.num_relations, cfg, "distmult"
        )
        rng = np.random.default_rng(3)
        positives = list(graph.triples[:4])
        negatives = [negative_sample(p, graph, rng)[0] for p in positives]

        def f():
            emb = model.embeddings(graph)
            scores = score_triples(model.decoder, emb, positives + negatives)
            return lp_loss((1,) * 4 + (0,) * 4, scores)

        report = grad_check(f, model.params(), eps=1e-5, tol=1e-4)
        assert report.passed, str(report)


class TestLpTapeLength:
    @pytest.mark.parametrize("kind", ["distmult", "hole"])
    def test_lp_step_records_do_not_grow_with_triples(self, kind):
        # One LP forward+backward, dropout on, over 40 and 400 training
        # triples on the same 20 entities: the decoder scores the whole
        # batch with a fixed number of ops, never one per triple.
        from brgcn.decoders import score_triples
        from brgcn.training import LinkPredictionModel

        cfg = TrainConfig(task="link_prediction", hidden_units=6, dropout=0.4)
        lengths = []
        for num_triples in (40, 400):
            graph = memorization_kg(num_entities=20, num_triples=num_triples, seed=4)
            g = hg.augment(graph, add_self_loop=True)
            rng = np.random.default_rng(0)
            model = LinkPredictionModel.build(rng, g, graph.num_relations, cfg, kind)
            positives = list(map(tuple, graph.triples.tolist()))
            negatives = [n for p in positives for n in negative_sample(p, graph, rng)]
            y = (1,) * len(positives) + (0,) * len(negatives)
            with Tape() as tape:
                emb = model.embeddings(g, rng=rng)
                scores = score_triples(model.decoder, emb, positives + negatives)
                tape.backward(lp_loss(y, scores))
            assert all(p.grad is not None for p in model.params())
            lengths.append((graph.num_triples, len(tape)))
        assert [n for n, _ in lengths] == [40, 400]
        assert lengths[0][1] == lengths[1][1]


class TestCheckpointArrays:
    @pytest.mark.parametrize("fault", ["missing", "unexpected", "shape"])
    def test_refused_checkpoint_changes_no_parameter(self, fault):
        graph, labels = planted_graph()
        rng = np.random.default_rng(0)
        model = NodeClassificationModel.build(rng, graph, labels.num_classes, TrainConfig())
        before = [p.data.copy() for p in model.params()]
        arrays = {k: v + 1.0 for k, v in model.state_arrays().items()}
        last = model.params()[-1].name
        if fault == "missing":
            del arrays[last]
        elif fault == "unexpected":
            arrays["layer9.w_self"] = np.zeros(1)
        else:
            arrays[last] = np.zeros(1)
        with pytest.raises(ConfigurationError):
            model.load_arrays(arrays)
        assert all(np.array_equal(b, p.data) for b, p in zip(before, model.params()))


    @pytest.mark.parametrize("num_bases", [0, 2])
    def test_per_relation_checkpoint_loads_into_the_stacked_groups(self, num_bases, caplog):
        # The per-relation format: a.<r>, w_<role>.<r> or coeff_<role>.<r>
        # per relation, the basis and w_self as they are.
        graph, labels = planted_graph()
        cfg = TrainConfig(num_bases=num_bases)
        model = NodeClassificationModel.build(np.random.default_rng(0), graph, labels.num_classes, cfg)
        arrays = {}
        for k, lay in enumerate(model.layers):
            arrays[f"layer{k}.w_self"] = lay.w_self.data
            arrays.update((f"layer{k}.a.{r}", v.data) for r, v in enumerate(lay.a))
            if num_bases:
                arrays[f"layer{k}.basis"] = lay.basis.data
            for role in lay.ROLES:
                if num_bases:
                    rows = {f"coeff_{role}.{r}": c for r, c in enumerate(lay.roles[role].data)}
                else:
                    rows = {f"w_{role}.{r}": w.data for r, w in enumerate(getattr(lay, f"w_{role}"))}
                arrays.update((f"layer{k}.{key}", value) for key, value in rows.items())
        other = NodeClassificationModel.build(np.random.default_rng(1), graph, labels.num_classes, cfg)
        with caplog.at_level(logging.WARNING, logger="brgcn.training"):
            other.load_arrays(arrays)
        assert [r.getMessage() for r in caplog.records] == [
            "checkpoint in the per-relation format: its arrays were stacked into one per group"
        ]
        for p, q in zip(model.params(), other.params()):
            assert p.name == q.name and np.array_equal(p.data, q.data) and q.data.flags.c_contiguous


    def test_full_slot_checkpoint_loads_into_the_live_rows(self, caplog):
        # Layer 0's groups in the full slot layout, as the per-relation views
        # place them: the live rows are gathered, with one warning.
        graph, labels = planted_graph()
        model = NodeClassificationModel.build(np.random.default_rng(0), graph, labels.num_classes, TrainConfig())
        lay = model.layers[0]
        arrays = model.state_arrays()
        arrays["layer0.a"] = np.stack([v.data for v in lay.a], axis=1)
        arrays.update((f"layer0.w_{role}", lay._slot_weight(role).data) for role in lay.ROLES)
        assert arrays["layer0.a"].shape == (2 * graph.num_nodes, graph.num_relations)
        other = NodeClassificationModel.build(np.random.default_rng(1), graph, labels.num_classes, TrainConfig())
        with caplog.at_level(logging.WARNING, logger="brgcn.training"):
            other.load_arrays(arrays)
        assert [r.getMessage() for r in caplog.records] == [
            "checkpoint in the full slot layout: layer 0 keeps the rows of the graph's live slots"
        ]
        for p, q in zip(model.params(), other.params()):
            assert p.name == q.name and np.array_equal(p.data, q.data) and q.data.flags.c_contiguous
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="brgcn.training"):
            other.load_arrays(model.state_arrays())
        assert not caplog.records


class TestMemoryEstimate:
    @staticmethod
    def _bgs_size_graph():
        # BGS's sizes: 333,845 nodes and 207 relations (with inverses and self
        # loops); a few triples suffice.
        n, num_rel = 333_845, 207
        graph = hg.HeteroGraph.from_triples(
            [(0, 0, 1), (1, 100, 2), (2, 206, 0)],
            num_nodes=n,
            relation_names=[f"r{k}" for k in range(num_rel)],
        )
        return n, num_rel, graph

    @staticmethod
    def _memory() -> int:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")

    def test_paper_scale_model_without_bases_is_refused_before_allocating(self):
        # At 4,096 hidden units layer 0's w_self alone is 11 GB.
        n, num_rel, graph = self._bgs_size_graph()
        cfg = TrainConfig(hidden_units=4096)  # 2 layers, no bases
        floats = BrgcnLayerParams.num_floats(n, 4096, num_rel, live=graph.index)
        floats += BrgcnLayerParams.num_floats(4096, 3, num_rel)
        need = 4 * 8 * floats  # parameters, gradients and two Adam moments
        if need <= self._memory():
            pytest.skip("this machine's memory would hold the model")
        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError, match=f"about {need / 1e9:.1f} GB") as refusal:
                NodeClassificationModel.build(np.random.default_rng(0), graph, 3, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 * n  # the graph's index; w_self would be 8 * 4096 * n
        # The estimate counts parameters only, while a basis layer still builds
        # each role's (d_in, R*d_out) slot weight in every forward: naming
        # num_bases would promise a saving the estimate cannot see.
        assert "hidden_units" in str(refusal.value) and "num_bases" not in str(refusal.value)

    def test_live_rows_that_fit_pass_although_the_full_slot_layout_would_not(self):
        # At 16 hidden units the full slot layout's q/k/v alone are 26 GB; the
        # three triples leave three live slots and three groups.
        n, num_rel, graph = self._bgs_size_graph()
        full = BrgcnLayerParams.num_floats(n, 16, num_rel) + BrgcnLayerParams.num_floats(16, 3, num_rel)
        if 4 * 8 * full <= self._memory():
            pytest.skip("this machine's memory would hold the full slot layout")
        live = BrgcnLayerParams.num_floats(n, 16, num_rel, live=graph.index)
        assert live == 3 + 3 + 16 * n + 3 * 3 * 16
        training._check_memory(live + BrgcnLayerParams.num_floats(16, 3, num_rel))

    @pytest.mark.parametrize("num_bases, live", [(0, False), (1, False), (3, False), (0, True)])
    def test_num_floats_counts_what_create_allocates(self, num_bases, live):
        graph = hg.augment(planted_graph(num_labeled=20)[0], add_inverse=True)
        index = graph.index if live else None
        d_in, num_rel = (graph.num_nodes, graph.num_relations) if live else (7, 4)
        p = BrgcnLayerParams.create(np.random.default_rng(0), d_in, 5, num_rel, num_bases=num_bases, live=index)
        floats = BrgcnLayerParams.num_floats(d_in, 5, num_rel, num_bases, index)
        assert sum(t.data.size for t in p.params()) == floats
        if live:
            assert floats < BrgcnLayerParams.num_floats(d_in, 5, num_rel)


class TestPipelines:
    def test_node_classifier_metrics_and_determinism(self):
        graph, labels = planted_graph(num_labeled=10, num_distractors=3, seed=5)
        split = hg.SplitSpec(tuple(labels.labeled_ids))
        cfg = TrainConfig(lr=0.05, epochs=5, hidden_units=4, dropout=0.2, seed=3, add_self_loop=True)
        run_a = train_node_classifier(graph, labels, split, cfg)
        run_b = train_node_classifier(graph, labels, split, cfg)
        assert len(run_a.metrics_rows) == 5
        assert run_a.loss_curve == run_b.loss_curve
        assert run_a.metrics_rows == run_b.metrics_rows

    def test_early_stopping_on_validation_plateau(self):
        graph, labels = planted_graph(num_labeled=12, num_distractors=3, seed=8)
        ids = labels.labeled_ids
        split = hg.SplitSpec(ids[:6], ids[6:9], ids[9:])
        base = TrainConfig(lr=0.05, epochs=40, hidden_units=4, dropout=0.0, add_self_loop=True)
        full = train_node_classifier(graph, labels, split, base)
        assert len(full.metrics_rows) == 40  # off by default
        from dataclasses import replace

        patient = replace(base, early_stop_patience=3)
        stopped = train_node_classifier(graph, labels, split, patient)
        assert len(stopped.metrics_rows) < 40

    @pytest.mark.parametrize("patience", [0, 2])
    def test_one_eval_forward_per_epoch_and_none_after(self, monkeypatch, patience):
        graph, labels = planted_graph(num_labeled=12, num_distractors=3, seed=8)
        ids = labels.labeled_ids
        split = hg.SplitSpec(ids[:6], ids[6:9], ids[9:])
        cfg = TrainConfig(lr=0.05, epochs=30, hidden_units=4, dropout=0.2, add_self_loop=True,
                          early_stop_patience=patience)
        calls, forward = [], layer_mod.layer_forward

        def counting(params, h, g, *, rng=None, collect_trace=True, index=None):
            calls.append(rng is None)
            return forward(params, h, g, rng=rng, collect_trace=collect_trace, index=index)

        monkeypatch.setattr(layer_mod, "layer_forward", counting)
        run = train_node_classifier(graph, labels, split, cfg)
        epochs = len(run.metrics_rows)
        assert (epochs < 30) == (patience > 0)
        # per epoch: the training forward (with dropout), then the eval forward, one call per layer
        assert calls == ([False] * cfg.num_layers + [True] * cfg.num_layers) * epochs

    def test_run_reports_a_fresh_eval_forward_bit_for_bit(self):
        graph, labels = planted_graph(num_labeled=12, num_distractors=3, seed=8)
        ids = labels.labeled_ids
        split = hg.SplitSpec(ids[:6], ids[6:9], ids[9:])
        cfg = TrainConfig(lr=0.05, epochs=6, hidden_units=4, dropout=0.3, add_inverse=True,
                          add_self_loop=True)
        run = train_node_classifier(graph, labels, split, cfg)
        probs, traces = run.model.forward(run.graph, collect_trace=True)
        pred = probs.data.argmax(axis=1)
        assert run.train_accuracy == evalkit.accuracy(pred, labels, split.train)
        assert run.valid_accuracy == evalkit.accuracy(pred, labels, split.valid)
        assert run.test_accuracy == evalkit.accuracy(pred, labels, split.test)
        assert run.metrics_rows[-1][2] == run.train_accuracy
        assert len(run.traces) == len(traces) == cfg.num_layers
        for got, want in zip(run.traces, traces):
            assert got.index is want.index
            np.testing.assert_array_equal(got.flat_gamma, want.flat_gamma)
            np.testing.assert_array_equal(got.flat_psi, want.flat_psi)

    def test_link_predictor_trains_and_filters_negatives(self):
        graph = memorization_kg(num_entities=8, num_triples=14, seed=6)
        split = hg.SplitSpec(tuple(range(graph.num_triples)))
        cfg = TrainConfig(
            task="link_prediction", lr=0.05, epochs=10, hidden_units=6, dropout=0.0, seed=0
        )
        run = train_link_predictor(graph, split, cfg, "distmult")
        assert len(run.loss_curve) == 10
        assert run.loss_curve[-1] < run.loss_curve[0]
        # metrics.csv writes the batch accuracy with repr, so it must be a plain float
        assert all(type(row[2]) is float for row in run.metrics_rows)

    def test_one_epoch_draws_the_negatives_a_plain_training_set_filter_draws(self, monkeypatch):
        # The sampler filters against the training graph's triple set; the
        # encoder graph has inverses and self loops besides.
        graph = memorization_kg(num_entities=9, num_triples=24, seed=5)
        split = hg.SplitSpec(tuple(range(0, graph.num_triples, 2)), (), tuple(range(1, graph.num_triples, 2)))
        cfg = TrainConfig(task="link_prediction", epochs=1, hidden_units=4, dropout=0.4, omega=3,
                          add_inverse=True, add_self_loop=True, seed=2)
        train_triples = [tuple(t) for t in graph.triples[list(split.train)].tolist()]
        filters, replay, drawn = [], np.random.default_rng(), []

        def recording(positive, g, rng, **kwargs):
            if not filters:  # the generator's state before the epoch's first draw
                replay.bit_generator.state = rng.bit_generator.state
            filters.append(g)
            drawn.extend(negative_sample(positive, g, rng, **kwargs))
            return drawn[-cfg.omega :]

        monkeypatch.setattr(training, "negative_sample", recording)
        run = train_link_predictor(graph, split, cfg, "distmult")
        g_train = filters[0]
        assert all(g is g_train for g in filters)
        assert run.graph.num_relations == 2 * graph.num_relations + 1
        assert g_train.triple_set == set(train_triples)
        assert drawn == _filtered_draws(train_triples, graph.num_nodes, set(train_triples), replay, 3)
        assert not set(drawn) & g_train.triple_set

    def test_standalone_decoder_mode(self):
        graph = memorization_kg(num_entities=6, num_triples=10, seed=7)
        split = hg.SplitSpec(tuple(range(graph.num_triples)))
        cfg = TrainConfig(task="link_prediction", lr=0.05, epochs=5, hidden_units=4, dropout=0.0)
        run = train_link_predictor(graph, split, cfg, "distmult", standalone=True)
        assert run.model.encoder is None
        assert run.model.decoder.entity_emb is not None
        # the scorer broadcasts over id arrays and agrees with its one-triple call
        fn = run.model.score_fn(run.graph)
        h, r, t = graph.triples[0]
        tails = fn(h, r, np.arange(graph.num_nodes))
        assert tails.shape == (graph.num_nodes,)
        assert tails[t] == pytest.approx(float(fn(h, r, t)), abs=1e-12)
