"""Decoder scoring functions: values, algebraic identities, gradients."""

import numpy as np
import pytest

from brgcn import diffnum as dn
from brgcn.decoders import (
    DecoderParams,
    Scorer,
    ensemble_score,
    score,
    score_batch,
    score_triples,
)
from brgcn.diffnum import DimensionError, Tensor
from brgcn.hetgraph import GraphError
from brgcn.layer import ConfigurationError
from gradcheck import grad_check


def _t(*values):
    return Tensor(np.array(values, dtype=float))


def fft_circular_correlation(h, t):
    """Independent route to (h * t)_k = sum_m h_m t_{(m+k) mod d}."""
    return np.fft.ifft(np.conj(np.fft.fft(h)) * np.fft.fft(t)).real


class TestScoreValues:
    def test_distmult_example(self):
        assert score("distmult", _t(1, 0), _t(1, 1), _t(1, 0)).item() == pytest.approx(1.0)

    def test_transe_zero_residual_is_maximum(self):
        h, r = np.array([0.3, -1.2, 0.5]), np.array([1.0, 0.25, -2.0])
        perfect = score("transe", Tensor(h), Tensor(r), Tensor(h + r)).item()
        assert perfect == pytest.approx(0.0, abs=1e-15)
        rng = np.random.default_rng(0)
        for _ in range(50):
            other = score("transe", Tensor(h), Tensor(r), Tensor(rng.normal(size=3))).item()
            assert other <= perfect

    def test_hole_hand_example(self):
        # d=2, h=(1,0), t=(0,1): correlation is (0,1); r=(1,0) scores 0
        assert score("hole", _t(1, 0), _t(1, 0), _t(0, 1)).item() == pytest.approx(0.0)

    def test_hole_matches_fft_correlation(self):
        rng = np.random.default_rng(1)
        for d in (2, 4, 8):
            for _ in range(50):
                h, r, t = rng.normal(size=(3, d))
                expected = float(r @ fft_circular_correlation(h, t))
                got = score("hole", Tensor(h), Tensor(r), Tensor(t)).item()
                assert got == pytest.approx(expected, abs=1e-10)

    def test_complex_reduces_to_distmult_with_zero_imaginary(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            h, r, t = rng.normal(size=(3, 4))
            zeros = np.zeros(4)
            full = score(
                "complex",
                Tensor(np.concatenate([h, zeros])),
                Tensor(np.concatenate([r, zeros])),
                Tensor(np.concatenate([t, zeros])),
            ).item()
            plain = score("distmult", Tensor(h), Tensor(r), Tensor(t)).item()
            assert full == pytest.approx(plain, abs=1e-12)

    def test_unknown_kind_and_dim_mismatch(self):
        with pytest.raises(ConfigurationError):
            score("rotate", _t(1), _t(1), _t(1))
        with pytest.raises(DimensionError):
            score("distmult", _t(1, 2), _t(1), _t(1, 2))
        with pytest.raises(DimensionError):
            score("complex", _t(1, 2, 3), _t(1, 2, 3), _t(1, 2, 3))


WIDTHS = {"distmult": 5, "transe": 5, "hole": 6, "complex": 8}


class TestScoreBatch:
    @pytest.mark.parametrize("kind", sorted(WIDTHS))
    @pytest.mark.parametrize("n", [1, 7])
    def test_rows_match_single_scores(self, kind, n):
        rng = np.random.default_rng(10)
        H, R, T = rng.normal(size=(3, n, WIDTHS[kind]))
        batch = score_batch(kind, Tensor(H), Tensor(R), Tensor(T))
        assert batch.shape == (n,)
        for i in range(n):
            single = score(kind, Tensor(H[i]), Tensor(R[i]), Tensor(T[i])).item()
            assert batch.data[i] == pytest.approx(single, abs=1e-12)

    def test_hole_matches_fft_correlation(self):
        rng = np.random.default_rng(11)
        for d in (1, 2, 5, 8, 16):
            H, R, T = rng.normal(size=(3, 9, d))
            got = score_batch("hole", Tensor(H), Tensor(R), Tensor(T)).data
            expected = [R[i] @ fft_circular_correlation(H[i], T[i]) for i in range(9)]
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_shape_checks(self):
        block = Tensor(np.zeros((2, 3)))
        with pytest.raises(DimensionError):
            score_batch("distmult", block, block, Tensor(np.zeros(3)))
        with pytest.raises(DimensionError):
            score_batch("complex", block, block, block)
        with pytest.raises(ConfigurationError):
            score_batch("rotate", block, block, block)


def assert_close_to_scale(got, want, rel=1e-12):
    """Every entry within ``rel`` of the largest reference magnitude."""
    got, want = np.asarray(got), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= rel * np.abs(want).max(initial=0.0)


class TestScorer:
    """The 1-N scorer against per-triple :func:`score`, one randomized oracle."""

    @pytest.mark.parametrize("kind", sorted(WIDTHS))
    def test_matches_per_triple_scores(self, kind):
        rng = np.random.default_rng(20)
        n, num_rel = 9, 3
        E, R = rng.normal(size=(n, WIDTHS[kind])), rng.normal(size=(num_rel, WIDTHS[kind]))
        scorer = Scorer(kind, E, R)
        reference = np.vectorize(
            lambda h, r, t: score(kind, Tensor(E[h]), Tensor(R[r]), Tensor(E[t])).item(),
            otypes=[float],
        )
        ids = np.arange(n)
        for b in (1, 3):
            h, r, t = rng.integers(0, [n, num_rel, n], size=(b, 3)).T
            # query blocks in both directions, as rank_triples calls them
            tails = scorer(h[:, None], r[:, None], ids)
            heads = scorer(ids, r[:, None], t[:, None])
            assert_close_to_scale(tails, reference(h[:, None], r[:, None], ids))
            assert_close_to_scale(heads, reference(ids, r[:, None], t[:, None]))
            # candidates in another order, all of them or a subset
            for cand in (rng.permutation(n), rng.permutation(n)[:4]):
                want = reference(h[:, None], r[:, None], cand)
                assert_close_to_scale(scorer(h[:, None], r[:, None], cand), want)
        # every other broadcast: one triple, aligned vectors, a candidate
        # column, one relation for all queries, and a 3-D grid
        h, r, t = rng.integers(0, [n, num_rel, n], size=(6, 3)).T
        for args in (
            (h[0], r[0], t[0]),
            (h, r, t),
            (ids[:, None], r[0], t[0]),
            (h[:, None], r[0], ids),
            (h.reshape(2, 3, 1), r.reshape(2, 3, 1), ids),
        ):
            got = scorer(*args)
            assert got.shape == np.broadcast(*args).shape
            assert_close_to_scale(got, reference(*args))

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            Scorer("rotate", np.zeros((2, 2)), np.zeros((1, 2)))


class TestIdentities:
    def test_distmult_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            h, r, t = rng.normal(size=(3, 5))
            a = score("distmult", Tensor(h), Tensor(r), Tensor(t)).item()
            b = score("distmult", Tensor(t), Tensor(r), Tensor(h)).item()
            assert a == pytest.approx(b, abs=1e-10)

    def test_transe_translation_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            h, r, t, c = rng.normal(size=(4, 5))
            a = score("transe", Tensor(h), Tensor(r), Tensor(t)).item()
            b = score("transe", Tensor(h + c), Tensor(r), Tensor(t + c)).item()
            assert a == pytest.approx(b, abs=1e-10)

    def test_complex_models_asymmetry(self):
        # d=1: h=1+2i, t=3+4i, r=5+6i gives 43 one way, 67 the other
        h, r, t = _t(1, 2), _t(5, 6), _t(3, 4)
        forward = score("complex", h, r, t).item()
        backward = score("complex", t, r, h).item()
        assert forward == pytest.approx(43.0)
        assert backward == pytest.approx(67.0)


class TestGradients:
    @pytest.mark.parametrize("kind,width", [("distmult", 4), ("transe", 4), ("hole", 4), ("complex", 8)])
    def test_grad_check(self, kind, width):
        rng = np.random.default_rng(5)
        h = dn.param(rng.uniform(-2, 2, width), name="h")
        r = dn.param(rng.uniform(-2, 2, width), name="r")
        t = dn.param(rng.uniform(-2, 2, width), name="t")
        report = grad_check(lambda: score(kind, h, r, t), [h, r, t], eps=1e-5, tol=1e-6)
        assert report.passed, f"{kind}: {report}"


    @pytest.mark.parametrize("kind", sorted(WIDTHS))
    def test_score_triples_grad_check(self, kind):
        # Repeated entity and relation ids must accumulate their gradients;
        # the last triple is a TransE zero residual (h + r = t), whose norm
        # has a zero gradient.
        rng = np.random.default_rng(12)
        width = WIDTHS[kind]
        dec = DecoderParams.create(rng, kind, 2, width)
        emb = dn.param(rng.uniform(-1, 1, size=(4, width)), name="entity")
        emb.data[3] = emb.data[0] + dec.rel_emb.data[1]
        triples = [(0, 0, 1), (1, 0, 0), (2, 1, 2), (0, 1, 1), (0, 1, 3)]
        weights = np.array([1.0, -0.7, 0.4, 1.3, -0.2])
        report = grad_check(
            lambda: dn.tsum(dn.mul(score_triples(dec, emb, triples), weights)),
            [emb, dec.rel_emb],
            eps=1e-5,
            tol=1e-6,
        )
        assert report.passed, f"{kind}: {report}"


class TestEnsemble:
    def test_examples(self):
        assert ensemble_score(0.5, 0.25, 0.4) == pytest.approx(0.35)
        assert ensemble_score(0.9, -2.0, 1.0) == pytest.approx(0.9)
        assert ensemble_score(0.9, -2.0, 0.0) == pytest.approx(-2.0)

    def test_beta_out_of_range(self):
        with pytest.raises(ConfigurationError):
            ensemble_score(0.0, 0.0, 1.5)


class TestDecoderParams:
    def test_standalone_init_bounds(self):
        rng = np.random.default_rng(6)
        dec = DecoderParams.create(rng, "distmult", 3, 16, num_entities=10)
        limit = 0.5 / np.sqrt(16)
        for emb in (dec.rel_emb, dec.entity_emb):
            assert np.abs(emb.data).max() <= limit
        assert dec.entity_emb.shape == (10, 16)

    def test_complex_width_is_double(self):
        dec = DecoderParams.create(np.random.default_rng(7), "complex", 2, 10)
        assert dec.rel_emb.shape == (2, 10)
        assert DecoderParams.dim_of("complex", 10) == 5

    def test_odd_complex_width_rejected(self):
        with pytest.raises(ConfigurationError):
            DecoderParams("complex", Tensor(np.zeros((2, 5))))

    def test_score_triples_matches_individual_scores(self):
        rng = np.random.default_rng(8)
        dec = DecoderParams.create(rng, "distmult", 2, 4)
        emb = Tensor(rng.normal(size=(5, 4)))
        triples = [(0, 0, 1), (3, 1, 4), (2, 0, 2)]
        batch = score_triples(dec, emb, triples)
        for k, (h, r, t) in enumerate(triples):
            single = score(
                "distmult", Tensor(emb.data[h]), Tensor(dec.rel_emb.data[r]), Tensor(emb.data[t])
            ).item()
            assert batch.data[k] == pytest.approx(single, abs=1e-15)

    def test_score_triples_refuses_rows_that_are_not_triples(self):
        rng = np.random.default_rng(8)
        dec = DecoderParams.create(rng, "distmult", 3, 4)
        with pytest.raises(GraphError):
            score_triples(dec, Tensor(rng.normal(size=(5, 4))), [(0, 1), (2, 0), (1, 2)])

    def test_width_mismatch(self):
        rng = np.random.default_rng(9)
        dec = DecoderParams.create(rng, "distmult", 2, 4)
        with pytest.raises(DimensionError):
            score_triples(dec, Tensor(np.zeros((3, 5))), [(0, 0, 1)])
