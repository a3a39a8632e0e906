"""Triple-scoring decoders for link prediction.

Each scorer maps (head, relation, tail) embedding vectors to a raw
plausibility score; higher means more plausible.  Scores are differentiable
through the numeric substrate so decoders can be trained jointly with an
encoder (auto-encoder mode) or over free entity embeddings (standalone mode).

Squashing is left to the loss: the logistic sigmoid is applied there, so all
scorers return raw values here (this also keeps the circular-correlation
scorer from being squashed twice).
"""

from __future__ import annotations

import numpy as np

from . import diffnum as dn
from .diffnum import DimensionError, Tensor
from .layer import ConfigurationError

KINDS = ("distmult", "transe", "hole", "complex")


class DecoderParams:
    """Learned relation embeddings (plus entity embeddings in standalone mode).

    Real-valued decoders store one length-``dim`` vector per relation;
    ``complex`` stores 2*dim values per row, the real half followed by the
    imaginary half.  Entity embeddings are present only in standalone mode
    and use the matching width; in auto-encoder mode they come from the
    encoder and must have the decoder's width.
    """

    def __init__(self, kind: str, rel_emb: Tensor, entity_emb: Tensor | None = None):
        if kind not in KINDS:
            raise ConfigurationError(f"unknown decoder kind {kind!r}; expected one of {KINDS}")
        self.kind = kind
        self.rel_emb = rel_emb
        self.entity_emb = entity_emb
        width = rel_emb.shape[1]
        if kind == "complex":
            if width % 2:
                raise ConfigurationError("complex decoder needs an even embedding width")
            self.dim = width // 2
        else:
            self.dim = width
        if entity_emb is not None and entity_emb.shape[1] != width:
            raise ConfigurationError(
                f"entity embedding width {entity_emb.shape[1]} != relation width {width}"
            )

    @classmethod
    def create(
        cls,
        rng: np.random.Generator,
        kind: str,
        num_relations: int,
        dim: int,
        *,
        num_entities: int | None = None,
        prefix: str = "decoder",
    ) -> "DecoderParams":
        """Initialize embeddings uniformly in [-0.5/sqrt(d), 0.5/sqrt(d)]."""
        width = 2 * dim if kind == "complex" else dim
        limit = 0.5 / np.sqrt(dim)
        rel = dn.param(rng.uniform(-limit, limit, size=(num_relations, width)), name=f"{prefix}.rel")
        ent = None
        if num_entities is not None:
            ent = dn.param(
                rng.uniform(-limit, limit, size=(num_entities, width)), name=f"{prefix}.entity"
            )
        return cls(kind, rel, ent)

    def params(self) -> list[Tensor]:
        out = [self.rel_emb]
        if self.entity_emb is not None:
            out.append(self.entity_emb)
        return out


def score_batch(kind: str, H: Tensor, R: Tensor, T: Tensor) -> Tensor:
    """Raw confidence scores of n triples from gathered (n, width) row blocks; returns (n,).

    distmult: sum_k h_k r_k t_k
    transe:   -|| h + r - t ||_2
    hole:     r . (h * t) with (h * t)_k = sum_m h_m t_{(m+k) mod d}
    complex:  Re(sum_k r_k h_k conj(t_k)) on stored [real || imag] halves

    HolE is ComplEx over the discrete Fourier transforms of its arguments,
    divided by d (Hayashi & Shimbo 2017, arXiv:1702.05563).  The transforms
    are matmuls with cosine and sine matrices, so memory stays O(n d).
    """
    if kind not in KINDS:
        raise ConfigurationError(f"unknown decoder kind {kind!r}; expected one of {KINDS}")
    if not (H.shape == R.shape == T.shape) or H.ndim != 2:
        raise DimensionError(f"score_batch needs equal (n, width) blocks: {H.shape}, {R.shape}, {T.shape}")
    n, width = H.shape
    if kind == "distmult":
        return dn.tsum(dn.mul(dn.mul(H, R), T), axis=1)
    if kind == "transe":
        return dn.neg(dn.l2_norm(dn.sub(dn.add(H, R), T), axis=1))
    if kind == "hole":
        angle = 2.0 * np.pi * (np.outer(np.arange(width), np.arange(width)) % width) / width
        dft = np.concatenate([np.cos(angle), np.sin(angle)], axis=1)
        spectra = (dn.matmul(X, dft) for X in (H, R, T))
        return dn.mul(score_batch("complex", *spectra), 1.0 / width)
    if width % 2:
        raise DimensionError("complex score expects even-width rows (real||imag)")
    # Row 2i of the (2n, d) view is triple i's real half, row 2i+1 its imaginary half.
    re, im = np.arange(0, 2 * n, 2), np.arange(1, 2 * n, 2)
    (h_re, h_im), (r_re, r_im), (t_re, t_im) = (
        (dn.take(halves, re), dn.take(halves, im))
        for halves in (dn.reshape(X, (2 * n, width // 2)) for X in (H, R, T))
    )
    real = dn.add(dn.mul(h_re, t_re), dn.mul(h_im, t_im))  # Re(h conj t)
    imag = dn.sub(dn.mul(h_im, t_re), dn.mul(h_re, t_im))  # Im(h conj t)
    return dn.tsum(dn.sub(dn.mul(r_re, real), dn.mul(r_im, imag)), axis=1)


def score(kind: str, h: Tensor, r: Tensor, t: Tensor) -> Tensor:
    """Raw confidence score of one triple from its embedding vectors (see :func:`score_batch`)."""
    if not (h.shape == r.shape == t.shape) or h.ndim != 1:
        raise DimensionError(
            f"score expects three equal-length vectors, got {h.shape}, {r.shape}, {t.shape}"
        )
    rows = (dn.reshape(v, (1, h.shape[0])) for v in (h, r, t))
    return dn.reshape(score_batch(kind, *rows), ())


def score_triples(decoder: DecoderParams, entity_emb: Tensor, triples) -> Tensor:
    """Score a batch of (h, r, t) id triples against entity embeddings; returns (n,)."""
    h, r, t = np.asarray(triples, dtype=np.intp).reshape(-1, 3).T
    H, R, T = dn.take(entity_emb, h), dn.take(decoder.rel_emb, r), dn.take(entity_emb, t)
    return score_batch(decoder.kind, H, R, T)


def ensemble_score(alpha_encoder: float, alpha_embedding: float, beta: float) -> float:
    """Convex combination of an encoder-model score and an embedding-model score."""
    if not 0.0 <= beta <= 1.0:
        raise ConfigurationError(f"ensemble weight beta must lie in [0, 1], got {beta}")
    return beta * alpha_encoder + (1.0 - beta) * alpha_embedding
