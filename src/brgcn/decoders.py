"""Triple-scoring decoders for link prediction.

Each decoder maps (head, relation, tail) embedding vectors to a raw
plausibility score; higher means more plausible.  Squashing is left to the
loss, which applies the logistic sigmoid.

Every decoder is defined once, in its 1-N form (ConvE, Dettmers et al. 2018,
arXiv:1707.01476): a query row built from (a, r) meets a feature row of b,

    distmult, complex, hole   score(a, r, b) = query(F(a), F(r)) . F(b)
    transe                    score(a, r, b) = -|| query(a, r) - b ||_2

with F = :func:`features`, and head corruptions are tail queries with the
:func:`inverse` relation.  These functions take taped Tensors (training,
:func:`score_batch`) and numpy arrays (ranking, :class:`Scorer`) alike.
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
    encoder and must have the decoder's width.  :meth:`create` names them
    ``decoder.<kind>.rel`` and ``decoder.<kind>.entity``, so a checkpoint
    of one kind does not load as another.
    """

    def __init__(self, kind: str, rel_emb: Tensor, entity_emb: Tensor | None = None):
        self.kind = kind
        self.rel_emb = rel_emb
        self.entity_emb = entity_emb
        width = rel_emb.shape[1]
        self.dim = self.dim_of(kind, width)
        if entity_emb is not None and entity_emb.shape[1] != width:
            raise ConfigurationError(
                f"entity embedding width {entity_emb.shape[1]} != relation width {width}"
            )

    @staticmethod
    def dim_of(kind: str, width: int) -> int:
        """The dimension d of ``width``-wide embedding rows: width/2 for complex."""
        if kind not in KINDS:
            raise ConfigurationError(f"unknown decoder kind {kind!r}; expected one of {KINDS}")
        if kind == "complex" and width % 2:
            raise ConfigurationError(f"complex decoder needs an even embedding width, got {width}")
        return width // 2 if kind == "complex" else width

    @classmethod
    def create(
        cls,
        rng: np.random.Generator,
        kind: str,
        num_relations: int,
        width: int,
        *,
        num_entities: int | None = None,
    ) -> "DecoderParams":
        """Initialize ``width``-wide embeddings uniformly in [-0.5/sqrt(d), 0.5/sqrt(d)]."""
        limit = 0.5 / np.sqrt(cls.dim_of(kind, width))

        def param(rows, group):
            return dn.param(rng.uniform(-limit, limit, size=(rows, width)), name=f"decoder.{kind}.{group}")

        rel = param(num_relations, "rel")  # drawn before the entity rows
        return cls(kind, rel, None if num_entities is None else param(num_entities, "entity"))

    def params(self) -> list[Tensor]:
        return [t for t in (self.rel_emb, self.entity_emb) if t is not None]


def features(kind: str, X):
    """Rows of entities or relations in the space where the score is bilinear.

    HolE maps each row to its Fourier spectrum, [Re || Im] of the conjugate
    DFT: HolE is ComplEx over spectra, divided by d (Hayashi & Shimbo 2017,
    arXiv:1702.05563).  The transform is a matmul with cosine and sine
    matrices, so memory stays O(n d).  Every other kind uses the rows as
    they are.
    """
    if kind != "hole":
        return X
    width = X.shape[-1]
    angle = 2.0 * np.pi * (np.outer(np.arange(width), np.arange(width)) % width) / width
    return X @ np.concatenate([np.cos(angle), np.sin(angle)], axis=1)


def query(kind: str, A, R):
    """Query rows of (a, r) pairs from their :func:`features` rows.

    distmult: a * r
    transe:   a + r
    complex:  the complex product r a on [real || imag] halves
    hole:     the complex product of the spectra, divided by d
    """
    if kind == "distmult":
        return A * R
    if kind == "transe":
        return A + R
    (a_re, a_im), (r_re, r_im) = _halves(A), _halves(R)
    q = _join(r_re * a_re - r_im * a_im, r_re * a_im + r_im * a_re)
    return q * (1.0 / a_re.shape[-1]) if kind == "hole" else q


def inverse(kind: str, R):
    """Relation :func:`features` rows r' with score(a, r, b) = score(b, r', a).

    distmult is symmetric (r' = r), transe negates (-r), and complex and
    hole conjugate (Re of a sum is Re of its conjugate).
    """
    if kind == "distmult":
        return R
    if kind == "transe":
        return -R
    re, im = _halves(R)
    return _join(re, -im)


def match(kind: str, Q, B):
    """Scores of query rows against candidate :func:`features` rows, row by row."""
    if kind == "transe":
        D = Q - B
        norm = dn.l2_norm(D, axis=1) if isinstance(D, Tensor) else np.sqrt(np.sum(D * D, axis=-1))
        return -norm
    P = Q * B
    return dn.tsum(P, axis=1) if isinstance(P, Tensor) else np.sum(P, axis=-1)


def _halves(X):
    """The [real || imag] halves of (n, 2m) rows."""
    m = X.shape[-1] // 2
    if not isinstance(X, Tensor):
        return X[..., :m], X[..., m:]
    # Row 2i of the (2n, m) view is row i's real half, row 2i+1 its imaginary half.
    n = X.shape[0]
    halves = dn.reshape(X, (2 * n, m))
    return dn.take(halves, np.arange(0, 2 * n, 2)), dn.take(halves, np.arange(1, 2 * n, 2))


def _join(re, im):
    if isinstance(re, Tensor):
        return dn.concat([re, im], axis=1)
    return np.concatenate([re, im], axis=-1)


def score_batch(kind: str, H: Tensor, R: Tensor, T: Tensor) -> Tensor:
    """Raw confidence scores of n triples from gathered (n, width) row blocks; returns (n,).

    distmult: sum_k h_k r_k t_k
    transe:   -|| h + r - t ||_2
    hole:     r . (h * t) with (h * t)_k = sum_m h_m t_{(m+k) mod d}
    complex:  Re(sum_k r_k h_k conj(t_k)) on stored [real || imag] halves

    Each is computed through its 1-N form (:func:`query`, :func:`match`).
    """
    if kind not in KINDS:
        raise ConfigurationError(f"unknown decoder kind {kind!r}; expected one of {KINDS}")
    if not (H.shape == R.shape == T.shape) or H.ndim != 2:
        raise DimensionError(f"score_batch needs equal (n, width) blocks: {H.shape}, {R.shape}, {T.shape}")
    if kind == "complex" and H.shape[1] % 2:
        raise DimensionError("complex score expects even-width rows (real||imag)")
    H, R, T = (features(kind, X) for X in (H, R, T))
    return match(kind, query(kind, H, R), T)


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


class Scorer:
    """A deterministic scorer ``scorer(h, r, t)``: ids broadcast, scores take their shape.

    Entity and relation :func:`features` are computed once, here.  A block of
    B queries against one row of M candidates, ``scorer(h[:, None], r[:, None],
    ids)`` for tails or ``scorer(ids, r[:, None], t[:, None])`` for heads, is
    one (B, w) @ (w, M) product (TransE: a row norm per query).  Other
    broadcasts are scored row by row.  Plain numpy: nothing is taped, and
    non-finite values are not trapped.
    """

    def __init__(self, kind: str, entity: np.ndarray, relation: np.ndarray):
        if kind not in KINDS:
            raise ConfigurationError(f"unknown decoder kind {kind!r}; expected one of {KINDS}")
        self.kind = kind
        self.entity = features(kind, np.asarray(entity, dtype=np.float64))
        self.relation = features(kind, np.asarray(relation, dtype=np.float64))
        self.inverse = inverse(kind, self.relation)
        self._all = np.arange(len(self.entity))

    def __call__(self, h, r, t) -> np.ndarray:
        ids = [np.asarray(x) for x in (h, r, t)]
        shape = np.broadcast(*ids).shape
        if len(shape) <= 2:
            # As 2-D views; an axis that broadcasts has size 1.
            h2, r2, t2 = (x.reshape((1,) * (2 - x.ndim) + x.shape) for x in ids)
            if r2.shape[1] == 1 and h2.shape[1] == 1 and t2.shape[0] == 1:
                return self._block(h2[:, 0], self.relation[r2[:, 0]], t2[0]).reshape(shape)
            if r2.shape[1] == 1 and t2.shape[1] == 1 and h2.shape[0] == 1:
                return self._block(t2[:, 0], self.inverse[r2[:, 0]], h2[0]).reshape(shape)
        h, r, t = (x.ravel() for x in np.broadcast_arrays(*ids))
        q = query(self.kind, self.entity[h], self.relation[r])
        return match(self.kind, q, self.entity[t]).reshape(shape)

    def _block(self, a: np.ndarray, rel: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(B, M) scores of the queries (a, rel) against the candidates b.

        ``a`` and the relation feature rows ``rel`` hold B entries, or one
        that serves every query.
        """
        q = query(self.kind, self.entity[a], rel)
        every = len(b) == len(self.entity) and (b == self._all).all()
        cand = self.entity if every else self.entity[b]
        if self.kind != "transe":
            return q @ cand.T
        out = np.empty((len(q), len(cand)))
        for i, row in enumerate(q):
            out[i] = match(self.kind, row, cand)
        return out


def ensemble_score(alpha_encoder: float, alpha_embedding: float, beta: float) -> float:
    """Convex combination of an encoder-model score and an embedding-model score."""
    if not 0.0 <= beta <= 1.0:
        raise ConfigurationError(f"ensemble weight beta must lie in [0, 1], got {beta}")
    return beta * alpha_encoder + (1.0 - beta) * alpha_embedding
