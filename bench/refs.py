"""Reference computations made apart from the package, plus their self-checks.

Nothing here imports ``brgcn``: every reference is written from the
definitions in the package docstrings, with dense numpy arrays, so a fault
in the package's sparse gathers, tape or scalar scorers cannot hide in the
reference as well.

``selfcheck()`` runs each reference on a tiny case whose answer is worked out
by hand in the comments, and shows that each comparison rejects a perturbed
score or output.  The benchmark runs it before every measurement; run it
alone with ``python3 bench/refs.py``.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

Triple = tuple[int, int, int]


class CheckFailed(AssertionError):
    """A program output disagrees with its reference."""


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


def assert_close(what: str, got, want, tol: float) -> float:
    """Max abs difference, scaled by max(1, |want|); raises above ``tol``."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        raise CheckFailed(f"{what}: shape {got.shape} != reference {want.shape}")
    if got.size == 0:
        return 0.0
    err = float(np.max(np.abs(got - want)) / max(1.0, float(np.max(np.abs(want)))))
    if not err <= tol:
        raise CheckFailed(f"{what}: scaled error {err:.3e} > {tol:.0e}")
    return err


def check(what: str, condition: bool) -> None:
    if not condition:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# the bi-level layer, from the algebra in layer.py's docstring
# ---------------------------------------------------------------------------


def dense_layer(
    h: np.ndarray,
    triples: Sequence[Triple],
    num_relations: int,
    a: Sequence[np.ndarray],
    w_query: Sequence[np.ndarray],
    w_key: Sequence[np.ndarray],
    w_value: Sequence[np.ndarray],
    w_self: np.ndarray,
    slope: float,
):
    """One eval-mode layer with N x N adjacency masks.

    Returns ``(out, gamma, psi, has)``: ``gamma[r]`` is the dense (N, N)
    neighbor-attention matrix of relation r, ``psi`` the (N, R, R)
    relation-attention tensor (zero outside incident relations) and
    ``has[r, i]`` whether node i has an out-edge under r.

        z_i^r     = sum_j softmax_j(LeakyReLU(a_r . [h_i || h_j])) h_j
        psi_i     = softmax_{r'}(q_r . k_{r'}) over incident r, r'
        delta_i^r = ReLU(sum_{r'} psi_i[r, r'] v_{r'} + W_self h_i)
        h'_i      = sum_{r incident} delta_i^r
    """
    n, d_in = h.shape
    adj = np.zeros((num_relations, n, n), dtype=bool)
    for head, r, tail in triples:
        adj[r, head, tail] = True
    has = adj.any(axis=2)
    gamma = np.zeros((num_relations, n, n))
    z = np.zeros((num_relations, n, d_in))
    for r in range(num_relations):
        raw = (h @ a[r][:d_in])[:, None] + (h @ a[r][d_in:])[None, :]
        e = np.where(raw > 0, raw, slope * raw)
        e = np.where(adj[r], e, -np.inf)
        top = np.where(has[r], e.max(axis=1), 0.0)
        w = np.where(adj[r], np.exp(e - top[:, None]), 0.0)
        gamma[r] = w / np.where(has[r], w.sum(axis=1), 1.0)[:, None]
        z[r] = gamma[r] @ h
    q = np.stack([z[r] @ w_query[r].T for r in range(num_relations)])  # (R, N, d)
    k = np.stack([z[r] @ w_key[r].T for r in range(num_relations)])
    v = np.stack([z[r] @ w_value[r].T for r in range(num_relations)])
    logits = np.einsum("rnd,snd->nrs", q, k)
    incident = has.T  # (N, R)
    pair = incident[:, :, None] & incident[:, None, :]
    logits = np.where(pair, logits, -np.inf)
    top = np.where(incident, logits.max(axis=2), 0.0)
    w = np.where(pair, np.exp(logits - top[:, :, None]), 0.0)
    psi = w / np.where(incident, w.sum(axis=2), 1.0)[:, :, None]
    fused = np.einsum("nrs,snd->nrd", psi, v)
    delta = np.maximum(fused + (h @ w_self.T)[:, None, :], 0.0)
    out = (delta * incident[:, :, None]).sum(axis=1)
    return out, gamma, psi, has


# ---------------------------------------------------------------------------
# decoders, from their definitions in decoders.py
# ---------------------------------------------------------------------------


def distmult(h: np.ndarray, r: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_k h_k r_k t_k over the last axis (broadcasts)."""
    return np.sum(h * r * t, axis=-1)


def hole(h: np.ndarray, r: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_k r_k sum_m h_m t_{(m+k) mod d} over the last axis (broadcasts)."""
    d = np.shape(h)[-1]
    shift = (np.arange(d)[None, :] + np.arange(d)[:, None]) % d  # shift[k, m] = (m+k) mod d
    corr = np.einsum("...m,...km->...k", h, np.asarray(t)[..., shift])
    return np.sum(r * corr, axis=-1)


SCORERS: dict[str, Callable] = {"distmult": distmult, "hole": hole}


def all_scores(kind: str, emb: np.ndarray, rel: np.ndarray, triple: Triple):
    """Scores of every tail corruption and every head corruption of one triple."""
    h, r, t = triple
    fn = SCORERS[kind]
    return fn(emb[h], rel[r], emb), fn(emb, rel[r], emb[t])


# ---------------------------------------------------------------------------
# ranking with pessimistic ties and filtering
# ---------------------------------------------------------------------------


def rank_bounds(
    scores: np.ndarray, target: int, excluded: np.ndarray, near: float
) -> tuple[int, int]:
    """Range of admissible pessimistic ranks of ``target`` among ``scores``.

    Candidates other than the target that are not ``excluded`` count when
    their score is at least the target's.  With ``near > 0`` a candidate within
    ``near`` of the target score may fall on either side through rounding, so
    the range runs from counting none of them to counting all of them; with
    no such candidate the range is one exact rank.
    """
    others = np.ones(scores.size, dtype=bool)
    others[target] = False
    others &= ~excluded
    diff = scores - scores[target]
    close = others & (np.abs(diff) <= near) if near > 0 else np.zeros(scores.size, dtype=bool)
    counted = int(np.sum(others & (diff >= 0) & ~close))
    return 1 + counted, 1 + counted + int(np.sum(close))


def check_rank(what: str, got: int, bounds: tuple[int, int]) -> None:
    check(f"{what}: rank {got} outside reference range {bounds}", bounds[0] <= got <= bounds[1])


# ---------------------------------------------------------------------------
# finite differences and tie accounting
# ---------------------------------------------------------------------------


def central_difference(f: Callable[[], float], x: np.ndarray, index: int, eps: float) -> float:
    """(f(x + eps e_k) - f(x - eps e_k)) / (2 eps), restoring x[k] afterwards."""
    flat = x.reshape(-1)
    orig = flat[index]
    try:
        flat[index] = orig + eps
        up = f()
        flat[index] = orig - eps
        down = f()
    finally:
        flat[index] = orig
    return (up - down) / (2.0 * eps)


def assert_gradient(what: str, analytic: float, numeric: float, tol: float) -> float:
    err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1.0)
    if not err <= tol:
        raise CheckFailed(f"{what}: tape {analytic:.10g} vs finite difference {numeric:.10g}")
    return err


def tied_rows(probs: np.ndarray) -> np.ndarray:
    """Rows whose maximum is attained by more than one column."""
    return (probs == probs.max(axis=1, keepdims=True)).sum(axis=1) > 1


# ---------------------------------------------------------------------------
# self-checks
# ---------------------------------------------------------------------------


def _must_fail(what: str, fn: Callable[[], object]) -> None:
    try:
        fn()
    except CheckFailed:
        return
    raise AssertionError(f"self-check: perturbed {what} was not rejected")


def selfcheck() -> None:
    """Hand-checkable cases for every reference; raises AssertionError on a fault."""
    # Layer: nodes 0, 1; edges 0 -r0-> 1 and 0 -r1-> 1; h = [[1], [2]];
    # zero attention vectors; every projection is [[1]].  Each gamma is [1], so
    # z_0^r = h_1 = 2 and q = k = v = 2 for both relations; psi_0 = [[.5, .5],
    # [.5, .5]]; delta_0^r = ReLU(.5*2 + .5*2 + 1*1) = 3; h'_0 = 3 + 3 = 6.
    # Node 1 has no out-edge, so h'_1 = 0.
    one = np.ones((1, 1))
    out, gamma, psi, has = dense_layer(
        np.array([[1.0], [2.0]]), [(0, 0, 1), (0, 1, 1)], 2,
        [np.zeros(2)] * 2, [one] * 2, [one] * 2, [one] * 2, one, 0.2,
    )
    assert_close("layer", out, [[6.0], [0.0]], 1e-12)
    assert_close("gamma", gamma[:, 0, 1], [1.0, 1.0], 1e-12)
    assert_close("psi", psi[0], [[0.5, 0.5], [0.5, 0.5]], 1e-12)
    assert has.tolist() == [[True, False], [True, False]]
    _must_fail("layer output", lambda: assert_close("layer", out + [[1e-8], [0]], [[6.0], [0.0]], 1e-10))
    # Attention: a = [0, 1] on h = [[1], [2], [0]] with edges 0->1, 0->2:
    # logits a.[h_0 || h_j] = h_j = 2, 0 -> gamma = [e^2, 1] / (e^2 + 1).
    _, gamma, _, _ = dense_layer(
        np.array([[1.0], [2.0], [0.0]]), [(0, 0, 1), (0, 0, 2)], 1,
        [np.array([0.0, 1.0])], [one], [one], [one], one, 0.2,
    )
    e2 = np.exp(2.0)
    assert_close("gamma", gamma[0, 0, 1:], [e2 / (e2 + 1), 1 / (e2 + 1)], 1e-12)

    # DistMult: 1*3*5 + 2*4*6 = 63.
    assert distmult(np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([5.0, 6.0])) == 63.0
    _must_fail("distmult score", lambda: assert_close("distmult", 63.0 + 1e-8, 63.0, 1e-10))
    # HolE, d = 3, h = e_1, t = [1, 10, 100]: corr_k = t_{(1+k) mod 3} = [10, 100, 1],
    # so with r = [1, 2, 3] the score is 10 + 200 + 3 = 213.  The opposite index
    # direction, t_{(m-k) mod d}, would give [10, 1, 100] . r = 312.
    t = np.array([1.0, 10.0, 100.0])
    assert hole(np.array([0.0, 1.0, 0.0]), np.array([1.0, 2.0, 3.0]), t) == 213.0
    # Batched over candidate tails equals the scalar form.
    batch = hole(np.array([0.0, 1.0, 0.0]), np.array([1.0, 2.0, 3.0]), np.stack([t, 2 * t]))
    assert batch.tolist() == [213.0, 426.0]
    _must_fail("hole score", lambda: assert_close("hole", 213.0 * (1 + 1e-9), 213.0, 1e-10))

    # Ranking: tail scores [.5, .9, .9, .1], target 1.  Candidate 2 ties the
    # target, so the pessimistic raw rank is 2; filtering out candidate 2 as a
    # known triple gives 1.  A near-tie inside 1e-9 widens the range to [1, 2].
    s = np.array([0.5, 0.9, 0.9, 0.1])
    none = np.zeros(4, dtype=bool)
    assert rank_bounds(s, 1, none, 0.0) == (2, 2)
    assert rank_bounds(s, 1, np.array([False, False, True, False]), 0.0) == (1, 1)
    assert rank_bounds(np.array([0.5, 0.9, 0.9 - 1e-12, 0.1]), 1, none, 1e-9) == (1, 2)
    check_rank("rank", 2, (2, 2))
    _must_fail("rank", lambda: check_rank("rank", 1, (2, 2)))

    # Finite differences: f = x0^2 x1 at (3, 2) has gradient (12, 9).
    x = np.array([3.0, 2.0])
    f = lambda: float(x[0] ** 2 * x[1])
    num = [central_difference(f, x, k, 1e-6) for k in range(2)]
    assert x.tolist() == [3.0, 2.0]
    assert_gradient("d/dx0", 12.0, num[0], 1e-6)
    assert_gradient("d/dx1", 9.0, num[1], 1e-6)
    _must_fail("gradient", lambda: assert_gradient("d/dx0", 12.0 + 1e-3, num[0], 1e-6))

    # Ties: [.5, .5] is tied, [.7, .3] is not.
    assert tied_rows(np.array([[0.5, 0.5], [0.7, 0.3]])).tolist() == [True, False]


if __name__ == "__main__":
    selfcheck()
    print("reference self-checks passed")
