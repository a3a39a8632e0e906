"""Independent dense masked-matrix implementation of the bi-level layer.

Used as a test oracle: everything is computed with full N x N adjacency
masks and plain numpy, a deliberately different route from the package's
vectorized gather-scatter implementation.
"""

from __future__ import annotations

import numpy as np


def masked_adjacency(num_nodes: int, triples, rel: int) -> np.ndarray:
    a = np.zeros((num_nodes, num_nodes))
    for h, r, t in triples:
        if r == rel:
            a[h, t] = 1.0
    return a


def dense_layer_forward(
    h: np.ndarray,
    triples,
    num_nodes: int,
    num_relations: int,
    a_vecs,  # list of (2*d_in,) attention vectors
    w_query,  # list of (d_out, d_in)
    w_key,
    w_value,
    w_self,  # (d_out, d_in)
    slope: float,
    mode: str = "full",
):
    """Forward pass via dense masks; returns (h_next, gamma, psi) records.

    ``mode`` names the layer variant, as in ``layer_forward``.
    """
    uniform = mode in ("relation_only", "rgcn_baseline")
    n, d_in = h.shape
    d_out = w_self.shape[0]
    gammas: dict[tuple[int, int], np.ndarray] = {}
    psis: dict[int, np.ndarray] = {}

    z = {}  # (i, r) -> relation summary vector
    adj = [masked_adjacency(num_nodes, triples, r) for r in range(num_relations)]
    for r in range(num_relations):
        a_head, a_tail = a_vecs[r][:d_in], a_vecs[r][d_in:]
        raw = np.add.outer(h @ a_head, h @ a_tail)  # raw[i, j] = a . [h_i || h_j]
        e = np.where(raw > 0, raw, slope * raw)
        for i in range(n):
            mask = adj[r][i] > 0
            if not mask.any():
                continue
            if uniform:
                gamma = np.full(mask.sum(), 1.0 / mask.sum())
            else:
                logits = e[i, mask]
                ex = np.exp(logits - logits.max())
                gamma = ex / ex.sum()
            gammas[(i, r)] = gamma
            z[(i, r)] = gamma @ h[mask]

    h_next = np.zeros((n, d_out))
    for i in range(n):
        rels = sorted(r for r in range(num_relations) if (i, r) in z)
        if not rels:
            continue
        if mode == "node_only":
            h_next[i] = sum(z[(i, r)] for r in rels) + np.maximum(w_self @ h[i], 0.0)
            continue
        if mode == "rgcn_baseline":
            h_next[i] = np.maximum(sum(w_value[r] @ z[(i, r)] for r in rels) + w_self @ h[i], 0.0)
            continue
        q = {r: w_query[r] @ z[(i, r)] for r in rels}
        k = {r: w_key[r] @ z[(i, r)] for r in rels}
        v = {r: w_value[r] @ z[(i, r)] for r in rels}
        self_term = w_self @ h[i]
        psi = np.zeros((len(rels), len(rels)))
        total = np.zeros(d_out)
        for a_idx, r in enumerate(rels):
            logits = np.array([q[r] @ k[rp] for rp in rels])
            ex = np.exp(logits - logits.max())
            row = ex / ex.sum()
            psi[a_idx] = row
            fused = sum(row[b_idx] * v[rp] for b_idx, rp in enumerate(rels))
            total += np.maximum(fused + self_term, 0.0)
        psis[i] = psi
        h_next[i] = total
    return h_next, gammas, psis


def random_instance(rng: np.random.Generator, max_nodes=10, max_rels=3, d_in=None, d_out=None):
    """A random graph plus random layer parameters for oracle comparisons."""
    n = int(rng.integers(2, max_nodes + 1))
    num_rels = int(rng.integers(1, max_rels + 1))
    d_in = d_in or int(rng.integers(2, 5))
    d_out = d_out or int(rng.integers(2, 5))
    triples = set()
    for _ in range(int(rng.integers(1, 3 * n))):
        h_id = int(rng.integers(n))
        t_id = int(rng.integers(n))
        r = int(rng.integers(num_rels))
        triples.add((h_id, r, t_id))
    h = rng.normal(size=(n, d_in))
    a_vecs = [rng.normal(size=2 * d_in) for _ in range(num_rels)]
    w_query = [rng.normal(size=(d_out, d_in)) for _ in range(num_rels)]
    w_key = [rng.normal(size=(d_out, d_in)) for _ in range(num_rels)]
    w_value = [rng.normal(size=(d_out, d_in)) for _ in range(num_rels)]
    w_self = rng.normal(size=(d_out, d_in))
    return dict(
        n=n,
        num_rels=num_rels,
        d_in=d_in,
        d_out=d_out,
        triples=sorted(triples),
        h=h,
        a_vecs=a_vecs,
        w_query=w_query,
        w_key=w_key,
        w_value=w_value,
        w_self=w_self,
    )
