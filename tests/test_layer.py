"""Layer semantics: attention values, variants, invariants, gradients.

Node-level and relation-level attention are observed through
``layer_forward``: the weights through its trace, the relation summaries
z_i^r through the node_only variant (see ``_gamma_and_z``).
"""

import copy
import json
import math
import tracemalloc

import numpy as np
import pytest

from brgcn import diffnum as dn
from brgcn.cli import _attention_payload
from brgcn.diffnum import Tensor
from brgcn.hetgraph import HeteroGraph, NodeLabels, augment, restrict_relations
from brgcn.layer import (
    VARIANTS,
    BrgcnLayerParams,
    ConfigurationError,
    layer_forward,
    stack_forward,
)
from brgcn.training import LinkPredictionModel, NodeClassificationModel, TrainConfig, nc_loss
from dense_oracle import dense_layer_forward, random_instance
from gradcheck import grad_check
from layer_weights import layer_with_weights
from pair_oracle import attention_chain
from synth import planted_graph


def _params_from_instance(inst, slope=0.2):
    return layer_with_weights(
        inst["a_vecs"], inst["w_query"], inst["w_key"], inst["w_value"], inst["w_self"], leaky_slope=slope
    )


def _graph_from_instance(inst):
    return HeteroGraph.from_triples(
        inst["triples"],
        num_nodes=inst["n"],
        relation_names=[f"r{k}" for k in range(inst["num_rels"])],
    )


def _identity_params(d, num_relations, w_self=None):
    """a = 0, W1 = W2 = W3 = I, configurable self matrix."""
    eyes = [np.eye(d)] * num_relations
    return layer_with_weights(
        [np.zeros(2 * d)] * num_relations, eyes, eyes, eyes, np.zeros((d, d)) if w_self is None else w_self
    )


def _gamma_and_z(p, h, g, i, r):
    """gamma_i^r and z_i^r as ``layer_forward`` computes them, for a square layer without bases.

    On the subgraph of relation r alone, with W_self = 0 and every W^V_r = s*I,
    the node_only output of node i is ReLU(s * z_i^r); s = +1 and s = -1 give
    z_i^r = ReLU(z_i^r) - ReLU(-z_i^r).
    """

    def node_only(sign):
        q = copy.copy(p)
        q.w_self = dn.param(np.zeros_like(p.w_self.data))
        q.roles = {**p.roles, "value": dn.param(np.tile(sign * np.eye(p.d_in), p.num_relations))}
        return layer_forward(q, h, restrict_relations(g, [r]), mode="node_only")

    (pos, trace), (neg, _) = node_only(1.0), node_only(-1.0)
    return trace.gamma[(i, r)], pos.data[i] - neg.data[i]


class TestNodeAttention:
    def test_singleton_neighborhood(self):
        g = HeteroGraph.from_triples([(0, 0, 1)], num_nodes=2)
        rng = np.random.default_rng(0)
        p = BrgcnLayerParams.create(rng, 3, 3, 1)
        h = Tensor(rng.normal(size=(2, 3)))
        gamma, z = _gamma_and_z(p, h, g, 0, 0)
        np.testing.assert_allclose(gamma, [1.0])
        np.testing.assert_allclose(z, h.data[1], atol=1e-15)

    def test_identical_neighbors_split_evenly(self):
        g = HeteroGraph.from_triples([(0, 0, 1), (0, 0, 2)], num_nodes=3)
        p = BrgcnLayerParams.create(np.random.default_rng(1), 2, 2, 1)
        h = np.array([[0.3, -1.0], [0.7, 0.2], [0.7, 0.2]])
        gamma, z = _gamma_and_z(p, Tensor(h), g, 0, 0)
        np.testing.assert_allclose(gamma, [0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(z, h[1], atol=1e-15)

    def test_zero_attention_vector_gives_uniform(self):
        g = HeteroGraph.from_triples([(0, 0, 1), (0, 0, 2), (0, 0, 3)], num_nodes=4)
        p = _identity_params(2, 1)
        h = Tensor(np.random.default_rng(2).normal(size=(4, 2)))
        _, trace = layer_forward(p, h, g)
        np.testing.assert_allclose(trace.gamma[(0, 0)], [1 / 3] * 3, atol=1e-15)

    def test_hand_evaluated_two_neighbor_case(self):
        # h_i=(1,0), h_1=(1,0), h_2=(0,1), a=(0,0,1,0), slope 0.2:
        # raw logits are a . [h_i || h_j] = h_j[0], so (1, 0); both positive
        # branch, softmax gives (e/(e+1), 1/(e+1)) and z = (g1, g2).
        g = HeteroGraph.from_triples([(0, 0, 1), (0, 0, 2)], num_nodes=3)
        eye = [np.eye(2)]
        p = layer_with_weights([np.array([0.0, 0.0, 1.0, 0.0])], eye, eye, eye, np.zeros((2, 2)))
        h = Tensor(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        gamma, z = _gamma_and_z(p, h, g, 0, 0)
        e = math.e
        np.testing.assert_allclose(gamma, [e / (e + 1), 1 / (e + 1)], atol=1e-15)
        np.testing.assert_allclose(z, [e / (e + 1), 1 / (e + 1)], atol=1e-15)

    def test_empty_neighborhood_has_no_weights(self):
        g = HeteroGraph.from_triples([(0, 0, 1)], num_nodes=2)
        p = BrgcnLayerParams.create(np.random.default_rng(0), 2, 2, 1)
        _, trace = layer_forward(p, Tensor(np.zeros((2, 2))), g)
        assert (1, 0) not in trace.gamma

    def test_attention_is_asymmetric(self):
        # e(i->j) concatenates [h_i || h_j]; with distinct halves of a and
        # asymmetric features the dense logit matrix is asymmetric, and the
        # resulting neighbor weights of i and j disagree.
        h = np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        a = np.array([0.5, -1.0, 1.0, 0.25])
        raw = np.add.outer(h @ a[:2], h @ a[2:])
        assert raw[0, 1] != raw[1, 0]
        g = HeteroGraph.from_triples([(0, 0, 1), (0, 0, 2), (1, 0, 0), (1, 0, 2)], num_nodes=3)
        eye = [np.eye(2)]
        p = layer_with_weights([a], eye, eye, eye, np.zeros((2, 2)))
        _, trace = layer_forward(p, Tensor(h), g)
        assert abs(trace.gamma[(0, 0)][0] - trace.gamma[(1, 0)][0]) > 1e-6


class TestRelationAttention:
    """Node 0 has one neighbor per relation, so z_0^r is that neighbor's row."""

    def test_single_relation(self):
        rng = np.random.default_rng(3)
        p = BrgcnLayerParams.create(rng, 3, 3, 2)
        z = rng.normal(size=3)
        h_i = rng.normal(size=3)
        g = HeteroGraph.from_triples([(0, 1, 1)], num_nodes=2, relation_names=["r0", "r1"])
        out, trace = layer_forward(p, Tensor(np.vstack([h_i, z])), g)
        np.testing.assert_allclose(trace.psi[0], [[1.0]])
        expected = np.maximum(p.w_value[1].data @ z + p.w_self.data @ h_i, 0.0)
        np.testing.assert_allclose(out.data[0], expected, atol=1e-15)

    def test_identical_summaries_and_projections_split_evenly(self):
        p = _identity_params(2, 2)
        g = HeteroGraph.from_triples([(0, 0, 1), (0, 1, 1)], num_nodes=2)
        h = np.array([[0.0, 0.0], [0.4, -0.7]])
        _, trace = layer_forward(p, Tensor(h), g)
        np.testing.assert_allclose(trace.psi[0], [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_hand_evaluated_identity_case(self):
        # W1=W2=W3=I, W_self=0, z0=(1,0), z1=(0,1): q,k,v equal the z
        # vectors, psi rows are softmax(1,0) and softmax(0,1), and the two
        # fused ReLU terms sum to exactly (1, 1).
        p = _identity_params(2, 2)
        g = HeteroGraph.from_triples([(0, 0, 1), (0, 1, 2)], num_nodes=3)
        h = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        out, trace = layer_forward(p, Tensor(h), g)
        s = math.e / (1 + math.e)
        assert trace.rel_order[0] == (0, 1)
        np.testing.assert_allclose(trace.psi[0], [[s, 1 - s], [1 - s, s]], atol=1e-15)
        np.testing.assert_allclose(out.data[0], [1.0, 1.0], atol=1e-12)

    def test_node_without_relations_has_no_weights(self):
        p = _identity_params(2, 1)
        g = HeteroGraph.from_triples([(0, 0, 1)], num_nodes=2)
        out, trace = layer_forward(p, Tensor(np.ones((2, 2))), g)
        assert 1 not in trace.psi and 1 not in trace.rel_order
        np.testing.assert_array_equal(out.data[1], [0.0, 0.0])


class TestLayerForward:
    def test_isolated_nodes_emit_zero(self):
        g = HeteroGraph.from_triples([], num_nodes=4, relation_names=["r"])
        p = BrgcnLayerParams.create(np.random.default_rng(0), 3, 5, 1)
        out, trace = layer_forward(p, Tensor(np.random.default_rng(1).normal(size=(4, 3))), g)
        np.testing.assert_array_equal(out.data, np.zeros((4, 5)))
        assert not trace.psi

    def test_self_loop_only_graph(self):
        g = augment(
            HeteroGraph.from_triples([], num_nodes=3, relation_names=[]), add_self_loop=True
        )
        rng = np.random.default_rng(5)
        p = BrgcnLayerParams.create(rng, 4, 4, g.num_relations)
        h = rng.normal(size=(3, 4))
        out, trace = layer_forward(p, Tensor(h), g)
        r = g.self_relation
        for i in range(3):
            np.testing.assert_allclose(trace.psi[i], [[1.0]])
            expected = np.maximum(p.w_value[r].data @ h[i] + p.w_self.data @ h[i], 0.0)
            np.testing.assert_allclose(out.data[i], expected, atol=1e-14)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(60):
            inst = random_instance(rng)
            g = _graph_from_instance(inst)
            p = _params_from_instance(inst)
            out, trace = layer_forward(p, Tensor(inst["h"]), g)
            oracle, gammas, psis = dense_layer_forward(
                inst["h"],
                inst["triples"],
                inst["n"],
                inst["num_rels"],
                inst["a_vecs"],
                inst["w_query"],
                inst["w_key"],
                inst["w_value"],
                inst["w_self"],
                0.2,
            )
            np.testing.assert_allclose(out.data, oracle, atol=1e-10)
            for key, gam in gammas.items():
                np.testing.assert_allclose(trace.gamma[key], gam, atol=1e-12)
            assert trace.psi.keys() == psis.keys()
            for i, psi in psis.items():
                np.testing.assert_allclose(trace.psi[i], psi, atol=1e-12)

    def test_normalization_invariants(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            inst = random_instance(rng, max_nodes=12, max_rels=4)
            g = _graph_from_instance(inst)
            p = _params_from_instance(inst)
            _, trace = layer_forward(p, Tensor(inst["h"]), g)
            for gamma in trace.gamma.values():
                assert abs(gamma.sum() - 1.0) <= 1e-9
            for psi in trace.psi.values():
                np.testing.assert_allclose(psi.sum(axis=1), 1.0, atol=1e-9)

    def test_row_count_validation(self):
        g = HeteroGraph.from_triples([(0, 0, 1)], num_nodes=2)
        p = BrgcnLayerParams.create(np.random.default_rng(0), 2, 2, 1)
        with pytest.raises(dn.DimensionError):
            layer_forward(p, Tensor(np.zeros((3, 2))), g)

    def test_relation_count_validation(self):
        g = HeteroGraph.from_triples([(0, 1, 1)], num_nodes=2, relation_names=["a", "b"])
        p = BrgcnLayerParams.create(np.random.default_rng(0), 2, 2, 1)
        with pytest.raises(ConfigurationError):
            layer_forward(p, Tensor(np.zeros((2, 2))), g)

    def test_unknown_mode(self):
        g = HeteroGraph.from_triples([(0, 0, 1)], num_nodes=2)
        p = BrgcnLayerParams.create(np.random.default_rng(0), 2, 2, 1)
        with pytest.raises(ConfigurationError):
            layer_forward(p, Tensor(np.zeros((2, 2))), g, mode="bogus")


class TestMaskingAndEquivariance:
    def test_disconnected_component_leaves_outputs_unchanged(self):
        rng = np.random.default_rng(20)
        inst = random_instance(rng, max_nodes=8, max_rels=3)
        g1 = _graph_from_instance(inst)
        p = _params_from_instance(inst)
        out1, _ = layer_forward(p, Tensor(inst["h"]), g1)
        # append a disconnected clique of 3 nodes using the same relations
        extra = [(inst["n"], 0, inst["n"] + 1), (inst["n"] + 1, 0, inst["n"] + 2)]
        g2 = HeteroGraph.from_triples(
            list(inst["triples"]) + extra,
            num_nodes=inst["n"] + 3,
            relation_names=g1.relation_names,
        )
        h2 = np.vstack([inst["h"], rng.normal(size=(3, inst["d_in"]))])
        out2, _ = layer_forward(p, Tensor(h2), g2)
        assert np.abs(out2.data[: inst["n"]] - out1.data).max() <= 1e-12

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(21)
        inst = random_instance(rng, max_nodes=9, max_rels=3)
        g = _graph_from_instance(inst)
        p = _params_from_instance(inst)
        out, _ = layer_forward(p, Tensor(inst["h"]), g)
        perm = rng.permutation(inst["n"])
        remapped = [(int(perm[h]), r, int(perm[t])) for h, r, t in inst["triples"]]
        g_perm = HeteroGraph.from_triples(
            remapped, num_nodes=inst["n"], relation_names=g.relation_names
        )
        h_perm = np.empty_like(inst["h"])
        h_perm[perm] = inst["h"]
        out_perm, _ = layer_forward(p, Tensor(h_perm), g_perm)
        np.testing.assert_allclose(out_perm.data[perm], out.data, atol=1e-10)


class TestStackForward:
    def test_single_layer_reduces_to_layer_forward(self):
        rng = np.random.default_rng(30)
        inst = random_instance(rng)
        g = _graph_from_instance(inst)
        p = _params_from_instance(inst)
        h = Tensor(inst["h"])
        direct, _ = layer_forward(p, h, g)
        stacked, traces = stack_forward([p], h, g)
        np.testing.assert_array_equal(direct.data, stacked.data)
        assert len(traces) == 1

    def test_two_layer_classification_shape(self):
        g = HeteroGraph.from_triples([(0, 0, 1), (1, 0, 2), (2, 1, 0)], num_nodes=3)
        rng = np.random.default_rng(31)
        l1 = BrgcnLayerParams.create(rng, 3, 16, 2)
        l2 = BrgcnLayerParams.create(rng, 16, 4, 2)
        out, traces = stack_forward([l1, l2], None, g)
        assert out.shape == (3, 4)
        assert len(traces) == 2

    def test_one_hot_inputs_make_first_layer_summaries_convex(self):
        g = HeteroGraph.from_triples([(0, 0, 1), (0, 0, 2), (3, 0, 0), (3, 1, 2)], num_nodes=4)
        rng = np.random.default_rng(32)
        p = BrgcnLayerParams.create(rng, 4, 4, 2)
        h = Tensor(np.eye(4))
        for i in range(4):
            for r in g.relations_of(i):
                _, z = _gamma_and_z(p, h, g, i, r)
                assert z.min() >= 0.0
                assert z.sum() == pytest.approx(1.0, abs=1e-12)

    def test_dim_chain_mismatch(self):
        rng = np.random.default_rng(33)
        g = HeteroGraph.from_triples([(0, 0, 1)], num_nodes=2)
        l1 = BrgcnLayerParams.create(rng, 2, 5, 1)
        l2 = BrgcnLayerParams.create(rng, 4, 3, 1)
        with pytest.raises(ConfigurationError):
            stack_forward([l1, l2], None, g)


class TestVariants:
    def test_full_equals_layer_forward(self):
        rng = np.random.default_rng(40)
        inst = random_instance(rng)
        g = _graph_from_instance(inst)
        p = _params_from_instance(inst)
        h = Tensor(inst["h"])
        a, _ = layer_forward(p, h, g)
        b, _ = layer_forward(p, h, g, mode="full")
        np.testing.assert_array_equal(a.data, b.data)

    def test_relation_only_equals_full_on_singleton_neighborhoods(self):
        # one neighbor per (node, relation) forces gamma = [1] either way
        triples = [(0, 0, 1), (0, 1, 2), (1, 0, 2), (2, 1, 0)]
        g = HeteroGraph.from_triples(triples, num_nodes=3)
        rng = np.random.default_rng(41)
        p = BrgcnLayerParams.create(rng, 3, 3, 2)
        h = Tensor(rng.normal(size=(3, 3)))
        full, _ = layer_forward(p, h, g, mode="full")
        rel_only, _ = layer_forward(p, h, g, mode="relation_only")
        np.testing.assert_allclose(full.data, rel_only.data, atol=1e-12)

    def test_relation_only_uses_uniform_weights(self):
        g = HeteroGraph.from_triples([(0, 0, 1), (0, 0, 2), (0, 0, 3)], num_nodes=4)
        rng = np.random.default_rng(42)
        p = BrgcnLayerParams.create(rng, 2, 2, 1)
        _, trace = layer_forward(p, Tensor(rng.normal(size=(4, 2))), g, mode="relation_only")
        np.testing.assert_allclose(trace.gamma[(0, 0)], [1 / 3] * 3, atol=1e-15)

    def test_rgcn_baseline_matches_dense_hand_computation(self):
        rng = np.random.default_rng(43)
        inst = random_instance(rng, max_nodes=6, max_rels=3)
        g = _graph_from_instance(inst)
        p = _params_from_instance(inst)
        out, _ = layer_forward(p, Tensor(inst["h"]), g, mode="rgcn_baseline")
        expected = np.zeros((inst["n"], inst["d_out"]))
        for i in range(inst["n"]):
            rels = g.relations_of(i)
            if not rels:
                continue
            acc = inst["w_self"] @ inst["h"][i]
            for r in rels:
                nbrs = g.neighbors(i, r)
                mean = np.mean([inst["h"][j] for j in nbrs], axis=0)
                acc = acc + inst["w_value"][r] @ mean
            expected[i] = np.maximum(acc, 0.0)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_node_only_formula_on_a_3_to_4_layer(self):
        rng = np.random.default_rng(44)
        inst = random_instance(rng, max_nodes=6, max_rels=2, d_in=3, d_out=4)
        g = _graph_from_instance(inst)
        p = _params_from_instance(inst)
        out, trace = layer_forward(p, Tensor(inst["h"]), g, mode="node_only")
        expected, gammas, _ = dense_layer_forward(
            inst["h"], inst["triples"], inst["n"], inst["num_rels"], inst["a_vecs"],
            inst["w_query"], inst["w_key"], inst["w_value"], inst["w_self"], 0.2, mode="node_only",
        )
        assert out.shape == (inst["n"], 4)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)
        assert trace.gamma.keys() == gammas.keys() and not trace.psi
        for key, gam in gammas.items():
            np.testing.assert_allclose(trace.gamma[key], gam, atol=1e-12)

    def test_node_only_equals_rgcn_baseline_on_single_neighbours(self):
        # one neighbour per (node, relation) forces gamma = [1] with or without attention
        triples = [(0, 0, 1), (0, 1, 2), (1, 0, 2), (2, 1, 0)]
        g = HeteroGraph.from_triples(triples, num_nodes=4)
        rng = np.random.default_rng(45)
        p = BrgcnLayerParams.create(rng, 3, 5, 2)
        h = Tensor(rng.normal(size=(4, 3)))
        node_only, _ = layer_forward(p, h, g, mode="node_only")
        baseline, _ = layer_forward(p, h, g, mode="rgcn_baseline")
        np.testing.assert_array_equal(node_only.data, baseline.data)
        assert not node_only.data[3].any()  # no edges: zero despite the self term


class TestDropout:
    def _setup(self):
        rng = np.random.default_rng(50)
        inst = random_instance(rng, max_nodes=8, max_rels=2)
        g = _graph_from_instance(inst)
        p = _params_from_instance(inst)
        p.dropout = 0.5
        return g, p, Tensor(inst["h"])

    def test_training_forward_differs_and_eval_is_clean(self):
        g, p, h = self._setup()
        eval_out, _ = layer_forward(p, h, g)
        train_out, _ = layer_forward(p, h, g, training=True, rng=np.random.default_rng(1))
        assert np.abs(eval_out.data - train_out.data).max() > 1e-9
        eval_again, _ = layer_forward(p, h, g)
        np.testing.assert_array_equal(eval_out.data, eval_again.data)

    def test_trace_records_pre_dropout_weights(self):
        g, p, h = self._setup()
        _, trace = layer_forward(p, h, g, training=True, rng=np.random.default_rng(2))
        for gamma in trace.gamma.values():
            assert abs(gamma.sum() - 1.0) <= 1e-9

    def test_training_dropout_requires_rng(self):
        g, p, h = self._setup()
        with pytest.raises(ConfigurationError):
            layer_forward(p, h, g, training=True)


class TestBasisDecomposition:
    def test_reconstruction_and_forward_equality(self):
        rng = np.random.default_rng(60)
        inst = random_instance(rng, max_nodes=7, max_rels=3)
        g = _graph_from_instance(inst)
        basis_params = BrgcnLayerParams.create(
            rng, inst["d_in"], inst["d_out"], inst["num_rels"], num_bases=2
        )
        # materialize every projection and rebuild an equivalent plain layer
        d_out = inst["d_out"]
        roles = {}
        for role in ("query", "key", "value"):
            stacked = np.concatenate([w.data for w in getattr(basis_params, f"w_{role}")])
            assert stacked.shape == (inst["num_rels"] * d_out, inst["d_in"])
            mats = []
            for r in range(inst["num_rels"]):
                w = stacked[r * d_out : (r + 1) * d_out]
                coeff = basis_params.roles[role].data[r]
                manual = np.sum(coeff[:, None, None] * basis_params.basis.data, axis=0)
                np.testing.assert_array_equal(w, manual)
                mats.append(w.copy())
            roles[role] = mats
        a = [v.data for v in basis_params.a]
        plain = layer_with_weights(a, roles["query"], roles["key"], roles["value"], basis_params.w_self.data)
        h = Tensor(inst["h"])
        out_basis, _ = layer_forward(basis_params, h, g)
        out_plain, _ = layer_forward(plain, h, g)
        np.testing.assert_allclose(out_basis.data, out_plain.data, atol=1e-12)

    def test_basis_gradients(self):
        rng = np.random.default_rng(61)
        g = HeteroGraph.from_triples([(0, 0, 1), (1, 1, 2), (2, 0, 0)], num_nodes=3)
        p = BrgcnLayerParams.create(rng, 3, 3, 2, num_bases=2)
        h = Tensor(rng.normal(size=(3, 3)))

        def f():
            out, _ = layer_forward(p, h, g)
            return dn.tsum(out)

        assert grad_check(f, p.params(), eps=1e-5, tol=1e-4).passed

    def test_num_bases_bounds(self):
        with pytest.raises(ConfigurationError):
            BrgcnLayerParams(2, 2, 2, num_bases=-1)


def _oracle_weights(p):
    """Per-relation (a, W_query, W_key, W_value) arrays of ``p``, bases multiplied out."""
    if p.num_bases:
        mats = {role: list(np.tensordot(p.roles[role].data, p.basis.data, axes=1)) for role in p.ROLES}
    else:
        mats = {role: [w.data for w in getattr(p, f"w_{role}")] for role in p.ROLES}
    return [a.data for a in p.a], mats["query"], mats["key"], mats["value"]


class TestRelationSlots:
    """Relation ids that have no edges: inside the graph, or beyond it in a wider layer."""

    CASES = {
        # (relations with edges, graph relation count, layer relation count)
        "edgeless_middle_relation": ((0, 2), 3, 3),
        "layer_wider_than_graph": ((0, 1), 2, 4),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("num_bases", [0, 2])
    @pytest.mark.parametrize("mode", VARIANTS)
    def test_matches_dense_oracle(self, case, num_bases, mode):
        used, graph_rels, layer_rels = self.CASES[case]
        rng = np.random.default_rng(73)
        n, d = 9, 3
        triples = [(int(rng.integers(n)), int(rng.choice(used)), int(rng.integers(n))) for _ in range(24)]
        g = HeteroGraph.from_triples(
            triples, num_nodes=n, relation_names=[f"r{k}" for k in range(graph_rels)]
        )
        assert sorted(set(g.index.group_rel.tolist())) == list(used)
        p = BrgcnLayerParams.create(rng, d, d, layer_rels, num_bases=num_bases)
        h = rng.normal(size=(n, d))
        out, trace = layer_forward(p, Tensor(h), g, mode=mode)
        a, wq, wk, wv = _oracle_weights(p)
        oracle, gammas, psis = dense_layer_forward(
            h, g.triples.tolist(), n, layer_rels, a, wq, wk, wv, p.w_self.data, 0.2, mode=mode
        )
        np.testing.assert_allclose(out.data, oracle, atol=1e-10)
        if mode != "rgcn_baseline":
            assert trace.gamma.keys() == gammas.keys()
            for key, gam in gammas.items():
                np.testing.assert_allclose(trace.gamma[key], gam, atol=1e-12)
        if mode in ("full", "relation_only"):
            assert trace.psi.keys() == psis.keys()
            for i, psi in psis.items():
                np.testing.assert_allclose(trace.psi[i], psi, atol=1e-12)


class _Replay:
    """Stands in for a generator: ``random`` hands out the given uniform draws in turn."""

    def __init__(self, *draws):
        self._draws = list(draws)

    def random(self, shape):
        u = self._draws.pop(0)
        assert u.shape == np.empty(shape).shape
        return u


class TestIdentityInput:
    """``h=None`` against an explicit ``np.eye`` input: the same bits and gradients.

    One-hot dropout is one mask entry m_j per node, so the explicit input the
    layer sees is ``np.diag(m)``.
    """

    @staticmethod
    def _graph():
        return augment(planted_graph(num_labeled=20)[0], add_inverse=True, add_self_loop=True)

    @staticmethod
    def _step(g, h, rng, mode, num_bases, dropout):
        p = BrgcnLayerParams.create(
            np.random.default_rng(3), g.num_nodes, 5, g.num_relations, num_bases=num_bases, dropout=dropout
        )
        with dn.Tape() as tape:
            out, _ = layer_forward(p, h, g, mode=mode, training=dropout > 0, rng=rng)
            tape.backward(dn.tsum(dn.mul(out, out)))
        return out.data, [t.grad for t in p.params()]

    def _explicit(self, g, replay, mode, num_bases, dropout):
        """The step on ``np.eye(n)`` whose masked input is ``np.diag(m)``, m drawn from ``replay``.

        Its dense (n, n) feature draw is replayed with the n node draws on the
        diagonal and 1 (always dropped) off it; the edge draws follow as drawn.
        """
        n = g.num_nodes
        draws = [np.where(np.eye(n, dtype=bool), replay.random(n)[:, None], 1.0)]
        if mode in ("full", "node_only"):  # the variants that learn gamma drop edges too
            draws.append(replay.random(g.index.heads.size))
        return self._step(g, Tensor(np.eye(n)), _Replay(*draws), mode, num_bases, dropout)

    @pytest.mark.parametrize("dropout", [0.0, 0.4])
    @pytest.mark.parametrize("num_bases", [0, 2])
    @pytest.mark.parametrize("mode", VARIANTS)
    def test_bit_equal_to_explicit_identity(self, mode, num_bases, dropout):
        g = self._graph()
        out, grads = self._step(g, None, np.random.default_rng(11), mode, num_bases, dropout)
        ref_out, ref_grads = self._explicit(g, np.random.default_rng(11), mode, num_bases, dropout)
        assert np.array_equal(out, ref_out)
        assert [grad is None for grad in grads] == [grad is None for grad in ref_grads]
        for grad, ref in zip(grads, ref_grads):
            assert grad is None or np.array_equal(grad, ref)

    @pytest.mark.parametrize("mode", VARIANTS)
    def test_training_forward_draws_n_feature_and_e_edge_numbers(self, mode):
        g = self._graph()
        rng = np.random.default_rng(11)
        self._step(g, None, rng, mode, 0, 0.4)
        replay = np.random.default_rng(11)
        replay.random(g.num_nodes)
        if mode in ("full", "node_only"):
            replay.random(g.index.heads.size)
        assert rng.bit_generator.state == replay.bit_generator.state

    def test_one_hot_dropout_runs_on_mt19937(self):
        # MT19937 cannot skip ahead (it has no advance()); one-hot dropout needs nothing but draws.
        g = self._graph()
        out, _ = self._step(g, None, np.random.Generator(np.random.MT19937(0)), "full", 0, 0.5)
        ref_out, _ = self._explicit(g, np.random.Generator(np.random.MT19937(0)), "full", 0, 0.5)
        assert np.array_equal(out, ref_out)

    @pytest.mark.parametrize("task", ["nc", "lp"])
    def test_one_hot_step_allocates_no_n_by_n_array(self, task):
        # A one-hot forward+backward with dropout (2 NC layers, the default
        # 1 encoder layer for LP) at N=3000, where one N x N float64 array is
        # 72 MB.  The tape holds every intermediate, so the peak is its size.
        n = 3000
        rng = np.random.default_rng(5)
        triples = np.column_stack(
            [rng.integers(0, n, 2 * n), rng.integers(0, 3, 2 * n), rng.integers(0, n, 2 * n)]
        )
        g = augment(HeteroGraph.from_triples(triples, num_nodes=n), add_self_loop=True)
        labels = NodeLabels(tuple(range(n)), {i: i % 2 for i in range(n)}, 2)
        cfg = TrainConfig(hidden_units=16, dropout=0.4)
        if task == "nc":
            model = NodeClassificationModel.build(rng, g, 2, cfg)
            loss = lambda: nc_loss(model.forward(g, training=True, rng=rng)[0], labels)  # noqa: E731
        else:
            model = LinkPredictionModel.build(rng, g, g.num_relations, cfg, "distmult")
            loss = lambda: dn.tsum(model.embeddings(g, training=True, rng=rng))  # noqa: E731
        g.index  # built once per graph, outside the step
        tracemalloc.start()
        try:
            with dn.Tape() as tape:
                tape.backward(loss())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(p.grad is not None for p in model.params() if p.name.startswith("layer0.w_"))
        assert peak < n * n * 8

    def test_one_hot_node_only_allocates_no_n_by_n_array(self):
        n = 2000
        rng = np.random.default_rng(6)
        triples = np.column_stack(
            [rng.integers(0, n, 2 * n), rng.integers(0, 3, 2 * n), rng.integers(0, n, 2 * n)]
        )
        g = augment(HeteroGraph.from_triples(triples, num_nodes=n), add_self_loop=True)
        p = BrgcnLayerParams.create(rng, n, 16, g.num_relations, dropout=0.4)
        g.index  # built once per graph, outside the step
        tracemalloc.start()
        try:
            with dn.Tape() as tape:
                out, _ = layer_forward(p, None, g, mode="node_only", training=True, rng=rng)
                tape.backward(dn.tsum(dn.mul(out, out)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p.roles["value"].grad is not None
        assert peak < n * n * 8


class TestFlatTrace:
    """The trace mappings against brute-force dicts built per (node, relation)."""

    @staticmethod
    def _graph_and_params():
        g = augment(planted_graph(num_labeled=20)[0], add_inverse=True, add_self_loop=True)
        p = BrgcnLayerParams.create(np.random.default_rng(8), g.num_nodes, 4, g.num_relations)
        return g, p

    @pytest.mark.parametrize("mode", ["full", "relation_only"])
    def test_keys_order_and_values_match_brute_force(self, mode):
        g, p = self._graph_and_params()
        n, num_rel = g.num_nodes, g.num_relations
        _, trace = layer_forward(p, None, g, mode=mode)
        a, wq, wk, wv = _oracle_weights(p)
        _, gammas, psis = dense_layer_forward(
            np.eye(n), g.triples.tolist(), n, num_rel, a, wq, wk, wv, p.w_self.data, 0.2, mode=mode
        )
        groups = [(i, r) for r in range(num_rel) for i in range(n) if g.neighbors(i, r)]
        assert list(trace.gamma) == list(gammas) == groups
        assert len(trace.gamma) == len(groups)
        for (i, r), gamma in trace.gamma.items():
            assert gamma.shape == (len(g.neighbors(i, r)),)
            np.testing.assert_allclose(gamma, gammas[(i, r)], atol=1e-12)
        nodes = [i for i in range(n) if g.relations_of(i)]
        assert list(trace.psi) == list(trace.rel_order) == list(psis) == nodes
        assert len(trace.psi) == len(trace.rel_order) == len(nodes)
        for i, psi in trace.psi.items():
            assert trace.rel_order[i] == tuple(r for r in range(num_rel) if g.neighbors(i, r))
            np.testing.assert_allclose(psi, psis[i], atol=1e-12)

    def test_absent_keys_raise_key_error(self):
        g, p = self._graph_and_params()
        n, num_rel = g.num_nodes, g.num_relations
        _, trace = layer_forward(p, None, g)
        missing = next((i, r) for r in range(num_rel) for i in range(n) if not g.neighbors(i, r))
        for key in (missing, (0, num_rel), (0, -1), (-1, 0), (n, 0), (2**70, 0), (0,), "ab", None):
            with pytest.raises(KeyError):
                trace.gamma[key]
            assert key not in trace.gamma
        for key in (-1, n, 2**70, (0, 0), "a", None):
            for mapping in (trace.psi, trace.rel_order):
                with pytest.raises(KeyError):
                    mapping[key]
                assert key not in mapping
        assert (0, 0) not in layer_forward(p, None, g, collect_trace=False)[1].gamma

    @pytest.mark.parametrize("mode", ["full", "relation_only"])
    def test_mappings_and_values_are_built_once(self, mode):
        g, p = self._graph_and_params()
        _, trace = layer_forward(p, None, g, mode=mode)
        for name in ("gamma", "psi", "rel_order"):
            mapping = getattr(trace, name)
            assert getattr(trace, name) is mapping
            key = next(iter(mapping))
            assert mapping[key] is mapping[key]

    def test_mappings_and_values_are_read_only(self):
        # One consumer's write must not change what later readers see.
        g, p = self._graph_and_params()
        _, trace = layer_forward(p, None, g)
        (key, gamma), (i, psi) = next(iter(trace.gamma.items())), next(iter(trace.psi.items()))
        before = gamma.copy(), psi.copy()
        for mapping, k in ((trace.gamma, key), (trace.psi, i), (trace.rel_order, i)):
            with pytest.raises(TypeError):
                mapping[k] = None
        for value in (gamma, psi):
            with pytest.raises(ValueError):
                value[0] = 7.0
        np.testing.assert_array_equal(trace.gamma[key], before[0])
        np.testing.assert_array_equal(trace.psi[i], before[1])
        assert not trace.flat_gamma.flags.writeable and not trace.flat_psi.flags.writeable

    def test_kept_traces_hold_no_per_group_objects(self):
        g, p = self._graph_and_params()
        idx = g.index
        layer_forward(p, None, g)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = [layer_forward(p, None, g)[1] for _ in range(20)]
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(kept) == 20 and idx.num_groups > 100
        # One gamma and one psi copy plus a few fixed objects per trace; per-group
        # arrays and dict entries would add about 280 bytes per group.
        flat = 8 * (idx.heads.size + (idx.node_count**2).sum())
        assert held < 20 * (flat + 8192)

    @pytest.mark.parametrize("mode", ["full", "relation_only", "node_only", "rgcn_baseline"])
    def test_gamma_lists_are_gamma_as_lists(self, mode):
        g, p = self._graph_and_params()
        _, trace = layer_forward(p, None, g, mode=mode)
        items = list(trace.gamma_lists())
        assert "gamma" not in vars(trace)  # split without the mapping
        assert items == [(key, gamma.tolist()) for key, gamma in trace.gamma.items()]

    def test_exported_payload_leaves_the_gamma_mapping_unbuilt(self):
        # attention.json's gamma section comes from the flat arrays: once the
        # payload is built, no trace holds a gamma mapping, so building one then
        # still allocates its per-group views and keys.
        g, p = self._graph_and_params()
        traces = [layer_forward(p, None, g)[1] for _ in range(2)]
        tracemalloc.start()
        try:
            payload = json.dumps(_attention_payload(g, traces), sort_keys=True)
            empty = ["gamma" not in vars(trace) for trace in traces]
            before = tracemalloc.get_traced_memory()[0]
            mappings = [trace.gamma for trace in traces]
            built = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert all(empty)
        assert built > 2 * 100 * g.index.num_groups  # a view, a key and a dict entry per group
        by_mapping = {f"{i}:{r}": gamma.tolist() for (i, r), gamma in mappings[0].items()}
        assert json.loads(payload)["layers"][0]["gamma"] == by_mapping


class TestDifferentiability:
    def test_layer_output_gradients(self):
        rng = np.random.default_rng(80)
        inst = random_instance(rng, max_nodes=6, max_rels=2, d_in=3, d_out=3)
        g = _graph_from_instance(inst)
        p = BrgcnLayerParams.create(rng, 3, 3, inst["num_rels"])
        h = Tensor(inst["h"])

        def f():
            out, _ = layer_forward(p, h, g)
            return dn.tsum(out)

        report = grad_check(f, p.params(), eps=1e-5, tol=1e-4)
        assert report.passed, str(report)


class TestTapeLength:
    def test_nc_step_records_do_not_grow_with_nodes(self):
        # One NC forward+backward, dropout on, on planted graphs of 50 and
        # 400 nodes with the same relations: the tape records one op per
        # layer stage, never one per node.
        cfg = TrainConfig(hidden_units=8, dropout=0.4)
        lengths = []
        for num_labeled in (40, 390):
            graph, labels = planted_graph(num_labeled=num_labeled)
            g = augment(graph, add_self_loop=True)
            rng = np.random.default_rng(0)
            model = NodeClassificationModel.build(rng, g, labels.num_classes, cfg)
            with dn.Tape() as tape:
                probs, _ = model.forward(g, training=True, rng=rng)
                tape.backward(nc_loss(probs, labels))
            assert all(p.grad is not None for p in model.params() if p.name.endswith(".a"))
            lengths.append((g.num_nodes, len(tape)))
        assert [n for n, _ in lengths] == [50, 400]
        assert lengths[0][1] == lengths[1][1]


    @pytest.mark.parametrize("num_bases", [0, 2])
    def test_nc_step_records_do_not_grow_with_relations(self, num_bases):
        # The planted graph's 3 relations, then each split in three by the
        # tail id: one NC forward+backward records the same ops at 9.
        graph, labels = planted_graph()
        t = graph.triples
        split = np.column_stack([t[:, 0], t[:, 1] + 3 * (t[:, 2] % 3), t[:, 2]])
        cfg = TrainConfig(hidden_units=8, dropout=0.4, num_bases=num_bases)
        lengths = []
        for g in (graph, HeteroGraph.from_triples(split, num_nodes=graph.num_nodes)):
            rng = np.random.default_rng(0)
            model = NodeClassificationModel.build(rng, g, labels.num_classes, cfg)
            with dn.Tape() as tape:
                probs, _ = model.forward(g, training=True, rng=rng)
                tape.backward(nc_loss(probs, labels))
            assert np.unique(g.index.group_rel).size == g.num_relations
            lengths.append((g.num_relations, len(tape)))
        assert [r for r, _ in lengths] == [3, 9]
        assert lengths[0][1] == lengths[1][1]

    def test_relation_stage_records_one_entry_per_layer(self, monkeypatch):
        # A 2-layer full step records two fewer entries per layer with the
        # fused relation attention than with the three-op flat pair chain.
        graph, labels = planted_graph()
        g = augment(graph, add_self_loop=True)
        cfg = TrainConfig(hidden_units=8, dropout=0.4, variant="full", num_layers=2)

        def step():
            rng = np.random.default_rng(0)
            model = NodeClassificationModel.build(rng, g, labels.num_classes, cfg)
            with dn.Tape() as tape:
                probs, _ = model.forward(g, training=True, rng=rng)
                tape.backward(nc_loss(probs, labels))
            return len(tape)

        fused = step()
        monkeypatch.setattr(
            dn, "block_attention", lambda q, k, v, lay: (attention_chain(q, k, v, lay)[0], None)
        )
        assert step() == fused + 2 * 2


class TestLayerParamsConfig:
    def test_dropout_range(self):
        with pytest.raises(ConfigurationError):
            BrgcnLayerParams(2, 2, 1, dropout=1.0)

    def test_params_order_is_stable(self):
        rng = np.random.default_rng(90)
        p = BrgcnLayerParams.create(rng, 2, 3, 2)
        names = [t.name for t in p.params()]
        assert names == [
            "layer.a",
            "layer.w_query",
            "layer.w_key",
            "layer.w_value",
            "layer.w_self",
        ]


class TestStackedParameters:
    """One parameter array per group: the tensor count and the forward's ops do not grow with R."""

    @pytest.mark.parametrize("num_relations", [3, 9])
    @pytest.mark.parametrize("num_bases, count", [(0, 5), (2, 6)])
    def test_tensor_count_does_not_depend_on_relations(self, num_relations, num_bases, count):
        p = BrgcnLayerParams.create(np.random.default_rng(0), 6, 4, num_relations, num_bases=num_bases)
        assert len(p.params()) == count

    @pytest.mark.parametrize("num_relations", [3, 9])
    @pytest.mark.parametrize("one_hot", [True, False])
    @pytest.mark.parametrize("mode", VARIANTS)
    def test_forward_restacks_no_weights(self, monkeypatch, num_relations, one_hot, mode):
        # The planted graph's 3 relations, each split in num_relations / 3 by the tail id.
        graph, _ = planted_graph()
        t = graph.triples
        split = np.column_stack([t[:, 0], t[:, 1] + 3 * (t[:, 2] % (num_relations // 3)), t[:, 2]])
        g = HeteroGraph.from_triples(split, num_nodes=graph.num_nodes)
        assert g.num_relations == num_relations
        n = g.num_nodes
        d_in = n if one_hot else 5
        p = BrgcnLayerParams.create(np.random.default_rng(1), d_in, 4, num_relations, dropout=0.3)
        h = None if one_hot else Tensor(np.random.default_rng(2).normal(size=(n, d_in)))
        calls = []

        def recording(name, op):
            def wrapped(*args, **kwargs):
                calls.append((name, args[0] is p.w_self))
                return op(*args, **kwargs)

            return wrapped

        for name in ("stack", "concat", "transpose"):
            monkeypatch.setattr(dn, name, recording(name, getattr(dn, name)))
        with dn.Tape() as tape:
            out, _ = layer_forward(p, h, g, mode=mode, training=True, rng=np.random.default_rng(3))
            tape.backward(dn.tsum(dn.mul(out, out)))
        assert calls == [("transpose", True)]

    @pytest.mark.parametrize("num_bases", [0, 2])
    def test_glorot_draws_match_one_draw_per_relation(self, num_bases):
        num_rel, d_in, d_out = 4, 3, 2
        p = BrgcnLayerParams.create(np.random.default_rng(5), d_in, d_out, num_rel, num_bases=num_bases)
        rng = np.random.default_rng(5)

        def glorot(fan_in, fan_out, shape):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            return rng.uniform(-limit, limit, size=shape)

        a = [glorot(2 * d_in, 1, (2 * d_in,)) for _ in range(num_rel)]
        w_self = glorot(d_in, d_out, (d_out, d_in))
        if num_bases:
            basis = glorot(d_in, d_out, (num_bases, d_out, d_in))
            assert np.array_equal(p.basis.data, basis)
        for role in p.ROLES:
            if num_bases:
                coeff = [rng.normal(0.0, 1.0 / np.sqrt(num_bases), size=num_bases) for _ in range(num_rel)]
                assert np.array_equal(p.roles[role].data, np.stack(coeff))
            else:
                mats = [glorot(d_in, d_out, (d_out, d_in)) for _ in range(num_rel)]
                assert all(np.array_equal(w.data, m) for w, m in zip(getattr(p, f"w_{role}"), mats))
        assert all(np.array_equal(v.data, ref) for v, ref in zip(p.a, a))
        assert np.array_equal(p.w_self.data, w_self)
        assert all(t.data.flags.c_contiguous for t in p.params())

    @pytest.mark.parametrize("num_bases", [0, 2])
    def test_per_relation_views_read_the_stacked_arrays(self, num_bases):
        num_rel, d_in, d_out = 5, 3, 2
        p = BrgcnLayerParams.create(np.random.default_rng(6), d_in, d_out, num_rel, num_bases=num_bases)
        assert len(p.a) == num_rel
        for r, v in enumerate(p.a):
            assert np.array_equal(v.data, p.attention.data[:, r])
        for role in p.ROLES:
            mats = getattr(p, f"w_{role}")
            assert len(mats) == num_rel and all(w.shape == (d_out, d_in) for w in mats)
            if num_bases:
                coeff = p.roles[role].data
                for r, w in enumerate(mats):
                    manual = np.sum(coeff[r][:, None, None] * p.basis.data, axis=0)
                    assert np.array_equal(w.data, manual)
            else:
                slots = p.roles[role].data
                for r, w in enumerate(mats):
                    assert np.array_equal(w.data.T, slots[:, r * d_out : (r + 1) * d_out])
                assert np.array_equal(p.stacked(f"w_{role}", [w.data for w in mats]), slots)
        assert np.array_equal(p.stacked("a", [v.data for v in p.a]), p.attention.data)
        for name in ("a", "w_query", "w_key", "w_value"):
            with pytest.raises(AttributeError):
                setattr(p, name, [])
