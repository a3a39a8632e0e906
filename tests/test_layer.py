"""Layer semantics: attention values, variants, invariants, gradients.

Node-level and relation-level attention are observed through
``layer_forward``: the weights through its trace, the relation summaries
z_i^r through the node_only variant (see ``_gamma_and_z``).
"""

import copy
import math

import numpy as np
import pytest

from brgcn import diffnum as dn
from brgcn.diffnum import Tensor
from brgcn.hetgraph import HeteroGraph, augment, restrict_relations
from brgcn.layer import (
    VARIANTS,
    BrgcnLayerParams,
    ConfigurationError,
    layer_forward,
    stack_forward,
)
from brgcn.training import NodeClassificationModel, TrainConfig, nc_loss
from dense_oracle import dense_layer_forward, random_instance
from gradcheck import grad_check
from synth import planted_graph


def _params_from_instance(inst, slope=0.2):
    p = BrgcnLayerParams(inst["d_in"], inst["d_out"], inst["num_rels"], leaky_slope=slope)
    p.a = [dn.param(v) for v in inst["a_vecs"]]
    p.w_query = [dn.param(m) for m in inst["w_query"]]
    p.w_key = [dn.param(m) for m in inst["w_key"]]
    p.w_value = [dn.param(m) for m in inst["w_value"]]
    p.w_self = dn.param(inst["w_self"])
    return p


def _graph_from_instance(inst):
    return HeteroGraph.from_triples(
        inst["triples"],
        num_nodes=inst["n"],
        relation_names=[f"r{k}" for k in range(inst["num_rels"])],
    )


def _identity_params(d, num_relations, w_self=None):
    """a = 0, W1 = W2 = W3 = I, configurable self matrix."""
    p = BrgcnLayerParams(d, d, num_relations)
    eye = np.eye(d)
    p.a = [dn.param(np.zeros(2 * d)) for _ in range(num_relations)]
    p.w_query = [dn.param(eye.copy()) for _ in range(num_relations)]
    p.w_key = [dn.param(eye.copy()) for _ in range(num_relations)]
    p.w_value = [dn.param(eye.copy()) for _ in range(num_relations)]
    p.w_self = dn.param(np.zeros((d, d)) if w_self is None else w_self)
    return p


def _gamma_and_z(p, h, g, i, r):
    """gamma_i^r and z_i^r as ``layer_forward`` computes them.

    On the subgraph of relation r alone and with W_self = 0, the node_only
    output of node i is z_i^r + ReLU(0) = z_i^r.
    """
    q = copy.copy(p)
    q.w_self = dn.param(np.zeros_like(p.w_self.data))
    out, trace = layer_forward(q, h, restrict_relations(g, [r]), mode="node_only")
    return trace.gamma[(i, r)], out.data[i]


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
        p = BrgcnLayerParams(2, 2, 1, leaky_slope=0.2)
        p.a = [dn.param(np.array([0.0, 0.0, 1.0, 0.0]))]
        p.w_query = p.w_key = p.w_value = [dn.param(np.eye(2))]
        p.w_self = dn.param(np.zeros((2, 2)))
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
        p = BrgcnLayerParams(2, 2, 1, leaky_slope=0.2)
        p.a = [dn.param(a)]
        p.w_query = p.w_key = p.w_value = [dn.param(np.eye(2))]
        p.w_self = dn.param(np.zeros((2, 2)))
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

    def test_node_only_formula_and_dim_requirement(self):
        rng = np.random.default_rng(44)
        inst = random_instance(rng, max_nodes=6, max_rels=2, d_in=3, d_out=3)
        g = _graph_from_instance(inst)
        p = _params_from_instance(inst)
        h = Tensor(inst["h"])
        out, _ = layer_forward(p, h, g, mode="node_only")
        _, gammas, _ = dense_layer_forward(
            inst["h"], inst["triples"], inst["n"], inst["num_rels"], inst["a_vecs"],
            inst["w_query"], inst["w_key"], inst["w_value"], inst["w_self"], 0.2,
        )
        for i in range(g.num_nodes):
            rels = g.relations_of(i)
            if not rels:
                continue
            zsum = np.zeros(3)
            for r in rels:
                zsum += gammas[(i, r)] @ inst["h"][list(g.neighbors(i, r))]
            expected = zsum + np.maximum(inst["w_self"] @ inst["h"][i], 0.0)
            np.testing.assert_allclose(out.data[i], expected, atol=1e-12)
        rect = BrgcnLayerParams.create(rng, 3, 4, 2)
        with pytest.raises(ConfigurationError):
            layer_forward(rect, h, g, mode="node_only")


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
        plain = BrgcnLayerParams(inst["d_in"], inst["d_out"], inst["num_rels"])
        plain.a = basis_params.a
        plain.w_self = basis_params.w_self
        d_out = inst["d_out"]
        for role in ("query", "key", "value"):
            stacked = basis_params.projections(role).data
            assert stacked.shape == (inst["num_rels"] * d_out, inst["d_in"])
            mats = []
            for r in range(inst["num_rels"]):
                w = stacked[r * d_out : (r + 1) * d_out]
                coeff = basis_params.coeff[role][r].data
                manual = np.sum(coeff[:, None, None] * basis_params.basis.data, axis=0)
                np.testing.assert_array_equal(w, manual)
                mats.append(dn.param(w.copy()))
            setattr(plain, f"w_{role}", mats)
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
        mats = {
            role: [np.tensordot(c.data, p.basis.data, axes=1) for c in p.coeff[role]]
            for role in p.ROLES
        }
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
            assert all(p.grad is not None for p in model.params() if ".a." in p.name)
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


class TestLayerParamsConfig:
    def test_dropout_range(self):
        with pytest.raises(ConfigurationError):
            BrgcnLayerParams(2, 2, 1, dropout=1.0)

    def test_params_order_is_stable(self):
        rng = np.random.default_rng(90)
        p = BrgcnLayerParams.create(rng, 2, 3, 2)
        names = [t.name for t in p.params()]
        assert names == [
            "layer.a.0",
            "layer.a.1",
            "layer.w_query.0",
            "layer.w_query.1",
            "layer.w_key.0",
            "layer.w_key.1",
            "layer.w_value.0",
            "layer.w_value.1",
            "layer.w_self",
        ]
