"""Layer semantics: attention values, variants, invariants, gradients.

Node-level and relation-level attention are observed through
``layer_forward``: the weights through its trace, the relation summaries
z_i^r through the node_only variant (see ``_gamma_and_z``).
"""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from brgcn import diffnum as dn
from brgcn.cli import _attention_payload
from brgcn.diffnum import Tensor
from brgcn import layer as layer_mod
from brgcn.hetgraph import HeteroGraph, NodeLabels, augment, receptive_fields, restrict_relations
from brgcn.layer import (
    GAMMA_VARIANTS,
    PSI_VARIANTS,
    VARIANTS,
    BrgcnLayerParams,
    ConfigurationError,
    _rows,
    layer_forward,
    stack_forward,
)
from brgcn.training import LinkPredictionModel, NodeClassificationModel, TrainConfig, nc_loss
from all_edge_oracle import all_edge_layer_forward
from dense_oracle import dense_layer_forward, random_instance
from gradcheck import grad_check
from layer_weights import layer_with_weights
from pair_oracle import attention_chain
import scatter_oracle
from slot_oracle import nr_rows
from synth import planted_graph, relations_of


def _params_from_instance(inst, slope=0.2, variant="full"):
    return layer_with_weights(
        inst["a_vecs"], inst["w_query"], inst["w_key"], inst["w_value"], inst["w_self"],
        leaky_slope=slope, variant=variant,
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
        q = BrgcnLayerParams(p.d_in, p.d_out, p.num_relations, leaky_slope=p.leaky_slope, variant="node_only")
        q.attention = p.attention
        q.w_self = dn.param(np.zeros_like(p.w_self.data))
        q.roles = {**p.roles, "value": dn.param(np.tile(sign * np.eye(p.d_in), p.num_relations))}
        return layer_forward(q, h, restrict_relations(g, [r]))

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
        r = g.relation_id("SELF")
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

    def test_unknown_variant_refused_when_built(self):
        with pytest.raises(ConfigurationError, match=re.escape(str(VARIANTS))):
            BrgcnLayerParams.create(np.random.default_rng(0), 2, 2, 1, variant="bogus")

    def test_variant_is_read_only_and_the_layer_runs_as_built(self):
        g = HeteroGraph.from_triples([(0, 0, 1), (0, 1, 2), (1, 0, 2), (2, 1, 0), (0, 0, 2)])
        h = Tensor(np.random.default_rng(1).normal(size=(3, 4)))
        p = BrgcnLayerParams.create(np.random.default_rng(0), 4, 3, 2)
        want, _ = layer_forward(p, h, g)
        for value in ("bogus", "node_only"):
            with pytest.raises(AttributeError):
                p.variant = value
        assert p.variant == "full"
        np.testing.assert_array_equal(layer_forward(p, h, g)[0].data, want.data)
        node_only = BrgcnLayerParams.create(np.random.default_rng(0), 4, 3, 2, variant="node_only")
        assert not np.array_equal(layer_forward(node_only, h, g)[0].data, want.data)


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
        l1 = BrgcnLayerParams.create(rng, 3, 16, 2, live=g.index)
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
            for r in relations_of(g, i):
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
        h = Tensor(inst["h"])
        a, _ = layer_forward(_params_from_instance(inst), h, g)
        b, _ = layer_forward(_params_from_instance(inst, variant="full"), h, g)
        np.testing.assert_array_equal(a.data, b.data)

    def test_relation_only_equals_full_on_singleton_neighborhoods(self):
        # one neighbor per (node, relation) forces gamma = [1] either way
        triples = [(0, 0, 1), (0, 1, 2), (1, 0, 2), (2, 1, 0)]
        g = HeteroGraph.from_triples(triples, num_nodes=3)
        rng = np.random.default_rng(41)
        p = BrgcnLayerParams.create(rng, 3, 3, 2, variant="full")
        h = Tensor(rng.normal(size=(3, 3)))
        q = BrgcnLayerParams.create(np.random.default_rng(41), 3, 3, 2, variant="relation_only")
        full, _ = layer_forward(p, h, g)
        rel_only, _ = layer_forward(q, h, g)
        np.testing.assert_allclose(full.data, rel_only.data, atol=1e-12)

    def test_relation_only_uses_uniform_weights(self):
        g = HeteroGraph.from_triples([(0, 0, 1), (0, 0, 2), (0, 0, 3)], num_nodes=4)
        rng = np.random.default_rng(42)
        p = BrgcnLayerParams.create(rng, 2, 2, 1, variant="relation_only")
        _, trace = layer_forward(p, Tensor(rng.normal(size=(4, 2))), g)
        np.testing.assert_allclose(trace.gamma[(0, 0)], [1 / 3] * 3, atol=1e-15)

    def test_rgcn_baseline_matches_dense_hand_computation(self):
        rng = np.random.default_rng(43)
        inst = random_instance(rng, max_nodes=6, max_rels=3)
        g = _graph_from_instance(inst)
        p = _params_from_instance(inst, variant="rgcn_baseline")
        out, _ = layer_forward(p, Tensor(inst["h"]), g)
        expected = np.zeros((inst["n"], inst["d_out"]))
        for i in range(inst["n"]):
            rels = relations_of(g, i)
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
        p = _params_from_instance(inst, variant="node_only")
        out, trace = layer_forward(p, Tensor(inst["h"]), g)
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
        p = BrgcnLayerParams.create(rng, 3, 5, 2, variant="node_only")
        h = Tensor(rng.normal(size=(4, 3)))
        q = BrgcnLayerParams.create(np.random.default_rng(45), 3, 5, 2, variant="rgcn_baseline")
        node_only, _ = layer_forward(p, h, g)
        baseline, _ = layer_forward(q, h, g)
        np.testing.assert_array_equal(node_only.data, baseline.data)
        assert not node_only.data[3].any()  # no edges: zero despite the self term


class TestDropout:
    def _setup(self, variant="full"):
        rng = np.random.default_rng(50)
        inst = random_instance(rng, max_nodes=8, max_rels=2)
        g = _graph_from_instance(inst)
        p = _params_from_instance(inst, variant=variant)
        p.dropout = 0.5
        return g, p, Tensor(inst["h"])

    def test_training_forward_differs_and_eval_is_clean(self):
        g, p, h = self._setup()
        eval_out, _ = layer_forward(p, h, g)
        train_out, _ = layer_forward(p, h, g, rng=np.random.default_rng(1))
        assert np.abs(eval_out.data - train_out.data).max() > 1e-9
        eval_again, _ = layer_forward(p, h, g)
        np.testing.assert_array_equal(eval_out.data, eval_again.data)

    def test_trace_records_pre_dropout_weights(self):
        g, p, h = self._setup()
        _, trace = layer_forward(p, h, g, rng=np.random.default_rng(2))
        for gamma in trace.gamma.values():
            assert abs(gamma.sum() - 1.0) <= 1e-9

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("one_hot", [False, True])
    def test_rng_draws_masks_exactly_when_the_layer_has_dropout(self, variant, one_hot):
        g, p, h = self._setup(variant)
        if one_hot:
            h = None
            p = BrgcnLayerParams.create(np.random.default_rng(5), g.num_nodes, 3, g.num_relations, variant=variant,
                                        live=g.index)
            p.dropout = 0.5
        eval_out, _ = layer_forward(p, h, g)
        rng = _CountingRng(9)
        layer_forward(p, h, g, rng=rng)
        assert rng.calls == (2 if variant in ("full", "node_only") else 1)  # features, then gamma
        p.dropout = 0.0
        rng = _CountingRng(9)
        out, _ = layer_forward(p, h, g, rng=rng)
        assert rng.calls == 0
        np.testing.assert_array_equal(out.data, eval_out.data)


class _CountingRng:
    """A seeded generator that counts its ``random`` calls, one per dropout mask."""

    def __init__(self, seed):
        self._rng, self.calls = np.random.default_rng(seed), 0

    def random(self, shape):
        self.calls += 1
        return self._rng.random(shape)


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
            coeff, basis = basis_params.roles[role].data, basis_params.basis.data
            product = (coeff @ basis.reshape(len(basis), -1)).reshape(stacked.shape)
            for r in range(inst["num_rels"]):
                w = stacked[r * d_out : (r + 1) * d_out]
                np.testing.assert_array_equal(w, product[r * d_out : (r + 1) * d_out])
                np.testing.assert_allclose(w, np.sum(coeff[r][:, None, None] * basis, axis=0), rtol=1e-14)
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

    def test_step_peak_grows_with_bases_by_the_basis_columns_at_the_slots(self):
        # One 2-layer one-hot NC forward+backward, 1000 nodes, 20 relations with
        # inverses and self loops (41), hidden 8.  Layer 0 forms each role's
        # rows at its L live slots from the B*d_out basis entries of each slot's
        # node, multiplied in chunks of CHUNK_ROWS slots per relation, and layer
        # 1's weights are one (R, B) @ (B, d_out*d_in) product.  So 8 bases add
        # to what 1 basis peaks at a few arrays of B*d_out floats per lane or
        # node (at most L + R*CHUNK_ROWS lanes), about 1.5 of them here, bounded
        # by 3; one (R, B, d_out, d_in) array, never built or taped, is larger
        # than that bound on its own.
        n, hidden, bases = 1000, 8, 8
        rng = np.random.default_rng(12)
        triples = np.column_stack([rng.integers(0, n, n), rng.integers(0, 20, n), rng.integers(0, n, n)])
        g = augment(HeteroGraph.from_triples(triples, num_nodes=n), add_inverse=True, add_self_loop=True)
        labels = NodeLabels(tuple(range(n)), {i: i % 2 for i in range(n)}, 2)
        g.index  # built once per graph, outside the step
        peaks = {}
        for num_bases in (1, bases):
            cfg = TrainConfig(hidden_units=hidden, dropout=0.0, num_bases=num_bases)
            model = NodeClassificationModel.build(np.random.default_rng(0), g, 2, cfg)
            tracemalloc.start()
            try:
                with dn.Tape() as tape:
                    tape.backward(nc_loss(model.forward(g)[0], labels))
                peaks[num_bases] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert all(p.grad is not None for p in model.params() if ".coeff_" in p.name or ".basis" in p.name)
        lanes = g.index.live_slots.size + g.num_relations * dn.CHUNK_ROWS
        bound = 3 * (lanes + n) * bases * hidden * 8
        expanded = g.num_relations * bases * hidden * n * 8  # one (R, B, d_out, d_in) array's bytes
        assert bound < expanded
        assert peaks[bases] - peaks[1] <= bound, peaks

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
    """Relation ids that have no edges: between the used ones or after the last."""

    CASES = {
        # (relations with edges, relation count)
        "edgeless_middle_relation": ((0, 2), 3),
        "edgeless_trailing_relations": ((0, 1), 4),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("num_bases", [0, 2])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_matches_dense_oracle(self, case, num_bases, variant):
        used, num_rel = self.CASES[case]
        rng = np.random.default_rng(73)
        n, d = 9, 3
        triples = [(int(rng.integers(n)), int(rng.choice(used)), int(rng.integers(n))) for _ in range(24)]
        g = HeteroGraph.from_triples(
            triples, num_nodes=n, relation_names=[f"r{k}" for k in range(num_rel)]
        )
        assert sorted(set(g.index.group_rel.tolist())) == list(used)
        p = BrgcnLayerParams.create(rng, d, d, num_rel, num_bases=num_bases, variant=variant)
        h = rng.normal(size=(n, d))
        out, trace = layer_forward(p, Tensor(h), g)
        a, wq, wk, wv = _oracle_weights(p)
        oracle, gammas, psis = dense_layer_forward(
            h, g.triples.tolist(), n, num_rel, a, wq, wk, wv, p.w_self.data, 0.2, mode=variant
        )
        np.testing.assert_allclose(out.data, oracle, atol=1e-10)
        assert trace.gamma.keys() == gammas.keys()
        for key, gam in gammas.items():
            np.testing.assert_allclose(trace.gamma[key], gam, atol=1e-12)
        if variant in ("full", "relation_only"):
            assert trace.psi.keys() == psis.keys()
            for i, psi in psis.items():
                np.testing.assert_allclose(trace.psi[i], psi, atol=1e-12)

    @pytest.mark.parametrize("layer_rels", [2, 4])
    def test_layer_of_another_relation_count_refused(self, layer_rels):
        g = HeteroGraph.from_triples([(0, 0, 1), (1, 2, 0)], relation_names=["a", "b", "c"])
        p = BrgcnLayerParams.create(np.random.default_rng(0), 2, 2, layer_rels)
        with pytest.raises(ConfigurationError, match=f"sized for {layer_rels} relations, graph has 3"):
            layer_forward(p, Tensor(np.ones((2, 2))), g)


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
    def _step(g, h, rng, variant, num_bases, dropout):
        p = BrgcnLayerParams.create(
            np.random.default_rng(3), g.num_nodes, 5, g.num_relations,
            num_bases=num_bases, dropout=dropout, variant=variant, live=g.index,
        )
        with dn.Tape() as tape:
            out, _ = layer_forward(p, h, g, rng=rng)
            tape.backward(dn.tsum(dn.mul(out, out)))
        return out.data, [t.grad for t in p.params()]

    def _explicit(self, g, replay, variant, num_bases, dropout):
        """The step on ``np.eye(n)`` whose masked input is ``np.diag(m)``, m drawn from ``replay``.

        Its dense (n, n) feature draw is replayed with the n node draws on the
        diagonal and 1 (always dropped) off it; the edge draws follow as drawn.
        """
        n = g.num_nodes
        draws = [np.where(np.eye(n, dtype=bool), replay.random(n)[:, None], 1.0)]
        if variant in ("full", "node_only"):  # the variants that learn gamma drop edges too
            draws.append(replay.random(g.index.heads.size))
        return self._step(g, Tensor(np.eye(n)), _Replay(*draws), variant, num_bases, dropout)

    @pytest.mark.parametrize("dropout", [0.0, 0.4])
    @pytest.mark.parametrize("num_bases", [0, 2])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_bit_equal_to_explicit_identity(self, variant, num_bases, dropout):
        # Under bases, one-hot input forms each slot's row from the basis at the
        # slot, while the explicit input multiplies out each role's slot weight,
        # (coeff @ basis) with BLAS: the two sums of B products, and every
        # gradient through them, agree within 1e-12 scaled by the largest entry.
        g = self._graph()
        out, grads = self._step(g, None, np.random.default_rng(11), variant, num_bases, dropout)
        ref_out, ref_grads = self._explicit(g, np.random.default_rng(11), variant, num_bases, dropout)
        assert [grad is None for grad in grads] == [grad is None for grad in ref_grads]
        for got, ref in zip([out, *grads], [ref_out, *ref_grads]):
            if got is None:
                continue
            if num_bases:
                assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
            else:
                assert np.array_equal(got, ref)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_training_forward_draws_n_feature_and_e_edge_numbers(self, variant):
        g = self._graph()
        rng = np.random.default_rng(11)
        self._step(g, None, rng, variant, 0, 0.4)
        replay = np.random.default_rng(11)
        replay.random(g.num_nodes)
        if variant in ("full", "node_only"):
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
            loss = lambda: nc_loss(model.forward(g, rng=rng)[0], labels)  # noqa: E731
        else:
            model = LinkPredictionModel.build(rng, g, g.num_relations, cfg, "distmult")
            loss = lambda: dn.tsum(model.embeddings(g, rng=rng))  # noqa: E731
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
        p = BrgcnLayerParams.create(rng, n, 16, g.num_relations, dropout=0.4, variant="node_only", live=g.index)
        g.index  # built once per graph, outside the step
        tracemalloc.start()
        try:
            with dn.Tape() as tape:
                out, _ = layer_forward(p, None, g, rng=rng)
                tape.backward(dn.tsum(dn.mul(out, out)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p.roles["value"].grad is not None
        assert peak < n * n * 8


class TestFlatTrace:
    """The trace mappings against brute-force dicts built per (node, relation)."""

    @staticmethod
    def _graph_and_params(variant="full"):
        g = augment(planted_graph(num_labeled=20)[0], add_inverse=True, add_self_loop=True)
        p = BrgcnLayerParams.create(np.random.default_rng(8), g.num_nodes, 4, g.num_relations, variant=variant,
                                    live=g.index)
        return g, p

    @pytest.mark.parametrize("variant", ["full", "relation_only"])
    def test_keys_order_and_values_match_brute_force(self, variant):
        g, p = self._graph_and_params(variant)
        n, num_rel = g.num_nodes, g.num_relations
        _, trace = layer_forward(p, None, g)
        a, wq, wk, wv = _oracle_weights(p)
        _, gammas, psis = dense_layer_forward(
            np.eye(n), g.triples.tolist(), n, num_rel, a, wq, wk, wv, p.w_self.data, 0.2, mode=variant
        )
        groups = [(i, r) for r in range(num_rel) for i in range(n) if g.neighbors(i, r)]
        assert list(trace.gamma) == list(gammas) == groups
        assert len(trace.gamma) == len(groups)
        for (i, r), gamma in trace.gamma.items():
            assert gamma.shape == (len(g.neighbors(i, r)),)
            np.testing.assert_allclose(gamma, gammas[(i, r)], atol=1e-12)
        nodes = [i for i in range(n) if relations_of(g, i)]
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

    @pytest.mark.parametrize("variant", ["full", "relation_only"])
    def test_mappings_and_values_are_built_once(self, variant):
        g, p = self._graph_and_params(variant)
        _, trace = layer_forward(p, None, g)
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

    @pytest.mark.parametrize("variant", ["full", "relation_only", "node_only", "rgcn_baseline"])
    def test_gamma_lists_are_gamma_as_lists(self, variant):
        g, p = self._graph_and_params(variant)
        _, trace = layer_forward(p, None, g)
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
                probs, _ = model.forward(g, rng=rng)
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
                probs, _ = model.forward(g, rng=rng)
                tape.backward(nc_loss(probs, labels))
            assert np.unique(g.index.group_rel).size == g.num_relations
            lengths.append((g.num_relations, len(tape)))
        assert [r for r, _ in lengths] == [3, 9]
        assert lengths[0][1] == lengths[1][1]

    @pytest.mark.parametrize(
        "variant, records",
        [
            ("full", (43, 51, 70, 78)),
            ("node_only", (37, 43, 48, 54)),
            ("relation_only", (27, 32, 54, 59)),
            ("rgcn_baseline", (21, 24, 32, 35)),
        ],
    )
    def test_nc_step_records_per_variant_bases_and_dropout(self, variant, records):
        # One 2-layer NC forward+backward with inverses and self loops, without
        # bases and then with 2, each without and with dropout: the records of
        # each variant's op sequence, pinned.  Without bases layer 0 reads its
        # stored live rows straight from the parameters; with them it forms
        # the roles' rows at its live slots, one product for every role.  Both
        # read a at its attention rows, one take from layer 0's stored a.  The
        # dense layer 1 projects its rows at its live slots, one product for
        # the roles, and a's attention rows, one product for both halves.
        graph, labels = planted_graph()
        g = augment(graph, add_inverse=True, add_self_loop=True)
        lengths = []
        for num_bases in (0, 2):
            for dropout in (0.0, 0.4):
                cfg = TrainConfig(hidden_units=8, dropout=dropout, num_bases=num_bases, variant=variant)
                rng = np.random.default_rng(0)
                model = NodeClassificationModel.build(rng, g, labels.num_classes, cfg)
                with dn.Tape() as tape:
                    probs, _ = model.forward(g, rng=rng)
                    tape.backward(nc_loss(probs, labels))
                lengths.append(len(tape))
        assert tuple(lengths) == records

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
                probs, _ = model.forward(g, rng=rng)
                tape.backward(nc_loss(probs, labels))
            return len(tape)

        fused = step()
        monkeypatch.setattr(
            dn, "block_attention", lambda q, k, v, lay: (attention_chain(q, k, v, lay)[0], None)
        )
        assert step() == fused + 2 * 2


class TestVariantIsBuilt:
    """A layer runs as the variant it was built with; no forward names one."""

    @staticmethod
    def _model(task, variant):
        g = augment(planted_graph(num_labeled=20)[0], add_inverse=True, add_self_loop=True)
        cfg = TrainConfig(hidden_units=6, num_layers=2, encoder_layers=2, variant=variant)
        rng = np.random.default_rng(4)
        if task == "nc":
            return g, NodeClassificationModel.build(rng, g, 2, cfg)
        return g, LinkPredictionModel.build(rng, g, g.num_relations, cfg, "distmult")

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("task", ["nc", "lp"])
    def test_stack_forward_on_the_models_layers_is_encode(self, task, variant):
        g, model = self._model(task, variant)
        out, _ = stack_forward(model.layers, None, g)
        want, _ = model.encode(g)
        assert np.array_equal(out.data, want.data)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("task", ["nc", "lp"])
    def test_every_built_layer_carries_the_configs_variant(self, task, variant):
        _, model = self._model(task, variant)
        assert len(model.layers) == 2 and all(lay.variant == variant for lay in model.layers)

    @pytest.mark.parametrize("num_bases", [0, 2])
    def test_init_draws_do_not_depend_on_the_variant(self, num_bases):
        rngs = [np.random.default_rng(7) for _ in VARIANTS]
        built = [
            BrgcnLayerParams.create(rng, 5, 3, 4, num_bases=num_bases, variant=variant)
            for rng, variant in zip(rngs, VARIANTS)
        ]
        first = built[0].params()
        for p, rng in zip(built[1:], rngs[1:]):
            assert [t.name for t in p.params()] == [t.name for t in first]
            assert all(np.array_equal(t.data, u.data) for t, u in zip(p.params(), first))
            assert rng.bit_generator.state == rngs[0].bit_generator.state


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


class TestRowSource:
    """Every layer reads its rows at its index's live slots, against the N*R row source of ``slot_oracle``."""

    @staticmethod
    def _graph():
        return augment(planted_graph(num_labeled=20)[0], add_inverse=True, add_self_loop=True)

    @staticmethod
    def _inputs(g, variant, num_bases, one_hot, field, dropout):
        """The step's layer, input, upstream gradient and index."""
        n = g.num_nodes
        d_in = n if one_hot else 5
        p = BrgcnLayerParams.create(np.random.default_rng(1), d_in, 4, g.num_relations, num_bases=num_bases,
                                    dropout=dropout, variant=variant, live=g.index if one_hot else None)
        h = None if one_hot else dn.param(np.random.default_rng(2).normal(size=(n, d_in)))
        up = Tensor(np.random.default_rng(3).normal(size=(n, 4)))
        return p, h, up, receptive_fields(g.index, [0, 3, 20, 21, 25], 1)[0] if field else None

    def _step(self, *args):
        p, h, up, index = self._inputs(*args)
        with dn.Tape() as tape:
            out, trace = layer_forward(p, h, args[0], rng=np.random.default_rng(5), index=index)
            tape.backward(dn.tsum(dn.mul(out, up)))
        return out.data, trace, [t.grad for t in p.params()] + ([] if h is None else [h.grad])

    def _rows_agree(self, *args) -> bool:
        """Whether both row sources give the step's rows the same bits, under its masks."""
        g, variant, _, one_hot, _, dropout = args
        p, h, _, index = self._inputs(*args)
        keep = 1.0 - dropout
        shape = (g.num_nodes, 1) if one_hot else h.shape
        mask = Tensor((np.random.default_rng(5).random(shape) < keep) / keep) if dropout else None
        if h is not None and mask is not None:
            h = dn.mul(h, mask)
        roles = p.ROLES if variant in PSI_VARIANTS else ("value",)
        attend = variant in GAMMA_VARIANTS
        got, want = (f(p, h, mask, index or g.index, roles, attend) for f in (_rows, nr_rows))
        pairs = [(got[0], want[0])] * attend + list(zip(got[1], want[1]))
        return all(np.array_equal(x.data.view(np.int64), y.data.view(np.int64)) for x, y in pairs)

    @pytest.mark.parametrize("dropout", [0.0, 0.4])
    @pytest.mark.parametrize("field", [False, True])
    @pytest.mark.parametrize("one_hot", [True, False])
    @pytest.mark.parametrize("num_bases", [0, 2])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_step_matches_the_nr_row_source(self, monkeypatch, variant, num_bases, one_hot, field, dropout):
        # Outputs, gamma, psi and every gradient, the input's included.  They
        # are bit-equal where the two row sources' products agree bit for bit:
        # always on one-hot input without bases, which reads stored rows and
        # multiplies nothing.  A per-relation product can move the last bits
        # of a narrow row (a's halves are one float wide), and every gradient
        # of a product sums in another order: there they agree within 1e-12,
        # scaled as the benchmark's dense reference check scales its 1e-10.
        g = self._graph()
        args = (g, variant, num_bases, one_hot, field, dropout)
        got = self._step(*args)
        monkeypatch.setattr(layer_mod, "_rows", nr_rows)
        want = self._step(*args)
        exact = self._rows_agree(*args)
        assert exact or not one_hot or num_bases

        def same(a, b, bits):
            assert a.shape == b.shape
            if bits:
                assert np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))
            else:
                assert np.max(np.abs(a - b), initial=0.0) <= 1e-12 * max(1.0, np.max(np.abs(b), initial=0.0))

        same(got[0], want[0], exact)
        same(got[1].flat_gamma, want[1].flat_gamma, exact)
        assert (got[1].flat_psi is None) == (want[1].flat_psi is None) == (variant not in PSI_VARIANTS)
        if got[1].flat_psi is not None:
            same(got[1].flat_psi, want[1].flat_psi, exact)
        assert [a is None for a in got[2]] == [b is None for b in want[2]]
        for a, b in zip(got[2], want[2]):
            if a is not None:  # the stored rows' gradients are gathered and scattered, never summed
                same(a + 0.0, b + 0.0, one_hot and not num_bases)

    @pytest.mark.parametrize("variant", ["full", "rgcn_baseline"])
    def test_dense_step_allocates_no_slot_of_nodes_times_relations(self, variant):
        # 2,000 nodes, 200 relations and 3,000 edges: N*R is 133 times E.  One
        # forward and backward of a dense 8-wide layer, over the whole graph
        # and over the field of every tenth node, allocates O(E + N) rows of 8
        # floats; one (N, R*8) projection would be 25.6 MB.
        rng = np.random.default_rng(0)
        n, num_rel, e, d = 2000, 200, 3000, 8
        t = np.column_stack([rng.integers(0, n, e), rng.integers(0, num_rel, e), rng.integers(0, n, e)])
        g = HeteroGraph.from_triples(t, num_nodes=n, relation_names=[f"r{k}" for k in range(num_rel)])
        assert n * num_rel >= 100 * g.num_triples
        p = BrgcnLayerParams.create(rng, d, d, num_rel, variant=variant, dropout=0.4)
        h = dn.param(rng.normal(size=(n, d)))
        for index in (None, receptive_fields(g.index, range(0, n, 10), 1)[0]):

            def step():
                with dn.Tape() as tape:
                    out, _ = layer_forward(p, h, g, rng=np.random.default_rng(1), index=index, collect_trace=False)
                    tape.backward(dn.tsum(dn.mul(out, out)))

            step()  # the index's caches, built untraced
            tracemalloc.start()
            try:
                step()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 32 * 8 * (g.num_triples + n) * d


class TestHeadReadThroughGroups:
    """A layer reads a_r's head half once per multi edge, at its group's row, through an index checked once."""

    @pytest.mark.parametrize("variant", GAMMA_VARIANTS)
    @pytest.mark.parametrize("one_hot", [True, False])
    def test_gradients_equal_the_per_edge_head_slot_scatter(self, monkeypatch, variant, one_hot):
        # The same training step twice, the second with the head read replaced
        # by a take at the same rows by a plain index, scattered by one
        # np.add.at: every gradient is bit-equal.
        g = augment(planted_graph(num_labeled=20)[0], add_inverse=True, add_self_loop=True)
        idx, num_rel = g.index, g.num_relations
        assert idx.group_size.max() >= 5 and 0 < idx.multi_edges.size < idx.edge_group.size
        head_read, multi, groups = idx.multi_live[0], idx.multi_edges.ids, idx.multi_rows[0]
        assert np.array_equal(groups[head_read.ids], idx.edge_group[multi])
        assert np.array_equal(idx.group_slot[groups[head_read.ids]], (idx.heads * num_rel + idx.edge_rel)[multi])
        d = g.num_nodes if one_hot else 6
        x = None if one_hot else Tensor(np.random.default_rng(2).normal(size=(g.num_nodes, d)))
        up = np.random.default_rng(3).normal(size=(g.num_nodes, d))

        def grads():
            p = BrgcnLayerParams.create(np.random.default_rng(1), d, d, num_rel, dropout=0.4, variant=variant,
                                        live=g.index if one_hot else None)
            with dn.Tape() as tape:
                out, _ = layer_forward(p, x, g, rng=np.random.default_rng(5))
                tape.backward(dn.tsum(dn.mul(out, Tensor(up))))
            return out.data, [t.grad for t in p.params()]

        got = grads()
        take, routed = dn.take, []

        def per_edge_head_take(a, indices):
            if indices is head_read:
                routed.append(indices)
                return scatter_oracle.take(a, head_read.ids)
            return take(a, indices)

        monkeypatch.setattr(dn, "take", per_edge_head_take)
        want = grads()
        assert len(routed) == 1
        assert np.array_equal(got[0], want[0])
        assert np.any(got[1][0][:d])  # the head half has a gradient
        for a, b in zip(got[1], want[1]):  # node_only leaves the query and key roles without one
            assert a is b is None or np.array_equal(a.view(np.int64), b.view(np.int64))


class TestStackedParameters:
    """One parameter array per group: the tensor count and the forward's ops do not grow with R."""

    @pytest.mark.parametrize("num_relations", [3, 9])
    @pytest.mark.parametrize("num_bases, count", [(0, 5), (2, 6)])
    def test_tensor_count_does_not_depend_on_relations(self, num_relations, num_bases, count):
        p = BrgcnLayerParams.create(np.random.default_rng(0), 6, 4, num_relations, num_bases=num_bases)
        assert len(p.params()) == count

    @pytest.mark.parametrize("num_relations", [3, 9])
    @pytest.mark.parametrize("one_hot", [True, False])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_forward_restacks_no_weights(self, monkeypatch, num_relations, one_hot, variant):
        # The planted graph's 3 relations, each split in num_relations / 3 by the tail id.
        graph, _ = planted_graph()
        t = graph.triples
        split = np.column_stack([t[:, 0], t[:, 1] + 3 * (t[:, 2] % (num_relations // 3)), t[:, 2]])
        g = HeteroGraph.from_triples(split, num_nodes=graph.num_nodes)
        assert g.num_relations == num_relations
        n = g.num_nodes
        d_in = n if one_hot else 5
        p = BrgcnLayerParams.create(
            np.random.default_rng(1), d_in, 4, num_relations, dropout=0.3, variant=variant,
            live=g.index if one_hot else None,
        )
        h = None if one_hot else Tensor(np.random.default_rng(2).normal(size=(n, d_in)))
        calls = []

        def recording(name, op):
            def wrapped(*args, **kwargs):
                given = args[0] if name == "concat" else args[:1]  # concat takes a list
                calls.append((name, [t.name for t in given if t in p.params()]))
                return op(*args, **kwargs)

            return wrapped

        for name in ("stack", "concat", "transpose"):
            monkeypatch.setattr(dn, name, recording(name, getattr(dn, name)))
        with dn.Tape() as tape:
            out, _ = layer_forward(p, h, g, rng=np.random.default_rng(3))
            tape.backward(dn.tsum(dn.mul(out, out)))
        # A dense layer that learns gamma joins a's head rows and tail rows, not its weights.
        rows = [("concat", [])] if not one_hot and variant in GAMMA_VARIANTS else []
        assert calls == [*rows, ("transpose", ["layer.w_self"])]

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
    def test_reading_the_views_in_a_tape_records_nothing(self, num_bases):
        p = BrgcnLayerParams.create(np.random.default_rng(8), 3, 2, 4, num_bases=num_bases)
        with dn.Tape() as tape:
            views = [getattr(p, name) for name in ("a", "w_query", "w_key", "w_value")]
        assert len(tape) == 0
        assert all(not w.requires_grad for view in views for w in view)

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
            slots = p._slot_weight(role).data  # the weight every forward projects
            for r, w in enumerate(mats):
                assert np.array_equal(w.data.T, slots[:, r * d_out : (r + 1) * d_out])
            assert np.array_equal(p.stacked(f"w_{role}", [w.data for w in mats]), slots)
            if num_bases:
                coeff, basis = p.roles[role].data, p.basis.data
                product = (coeff @ basis.reshape(len(basis), -1)).reshape(num_rel, d_out, d_in)
                for r, w in enumerate(mats):
                    assert np.array_equal(w.data, product[r])
                    np.testing.assert_allclose(w.data, np.sum(coeff[r][:, None, None] * basis, axis=0), rtol=1e-14)
            else:
                assert slots is p.roles[role].data
        assert np.array_equal(p.stacked("a", [v.data for v in p.a]), p.attention.data)
        for name in ("a", "w_query", "w_key", "w_value"):
            with pytest.raises(AttributeError):
                setattr(p, name, [])


class TestLiveSlots:
    """A layer built with ``live`` stores layer 0's rows at the graph's live slots and groups only."""

    @staticmethod
    def _graph():
        g = augment(planted_graph(num_labeled=30)[0], add_self_loop=True)
        idx = g.index
        assert idx.live_slots.size < g.num_nodes * g.num_relations and idx.live_slots.size != idx.num_groups
        return g

    @staticmethod
    def _step(p, h, g, up, rng):
        with dn.Tape() as tape:
            out, trace = layer_forward(p, h, g, rng=rng)
            tape.backward(dn.tsum(dn.mul(out, Tensor(up))))
        return out.data, trace, [t.grad for t in p.params()]

    @staticmethod
    def _same_trace(a, b):
        assert np.array_equal(a.flat_gamma, b.flat_gamma)
        assert (a.flat_psi is None) == (b.flat_psi is None)
        assert a.flat_psi is None or np.array_equal(a.flat_psi, b.flat_psi)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("dropout", [0.0, 0.4])
    def test_live_layer_is_the_full_layer_at_its_live_slots(self, variant, dropout):
        # The same init, the same masks: on the identity matrix every output,
        # trace and gradient is bit-equal, and the live gradients are the full
        # layer's gathered at the live slots.  The full layer reads dense input
        # only; the live layer's one-hot input agrees with it without dropout.
        g = self._graph()
        n, num_rel = g.num_nodes, g.num_relations
        up = np.random.default_rng(3).normal(size=(n, 4))
        layers = [
            BrgcnLayerParams.create(np.random.default_rng(1), n, 4, num_rel, dropout=dropout, variant=variant,
                                    live=live)
            for live in (None, g.index)
        ]
        full, live = layers
        assert [t.name for t in full.params()] == [t.name for t in live.params()]
        steps = {}
        for h in (None, Tensor(np.eye(n))):
            for rng in (None, 5):
                masks = [None if rng is None else np.random.default_rng(rng) for _ in layers]
                live_out, live_trace, live_grads = self._step(live, h, g, up, masks[1])
                if h is not None:
                    out, trace, grads = self._step(full, h, g, up, masks[0])
                    assert np.array_equal(out, live_out)
                    self._same_trace(trace, live_trace)
                    for t, grad, live_grad in zip(live.params(), grads, live_grads):
                        assert (grad is None) == (live_grad is None)
                        if grad is not None:
                            assert np.array_equal(live.live_rows(t.name.split(".")[1], grad), live_grad)
                for p in layers:
                    dn.zero_grad(p.params())
                steps[h is None, rng] = live_out, live_trace, live_grads
        one_hot, eye = steps[True, None], steps[False, None]  # without dropout the two inputs agree
        assert np.array_equal(one_hot[0], eye[0])
        self._same_trace(one_hot[1], eye[1])
        assert all(a is b is None or np.array_equal(a, b) for a, b in zip(one_hot[2], eye[2]))

    def test_stored_rows_and_views(self):
        g = self._graph()
        idx, n, num_rel = g.index, g.num_nodes, g.num_relations
        p = BrgcnLayerParams.create(np.random.default_rng(2), n, 3, num_rel, live=idx)
        slots = idx.live_slots
        assert p.attention.shape == (idx.num_groups + slots.size,)
        assert all(p.roles[role].shape == (slots.size, 3) for role in p.ROLES)
        # The views and the slot weight place the stored rows at their slots, zeros elsewhere.
        full_a = np.stack([v.data for v in p.a], axis=1)
        assert np.array_equal(full_a[idx.group_node, idx.group_rel], p.attention.data[: idx.num_groups])
        assert np.array_equal(full_a[n + slots // num_rel, slots % num_rel], p.attention.data[idx.num_groups :])
        assert np.count_nonzero(full_a) == p.attention.data.size
        for role in p.ROLES:
            rows = p._slot_weight(role).data.reshape(n * num_rel, 3)
            assert np.array_equal(rows[slots], p.roles[role].data)
            assert np.count_nonzero(rows) == rows[slots].size
            mats = getattr(p, f"w_{role}")
            assert np.array_equal(p.stacked(f"w_{role}", [w.data for w in mats]), rows.reshape(n, -1))
            assert np.array_equal(p.live_rows(f"w_{role}", rows.reshape(n, -1)), p.roles[role].data)
        assert np.array_equal(p.live_rows("a", full_a), p.attention.data)

    @pytest.mark.parametrize("d_out", [1, 4])
    def test_chunked_init_keeps_the_full_draws_numbers_at_the_live_slots(self, d_out):
        g = self._graph()
        idx, n, num_rel = g.index, g.num_nodes, g.num_relations
        rngs = [np.random.default_rng(9), np.random.default_rng(9)]
        live = BrgcnLayerParams.create(rngs[0], n, d_out, num_rel, live=idx)
        limit_a, limit_w = np.sqrt(6.0 / (2 * n + 1)), np.sqrt(6.0 / (n + d_out))
        a = rngs[1].uniform(-limit_a, limit_a, size=(num_rel, 2 * n))  # today's draws, in today's order
        w_self = rngs[1].uniform(-limit_w, limit_w, size=(d_out, n))
        roles = {role: rngs[1].uniform(-limit_w, limit_w, size=(num_rel, d_out, n)) for role in live.ROLES}
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
        slot_node, slot_rel = idx.live_slots // num_rel, idx.live_slots % num_rel
        kept = np.concatenate((a[idx.group_rel, idx.group_node], a[slot_rel, n + slot_node]))
        assert np.array_equal(live.attention.data, kept)
        assert np.array_equal(live.w_self.data, w_self)
        for role, w in roles.items():
            assert np.array_equal(live.roles[role].data, w[slot_rel, :, slot_node])
        assert all(t.data.flags.c_contiguous for t in live.params())

    def test_relations_no_edge_uses_add_no_parameter_or_gradient_bytes(self):
        graph = self._graph()
        wider = HeteroGraph.from_triples(
            graph.triples, num_nodes=graph.num_nodes,
            relation_names=[*graph.relation_names, *(f"unused{k}" for k in range(40))],
        )
        up = np.random.default_rng(3).normal(size=(graph.num_nodes, 8))
        held = []
        for g in (graph, wider):
            for _ in range(2):  # the index's caches and the interpreter's free lists, filled untraced
                warm = BrgcnLayerParams.create(np.random.default_rng(0), g.num_nodes, 8, g.num_relations, live=g.index)
                self._step(warm, None, g, up, np.random.default_rng(1))
            tracemalloc.start()
            try:
                p = BrgcnLayerParams.create(np.random.default_rng(0), g.num_nodes, 8, g.num_relations,
                                            live=g.index)
                self._step(p, None, g, up, np.random.default_rng(1))
                kept = tracemalloc.get_traced_memory()[0]  # the layer's data and gradients, the step's freed
            finally:
                tracemalloc.stop()
            stored = sum(t.data.nbytes + t.grad.nbytes for t in p.params())
            assert stored <= kept < 2 * stored
            held.append((stored, kept))
        (stored, kept), (wider_stored, wider_kept) = held
        assert wider_stored == stored
        full = 40 * (2 * graph.num_nodes + 3 * graph.num_nodes * 8) * 8 * 2  # what 40 relations add in full
        assert abs(wider_kept - kept) < full / 1000

    def test_forward_on_a_graph_with_other_slots_is_refused(self):
        g = self._graph()
        p = BrgcnLayerParams.create(np.random.default_rng(0), g.num_nodes, 3, g.num_relations, live=g.index)
        same = HeteroGraph.from_triples(g.triples[::-1], num_nodes=g.num_nodes, relation_names=g.relation_names)
        assert np.array_equal(layer_forward(p, None, same)[0].data, layer_forward(p, None, g)[0].data)
        t = g.triples
        moved = t[t[:, 2] != t[0, 2]]  # one tail's slots leave
        for triples in (moved, np.vstack([t, [[t[0, 0], t[0, 1], t[-1, 0]]]])):
            other = HeteroGraph.from_triples(triples, num_nodes=g.num_nodes, relation_names=g.relation_names)
            for h in (None, Tensor(np.eye(g.num_nodes))):
                with pytest.raises(ConfigurationError, match="live slots"):
                    layer_forward(p, h, other)

    def test_a_live_layer_reads_its_graphs_one_hot_input(self):
        g = self._graph()
        n, num_rel = g.num_nodes, g.num_relations
        for d_in, rels in ((n + 1, num_rel), (n, num_rel + 1)):
            with pytest.raises(ConfigurationError, match="live-slot layer"):
                BrgcnLayerParams(d_in, 3, rels, num_bases=2, live=g.index)
        p = BrgcnLayerParams.create(np.random.default_rng(0), n, 3, num_rel, num_bases=2, live=g.index)
        assert p.attention.shape == (g.index.num_groups + g.index.live_slots.size,)
        assert [t.name for t in p.params()] == [
            "layer.a", "layer.basis", "layer.coeff_query", "layer.coeff_key", "layer.coeff_value", "layer.w_self"]

    def test_one_hot_input_needs_stored_rows(self):
        g = self._graph()
        full = BrgcnLayerParams.create(np.random.default_rng(0), g.num_nodes, 3, g.num_relations)
        with pytest.raises(ConfigurationError, match="live=graph.index"):
            layer_forward(full, None, g)
        assert layer_forward(full, Tensor(np.eye(g.num_nodes)), g)[0].shape == (g.num_nodes, 3)


class TestMultiEdgeAttention:
    """Node attention runs over the edges of multi-edge groups only, bit-equal to running it over every edge."""

    @staticmethod
    def _graph(kind: str) -> HeteroGraph:
        """30 nodes, 4 relations: random groups of 1-3 edges, lone edges only, or groups of 2-3 only."""
        rng = np.random.default_rng({"mixed": 0, "mixed2": 1, "single": 2, "multi": 3}[kind])
        n, num_rel, triples = 30, 4, []
        for head in range(n):
            for rel in np.flatnonzero(rng.random(num_rel) < 0.6):
                size = {"single": 1, "multi": int(rng.integers(2, 4))}.get(kind, int(rng.integers(1, 4)))
                triples += [(head, int(rel), int(t)) for t in rng.choice(n, size, replace=False)]
        g = HeteroGraph.from_triples(triples, num_nodes=n, relation_names=[f"r{k}" for k in range(num_rel)])
        multi = g.index.multi_edges.size
        assert {"single": multi == 0, "multi": multi == g.num_triples}.get(kind, 0 < multi < g.num_triples)
        return g

    @staticmethod
    def _step(forward, g, variant, one_hot, dropout, num_bases):
        n, num_rel = g.num_nodes, g.num_relations
        d_in = n if one_hot else 5
        p = BrgcnLayerParams.create(np.random.default_rng(1), d_in, 4, num_rel, num_bases=num_bases,
                                    dropout=dropout, variant=variant, live=g.index if one_hot else None)
        h = None if one_hot else dn.param(np.random.default_rng(2).normal(size=(n, d_in)))
        up = Tensor(np.random.default_rng(3).normal(size=(n, 4)))
        with dn.Tape() as tape:
            out, trace = forward(p, h, g, rng=np.random.default_rng(5))
            tape.backward(dn.tsum(dn.mul(out, up)))
        grads = [t.grad for t in p.params()] + ([] if h is None else [h.grad])
        return out.data, trace, grads

    @staticmethod
    def _bits(a: np.ndarray) -> np.ndarray:
        return np.asarray(a, dtype=np.float64).view(np.int64)

    @pytest.mark.parametrize("num_bases", [0, 2])
    @pytest.mark.parametrize("dropout", [0.0, 0.4])
    @pytest.mark.parametrize("one_hot", [True, False])
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("kind", ["mixed", "mixed2", "single", "multi"])
    def test_step_is_bit_equal_to_the_all_edge_oracle(self, kind, variant, one_hot, dropout, num_bases):
        # Outputs, gamma, psi and every gradient, the input's included.  On a
        # graph of lone edges a is read by no forward, so it takes no gradient
        # where the oracle gives it zeros.
        g = self._graph(kind)
        got, want = (self._step(f, g, variant, one_hot, dropout, num_bases)
                     for f in (layer_forward, all_edge_layer_forward))
        assert np.array_equal(self._bits(got[0]), self._bits(want[0]))
        assert np.array_equal(self._bits(got[1].flat_gamma), self._bits(want[1].flat_gamma))
        assert not got[1].flat_gamma.flags.writeable
        assert (got[1].flat_psi is None) == (want[1].flat_psi is None) == (variant not in PSI_VARIANTS)
        assert got[1].flat_psi is None or np.array_equal(self._bits(got[1].flat_psi), self._bits(want[1].flat_psi))
        assert len(got[2]) == len(want[2])
        for k, (a, b) in enumerate(zip(got[2], want[2])):
            if a is None and b is not None:
                assert k == 0 and kind == "single" and variant in GAMMA_VARIANTS and not b.any()
            else:
                assert a is b is None or np.array_equal(self._bits(a), self._bits(b))

    @pytest.mark.parametrize("one_hot", [True, False])
    @pytest.mark.parametrize("variant", GAMMA_VARIANTS)
    def test_a_graph_of_lone_edges_records_no_softmax(self, monkeypatch, variant, one_hot):
        calls = []
        softmax = dn.segment_softmax
        monkeypatch.setattr(dn, "segment_softmax", lambda a, seg: calls.append(seg) or softmax(a, seg))
        for kind, count in (("single", 0), ("mixed", 1)):
            calls.clear()
            _, trace, _ = self._step(layer_forward, self._graph(kind), variant, one_hot, 0.4, 0)
            assert len(calls) == count
            assert calls == [] or calls[0] is trace.index.multi_by_group
        assert np.all(trace.flat_gamma[trace.index.group_size[trace.index.edge_group] == 1] == 1.0)

    def test_the_multi_edge_indices(self):
        # Built once per graph: the multi edges ascending, their groups
        # renumbered in group order, and their head and tail reads.
        g = augment(self._graph("mixed"), add_self_loop=True)
        idx, num_rel = g.index, g.num_relations
        multi = idx.multi_edges
        sizes = idx.group_size[idx.edge_group]
        assert np.array_equal(multi.ids, np.flatnonzero(sizes > 1)) and multi.n == g.num_triples
        groups = idx.edge_group[multi.ids]
        assert multi.n > multi.size == np.sum(idx.group_size[idx.group_size > 1])
        by_group = idx.multi_by_group
        assert by_group.n == np.count_nonzero(idx.group_size > 1)
        assert np.array_equal(np.unique(groups)[by_group.ids], groups)
        multi_groups, multi_slots = idx.multi_rows
        assert np.array_equal(multi_groups, np.unique(groups))
        head, tail = idx.multi_live
        slots = idx.live_slots[multi_slots[tail.ids - multi_groups.size]]
        assert np.array_equal(multi_groups[head.ids], groups)
        assert np.array_equal(slots, (idx.tails * num_rel + idx.edge_rel)[multi.ids])
        assert np.array_equal(idx.live_slots[multi_slots], np.unique(slots))
        assert head.n == tail.n == multi_groups.size + multi_slots.size
        assert all(getattr(idx, name) is getattr(idx, name)
                   for name in ("multi_edges", "multi_by_group", "multi_live", "attention_rows"))
