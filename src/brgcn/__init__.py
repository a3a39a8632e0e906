"""Bi-level attention relational graph convolutional networks.

A desk-scale toolkit for representation learning on directed multi-relational
graphs: additive attention over each relation's neighborhood, multiplicative
attention across relations, plus training, link-prediction decoders,
evaluation metrics and a relation-ablation harness.
"""

from . import decoders, diffnum, evalkit, hetgraph, layer, training
from .decoders import DecoderParams, ensemble_score, score
from .hetgraph import HeteroGraph, NodeLabels, SplitSpec, augment, load_triples
from .layer import AttentionTrace, BrgcnLayerParams, layer_forward, stack_forward
from .training import TrainConfig, train_link_predictor, train_node_classifier

__version__ = "0.1.0"
