"""Layers built from per-relation weights, the form the dense oracle takes."""

from __future__ import annotations

from brgcn import diffnum as dn
from brgcn.layer import BrgcnLayerParams


def layer_with_weights(a, w_query, w_key, w_value, w_self, *, leaky_slope=0.2) -> BrgcnLayerParams:
    """A layer whose stacked parameters hold these R attention vectors a_r,
    R (d_out, d_in) matrices per role and the (d_out, d_in) self matrix."""
    d_out, d_in = w_self.shape
    p = BrgcnLayerParams(d_in, d_out, len(a), leaky_slope=leaky_slope)
    p.attention = dn.param(p.stacked("a", a))
    p.roles = {
        role: dn.param(p.stacked(f"w_{role}", mats))
        for role, mats in zip(p.ROLES, (w_query, w_key, w_value))
    }
    p.w_self = dn.param(w_self)
    return p
