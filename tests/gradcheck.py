"""Central-finite-difference oracle for verifying analytic gradients of ``brgcn.diffnum``."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from brgcn.diffnum import DiffnumError, Tape, Tensor, zero_grad


class DeterminismError(DiffnumError):
    """Two forward evaluations of the checked function disagreed."""


@dataclass
class GradCheckReport:
    """Outcome of one gradient check.

    ``max_rel_error`` is max over parameter entries of
    ``|analytic - numeric| / max(|analytic|, |numeric|, 1)``; the unit floor
    keeps finite-difference roundoff on near-zero gradients from dominating.
    """

    max_rel_error: float
    tol: float
    passed: bool
    per_param: dict[str, float] = field(default_factory=dict)

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"grad_check {status}: max rel error {self.max_rel_error:.3e} (tol {self.tol:.1e})"


def grad_check(
    f: Callable[[], Tensor],
    params: Sequence[Tensor],
    eps: float = 1e-5,
    tol: float = 1e-6,
) -> GradCheckReport:
    """Compare analytic gradients of ``f`` against central finite differences.

    ``f`` must rebuild a scalar loss from ``params`` on every call and be
    deterministic; it is evaluated twice up front and a mismatch raises
    :class:`DeterminismError`.  Parameters that ``f`` never touches are
    treated as having a zero analytic gradient.
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError(f"eps must lie in [1e-7, 1e-3], got {eps}")
    v1 = f().data.copy()
    v2 = f().data.copy()
    if not np.array_equal(v1, v2):
        raise DeterminismError(
            f"function is not deterministic: {v1!r} != {v2!r} on repeated evaluation"
        )

    zero_grad(params)
    with Tape() as tape:
        loss = f()
        tape.backward(loss)
    analytic = [
        p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params
    ]
    zero_grad(params)

    max_err = 0.0
    per_param: dict[str, float] = {}
    for k, p in enumerate(params):
        name = p.name or f"param{k}"
        worst = 0.0
        flat = p.data.reshape(-1)
        aflat = analytic[k].reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            up = f().item()
            flat[j] = orig - eps
            down = f().item()
            flat[j] = orig
            numeric = (up - down) / (2.0 * eps)
            a = aflat[j]
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1.0)
            if err > worst:
                worst = err
        per_param[name] = worst
        max_err = max(max_err, worst)

    return GradCheckReport(
        max_rel_error=max_err, tol=tol, passed=max_err <= tol, per_param=per_param
    )
