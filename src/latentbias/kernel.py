"""The count target and the independence Metropolis-Hastings kernel of the
anchored fit and the ranking chain. A :class:`CountTarget` is a fixed
log-concave 1-D density, a Gaussian prior times the masses of a model's
cells, proposed from a Student-t at its mode and Laplace scale. That
proposal depends only on the data, so :func:`proposals` draws a run's
proposals and uniforms before the chain runs and evaluates each target
once, on all of them; the chain stays exact (Tierney 1994, *Ann. Statist.*
22(4)). Each chain keeps its own accept loop: the fit's is
:func:`mh_states`; the ranking's adds a moving prior tilt.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError

__all__ = ["T_DOF", "MH_STEPS", "CountTarget", "mode_and_scale", "log_weights", "mh_states",
           "proposals"]

# proposal dof; steps per sweep (with one step the rejections cluster and cut
# the bias chain's ESS by about a third)
T_DOF = 4.0
MH_STEPS = 3
# the mode solve's Newton step cap and relative tolerance
_NEWTON_STEPS = 60
_MODE_TOL = 1e-10


class CountTarget:
    """``log N(x; m0, v0) + sum_i n_i log m_i(x)`` up to a constant, with
    counts ``n_i`` and the cell masses ``m_i`` of ``cells``: their
    ``log_masses(x)`` gives one array per cell at an array ``x``, and their
    ``score_hessian(x, counts, score, hess)`` adds the cells' derivatives at
    a float ``x`` to the prior's. A cell whose count is 0 adds nothing."""

    def __init__(self, counts, m0, v0, cells):
        # Python floats: the mode solve's float arithmetic runs on them
        self.counts = tuple(float(n) for n in counts)
        self.m0, self.v0, self.cells = float(m0), float(v0), cells

    def log_density(self, x: np.ndarray) -> np.ndarray:
        """The log density at each ``x``."""
        out = -((x - self.m0) ** 2) / (2.0 * self.v0)
        for n, log_mass in zip(self.counts, self.cells.log_masses(x)):
            if n:
                out = out + n * log_mass
        return out

    def score_hessian(self, x: float) -> tuple[float, float]:
        """First and second derivatives of the log density at a float ``x``."""
        return self.cells.score_hessian(x, self.counts, -(x - self.m0) / self.v0, -1.0 / self.v0)


def mode_and_scale(target) -> tuple[float, float]:
    """Mode and Laplace scale ``1/sqrt(-hessian)`` of ``target``: Newton
    steps from ``target.m0``, bisecting the score's sign bracket on an
    overshoot, in float arithmetic. Raises NumericalError on a non-finite
    score or no convergence."""
    x = target.m0
    blo, bhi = -math.inf, math.inf  # score(blo) > 0 > score(bhi)
    for _ in range(_NEWTON_STEPS):
        score, hess = target.score_hessian(x)
        if not (math.isfinite(score) and hess < 0):
            raise NumericalError(f"bias mode solve hit a non-finite score at {x:.3g}")
        if score > 0:
            blo = x
        else:
            bhi = x
        step = -score / hess
        if abs(step) <= _MODE_TOL * (1.0 + abs(x)) or bhi - blo <= _MODE_TOL:
            return x, 1.0 / math.sqrt(-hess)
        x += step
        if not (blo < x < bhi):  # Newton overshot the sign bracket: bisect
            x = 0.5 * (blo + bhi)
    raise NumericalError(f"bias mode solve did not converge (last score {score:.3g})")


def log_weights(target, mode: float, scale: float, pts: np.ndarray) -> list[float]:
    """Log density of ``target`` minus that of the Student-t proposal at
    ``mode`` and ``scale``, up to constants, at each of ``pts``."""
    log_proposal = -0.5 * (T_DOF + 1.0) * np.log1p(((pts - mode) / scale) ** 2 / T_DOF)
    return (target.log_density(pts) - log_proposal).tolist()


def mh_states(log_weight: list[float], uniforms: list[float]) -> list[int]:
    """Independence Metropolis-Hastings over precomputed log weights: the
    chain starts at point 0, and step ``i`` proposes point ``i``, accepted
    when ``uniforms[i - 1] < exp(log_weight[i] - log_weight[state])``.
    Returns the state's index after each step."""
    state, states = 0, []
    for i, u in enumerate(uniforms, start=1):
        log_ratio = log_weight[i] - log_weight[state]
        if log_ratio >= 0 or u < math.exp(log_ratio):
            state = i
        states.append(state)
    return states


def proposals(targets, n: int, rng: np.random.Generator):
    """Per target, ``(points, log weights, uniforms)`` for ``n`` sweeps of
    :data:`MH_STEPS` steps: point 0 is the target's mode, the chain's start,
    and points 1.. are its proposals, with their :func:`log_weights` and one
    uniform per step. The run makes one ``standard_t`` call and then one
    ``random`` call, each ``(len(targets), n * MH_STEPS)`` with target
    ``g``'s steps in order along row ``g``."""
    shape = (len(targets), n * MH_STEPS)
    t_draws, uniforms = rng.standard_t(T_DOF, size=shape), rng.random(shape).tolist()
    out = []
    for target, draws, u in zip(targets, t_draws, uniforms):
        mode, scale = mode_and_scale(target)
        pts = np.concatenate(([mode], mode + scale * draws))
        out.append((pts, log_weights(target, mode, scale, pts), u))
    return out
