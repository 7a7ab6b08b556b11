"""Parametric retention loss of 3D MLC NAND: the 3D retention model, with
the read references it implies. It drives the controller's
read-reference policies and the lifetime replay's RBER series; no
workflow models layer-to-layer variation yet (ROADMAP Direction 10).
"""

import math

from .grid import ordered_refs, round_to_step

# Retention-loss regression: Variable = (alpha*PEC + beta)*ln(t) +
# gamma*PEC + delta, t in seconds. The read-reference row for Va carries
# no time term (its drift is PEC-only).
RETENTION_TABLE = {
    "log_rber_msb": (5.49e-6, 0.16, 1.33e-4, -13.11),
    "log_rber_lsb": (7.92e-6, 0.25, 3.28e-5, -12.72),
    "mu_ER": (1.01e-4, 0.74, 1.52e-3, -27.27),
    "mu_P1": (-1.94e-5, -0.40, 3.51e-4, 114.47),
    "mu_P2": (-4.71e-5, -0.70, 3.23e-4, 189.58),
    "mu_P3": (-7.37e-5, -1.20, 5.75e-4, 264.85),
    "sigma_ER": (1.20e-5, -0.10, 1.63e-6, 17.01),
    "sigma_P1": (-1.34e-6, 9.83e-3, 7.55e-5, 10.20),
    "sigma_P2": (-2.12e-6, 9.85e-3, 6.69e-5, 10.65),
    "sigma_P3": (2.87e-6, 1.40e-2, 3.30e-5, 10.83),
    "va": (None, None, 1.20e-3, 60.52),
    "vb": (-3.72e-5, -0.57, 4.20e-4, 150.56),
    "vc": (-6.51e-5, -1.06, 4.81e-4, 227.24),
}


class RetentionModel3D:
    """The retention regression of RETENTION_TABLE."""

    def eval(self, variable, pec, t_seconds):
        if t_seconds < 1:
            raise ValueError("retention model is defined for t >= 1 s")
        alpha, beta, gamma, delta = RETENTION_TABLE[variable]
        value = gamma * pec + delta
        if alpha is not None:
            value += (alpha * pec + beta) * math.log(t_seconds)
        return value


def retention_refs(model, pec, ages):
    """Predicted optimal read references from the regression rows at each
    of the distinct ``ages`` (seconds), as (U, 3) steps, a row per age,
    each voltage taken to a step by ``grid.round_to_step``."""
    steps = round_to_step([[model.eval(row, pec, t)
                            for row in ("va", "vb", "vc")] for t in ages])
    return ordered_refs(*steps.T)
