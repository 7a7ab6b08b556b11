"""Precomputed Student's t CDF lookup tables.

Only the Student's t family reads a table: its CDF is evaluated by linear
interpolation in one table per degrees of freedom, built once with
``scipy.special.stdtr``. The Gaussian and normal-Laplace CDFs read no
table; ``cdf.gcdf`` and ``cdf.ncdf`` evaluate them exactly through
``scipy.special.ndtr``.
"""

import numpy as np
from scipy import special

# Degrees-of-freedom grid for the Student's t tables. np.inf is the
# Gaussian limit (its table equals the standard-normal CDF).
NU_GRID = (0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0, 50.0, np.inf)


def _t_z_grid():
    # Dense core where the action is, log-spaced tails because low-nu
    # Student's t still carries real mass at |Z| in the hundreds.
    core = np.arange(-8.0, 8.0 + 1e-12, 0.01)
    tail = np.logspace(np.log10(8.0), 6.0, 400)[1:]
    return np.concatenate((-tail[::-1], core, tail))


class LookupTables:
    """One Student's t CDF table per nu of ``NU_GRID``."""

    def __init__(self):
        self.t_z_grid = _t_z_grid()
        self.t_cdfs = np.empty((len(NU_GRID), len(self.t_z_grid)))
        for i, nu in enumerate(NU_GRID):
            if np.isinf(nu):
                self.t_cdfs[i] = special.ndtr(self.t_z_grid)
            else:
                self.t_cdfs[i] = special.stdtr(nu, self.t_z_grid)

    def _t_table(self, nu):
        """Blended t-CDF table for an arbitrary nu (log-interpolated); a nu
        below the grid reads the lowest table."""
        grid = NU_GRID
        if nu < grid[0]:
            return self.t_cdfs[0]
        if np.isinf(nu) or nu >= 1e6:
            return self.t_cdfs[-1]
        if nu >= grid[-2]:
            # Between the last finite table and the Gaussian limit,
            # interpolate linearly in 1/nu (0 at the limit).
            w = (1.0 / grid[-2] - 1.0 / nu) * grid[-2]
            return (1.0 - w) * self.t_cdfs[-2] + w * self.t_cdfs[-1]
        hi = 1
        while grid[hi] < nu:
            hi += 1
        lo = hi - 1
        w = (np.log(nu) - np.log(grid[lo])) / (np.log(grid[hi]) - np.log(grid[lo]))
        return (1.0 - w) * self.t_cdfs[lo] + w * self.t_cdfs[hi]

    def t_cdf(self, z, nu):
        """Student's t CDF at z for (possibly off-grid) nu."""
        return np.interp(z, self.t_z_grid, self._t_table(nu))


_default = None


def default_tables():
    global _default
    if _default is None:
        _default = LookupTables()
    return _default
