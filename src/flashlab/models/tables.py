"""Precomputed CDF lookup tables.

Run-time Gaussian and Student's t CDF evaluation goes through these tables
with linear interpolation; the heavy special functions run once at
construction. The normal-Laplace CDF reads no table: ``cdf.ncdf`` evaluates
it exactly with ``scipy.special``.
"""

import numpy as np
from scipy import special, stats

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
    """Standard-normal z-table plus one Student's t table per nu."""

    def __init__(self, z_step=0.01, z_max=8.0):
        self.z_grid = np.arange(-z_max, z_max + 1e-12, z_step)
        self.z_cdf = special.ndtr(self.z_grid)
        self.t_z_grid = _t_z_grid()
        self.nu_grid = NU_GRID
        self.t_cdfs = np.empty((len(NU_GRID), len(self.t_z_grid)))
        for i, nu in enumerate(NU_GRID):
            if np.isinf(nu):
                self.t_cdfs[i] = special.ndtr(self.t_z_grid)
            else:
                self.t_cdfs[i] = stats.t.cdf(self.t_z_grid, df=nu)
        self.nu_clamp_count = 0

    def phi(self, z):
        """Standard-normal CDF via table + linear interpolation."""
        return np.interp(z, self.z_grid, self.z_cdf)

    def _t_table(self, nu):
        """Blended t-CDF table for an arbitrary nu (log-interpolated)."""
        grid = self.nu_grid
        if nu < grid[0]:
            self.nu_clamp_count += 1
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
        if grid[lo] == nu:
            return self.t_cdfs[lo]
        w = (np.log(nu) - np.log(grid[lo])) / (np.log(grid[hi]) - np.log(grid[lo]))
        return (1.0 - w) * self.t_cdfs[lo] + w * self.t_cdfs[hi]

    def t_cdf(self, z, nu):
        """Student's t CDF at z for (possibly off-grid) nu."""
        return np.interp(z, self.t_z_grid, self._t_table(nu))

    def t_quantile(self, u, nu):
        """Inverse of t_cdf, used for synthetic sampling."""
        table = self._t_table(nu)
        return np.interp(u, table, self.t_z_grid)


_default = None


def default_tables():
    global _default
    if _default is None:
        _default = LookupTables()
    return _default
