"""Unified self-recovery and temperature model (URT).

Y(output) = Y0 + dY where Y0 comes from the program-variation model (PVM,
bilinear in programming temperature and PEC) and dY from the self-recovery
and retention model (SRRM, logarithmic in effective retention time,
damped by effective dwell time). Effective times are real times scaled by
the Arrhenius acceleration factor.

Orientation: af(T) >= 1 above room temperature and
effective time = real time * af(T).

The workflows' pack is derived from the retention regression, not
fitted from characterization (ROADMAP Direction 9).
"""

import math
from dataclasses import dataclass

import numpy as np

from .degradation import RETENTION_TABLE
from .models.cdf import gaussian_states

KB_EV_PER_K = 8.62e-5  # Boltzmann constant
DEFAULT_EA_EV = 1.04
DEFAULT_T_ROOM_K = 293.15

N_LOG_LEVELS = 26
LOG_BASE_SECONDS = 0.5


@dataclass(frozen=True)
class URTParams:
    """pvm: output -> (A, B, C, D); srrm: output -> (a, b, c, t0).

    Temperatures are Kelvin throughout.
    """

    pvm: dict
    srrm: dict
    ea: float = DEFAULT_EA_EV
    t_room: float = DEFAULT_T_ROOM_K

    def __post_init__(self):
        if self.ea <= 0:
            raise ValueError("activation energy must be positive")
        for out, (a, b, c, t0) in self.srrm.items():
            if t0 <= 0:
                raise ValueError(f"srrm t0 must be positive ({out})")


def af(t_kelvin, params):
    """Arrhenius acceleration factor relative to room temperature."""
    if np.any(np.asarray(t_kelvin) <= 0):
        raise ValueError("temperature must be positive Kelvin")
    return np.exp((params.ea / KB_EV_PER_K) * (1.0 / params.t_room - 1.0 / np.asarray(t_kelvin)))


def pvm_predict(params, t_p_kelvin, pec, output):
    a, b, c, d = params.pvm[output]
    return a * t_p_kelvin * pec + b * t_p_kelvin + c * pec + d


def srrm_log(params, output, t_er, t_ed):
    """SRRM's wear-independent factor ln(1 + t_er / (t0 + a * t_ed))."""
    a, _, _, t0 = params.srrm[output]
    if t_er < 0 or t_ed < 0:
        raise ValueError("effective times must be non-negative")
    return math.log(1.0 + t_er / (t0 + a * t_ed))


def srrm_slope(params, pec, output):
    """SRRM's wear-dependent factor b * (pec + c)."""
    _, b, c, _ = params.srrm[output]
    return b * (pec + c)


def srrm_delta(params, t_er, t_ed, pec, output):
    return srrm_slope(params, pec, output) * srrm_log(params, output, t_er, t_ed)


def urt_predict(params, output, pec, t_p_kelvin, t_er, t_ed):
    """Full unified prediction at effective retention and dwell times."""
    y0 = pvm_predict(params, t_p_kelvin, pec, output)
    return y0 + srrm_delta(params, t_er, t_ed, pec, output)


class AccelLog:
    """Logarithmic history of temperature-accelerated time.

    Level k spans 0.5 * 2^k real seconds; 26 levels cover about a year.
    Time arrives in whole 0.5 s chunks, as HeatWatch's fixed sampling
    interval delivers it (Luo et al., HPCA 2018). A binary-counter cascade
    keeps, per level, the current (pending) and previous (last completed)
    chunk: at most 52 stored reals. Two completions of level k-1 rebuild
    level k.

    An update costs O(levels) whatever its length: its chunks are carried
    up in bulk, level by level, as a run of identical values.
    """

    def __init__(self):
        self.n_levels = N_LOG_LEVELS
        self.base = LOG_BASE_SECONDS
        self.cur = np.zeros(N_LOG_LEVELS)  # [0] stays 0: chunks arrive whole
        self.prev = np.zeros(N_LOG_LEVELS)
        self.pending = np.zeros(N_LOG_LEVELS, dtype=np.int8)
        self.elapsed = 0.0

    def update(self, af_value, tick_seconds):
        """Accumulate af * dt over a tick of whole 0.5 s chunks, cascading
        completed chunks upward in one carry.

        The stored chunks, and elapsed, are those of adding one chunk at a
        time. A tick that is not a whole number of chunks raises
        ValueError.
        """
        chunks = float(tick_seconds) / self.base
        if not (chunks >= 0 and chunks.is_integer()):
            raise ValueError(f"tick {tick_seconds!r} s is not a whole number"
                             f" of {self.base} s chunks")
        if chunks:
            chunk = af_value * self.base
            self.elapsed += chunks * self.base
            self._carry(chunk, chunk, int(chunks))

    def _carry(self, first, rest, n):
        """Complete level 0 n times, with value `first` and then `rest`.

        Each level turns a run of n incoming values into (held + n) // 2
        outgoing ones: the first pairs with the held value (or with the
        next incoming one), the rest pair among themselves (rest + rest),
        and an odd one out stays held. Sums are formed in the order the
        one-chunk-at-a-time cascade forms them, so the result is the same.
        """
        # scalar views of the numpy arrays: Python floats in and out
        cur, prev = memoryview(self.cur), memoryview(self.prev)
        pending, top = memoryview(self.pending), self.n_levels - 1
        for k in range(self.n_levels):
            prev[k] = first if n == 1 else rest
            if k == top:
                return
            held = pending[k + 1]
            n_out = (held + n) // 2
            if n_out == 0:
                cur[k + 1] += first
                pending[k + 1] = 1
                return
            first = cur[k + 1] + first
            if not held:
                first += rest
            odd = (held + n) % 2
            cur[k + 1] = rest if odd else 0.0
            pending[k + 1] = odd
            rest, n = rest + rest, n_out

    def effective_time(self, window_seconds):
        """Effective seconds accumulated over the last window_seconds.

        The level-k previous chunk always covers [T_k - c_k, T_k], where
        c_k = 0.5 * 2^k and T_k (its completion time) is derivable from
        the number n of level-0 completions: T_k = c_k * floor(n / 2^k).
        The walk descends from the newest chunk into ever older, ever
        coarser ones, subtracting value already counted where chunk
        intervals nest, and pro-rates the final straddling chunk, so a
        window need not be whole chunks. Resolution at age a is therefore
        about a/2, the price of the 52-real footprint.
        """
        window = float(window_seconds)
        if window > self.elapsed + 1e-9:
            window = self.elapsed
        target = self.elapsed - window

        p = self.elapsed
        if target >= p:  # empty window
            return 0.0
        total = 0.0
        n = int(round(p / self.base))
        segs = []  # consumed (lo, hi, value), chunk-aligned and disjoint

        for k in range(self.n_levels):
            c_k = self.base * 2**k
            nk = n >> k
            if nk < 1:
                break
            t_k = c_k * nk
            lo_k = t_k - c_k
            if lo_k >= p - 1e-12:
                continue  # chunk already fully counted
            # Chunk intervals are aligned, so prior consumed chunks either
            # nest inside this one or are disjoint from it. Keeping segs
            # maximal (nested ones replaced by their parent) makes the
            # already-counted sum exact.
            counted = sum(v for lo, hi, v in segs
                          if lo >= lo_k - 1e-9 and hi <= t_k + 1e-9)
            avail_value = max(self.prev[k] - counted, 0.0)
            avail_span = p - lo_k
            if target <= lo_k + 1e-12:
                total += avail_value
                segs = [s for s in segs
                        if not (s[0] >= lo_k - 1e-9 and s[1] <= t_k + 1e-9)]
                segs.append((lo_k, t_k, self.prev[k]))
                p = lo_k
                if p <= target + 1e-12:
                    return total
            else:
                return total + avail_value * (p - target) / avail_span
        return total


@dataclass(frozen=True)
class TempTrace:
    """Daily sinusoid plus Gaussian noise, deterministic per seed.

    The noise of tick i is draw i of one ``np.random.default_rng(seed)``
    stream of standard normals; the seed must be a non-negative integer.
    """

    mean_c: float = 35.0
    amplitude_c: float = 15.0
    period_s: float = 86400.0
    noise_sigma_c: float = 3.0
    seed: int = 0


def temp_generate(cfg, t_seconds):
    """Temperature (Celsius) at each tick time in ``t_seconds``, an array
    or a scalar, of the same shape: the sine at each time plus, for tick
    i in C order, draw i of the seeded noise stream."""
    t = np.asarray(t_seconds, dtype=float)
    temps = cfg.mean_c + cfg.amplitude_c * np.sin(2.0 * np.pi * t / cfg.period_s)
    if cfg.noise_sigma_c > 0:
        rng = np.random.default_rng(cfg.seed)
        temps = temps + cfg.noise_sigma_c * rng.standard_normal(t.shape)
    return temps[()]


def celsius_to_kelvin(c):
    return c + 273.15


T_PROGRAM_K = celsius_to_kelvin(25.0)  # programming temperature

# The URT outputs gaussian_states reads for one state model.
STATE_OUTPUTS = tuple(f"{q}_{st}" for st in ("ER", "P1", "P2", "P3")
                      for q in ("mu", "sigma"))


class RetentionAges:
    """Room-equivalent retention ages of S reads, floored at 1 s, with no
    dwell, held as the SRRM log factor of each state output at each age.

    The factor does not depend on wear, so it is taken once here and
    serves ``state_models`` at every P/E count. It is taken read by read
    with ``math.log``: numpy's log differs from it in the last bit on
    some inputs, and one such bit can move a rounded read reference.
    """

    def __init__(self, params, eff_retention_s):
        ages = [max(t, 1.0) for t in eff_retention_s]
        self.log = {out: np.array([srrm_log(params, out, t, 0.0) for t in ages])
                    for out in STATE_OUTPUTS}


def state_models(params, pec, eff_retention_s):
    """Gaussian state models at a wear level and at the room-equivalent
    retention ages of a RetentionAges of S reads, with no dwell, as a
    GaussianBatch with a row per read: the heatwatch experiment's ground
    truth and the HeatWatch policy's prediction.
    """
    log = eff_retention_s.log
    return gaussian_states(
        lambda row: (pvm_predict(params, T_PROGRAM_K, pec, row)
                     + srrm_slope(params, pec, row) * log[row]))


# --- calibration pack -------------------------------------------------

URT_OUTPUTS = ("mu_ER", "mu_P1", "mu_P2", "mu_P3",
               "sigma_ER", "sigma_P1", "sigma_P2", "sigma_P3",
               "va", "vb", "vc", "log_rber_msb", "log_rber_lsb")


SRRM_A = 0.1  # the pack's SRRM a: effective dwell's weight against t0


def calibration_pack_from_retention():
    """Derive URT coefficients from the retention regression
    (``degradation.RETENTION_TABLE``), at activation energy DEFAULT_EA_EV
    and room temperature DEFAULT_T_ROOM_K.

    Chosen so that at room temperature with negligible dwell the URT
    reduces to the retention regression for t >> 1 s: PVM carries the
    (gamma*PEC + delta) part, SRRM the (alpha*PEC + beta)*ln(t) part via
    b = alpha, c = beta/alpha, t0 = 1.
    """
    pvm, srrm = {}, {}
    for out in URT_OUTPUTS:
        alpha, beta, gamma, delta = RETENTION_TABLE[out]
        pvm[out] = (0.0, 0.0, gamma, delta)
        if alpha is None or alpha == 0.0:
            srrm[out] = (SRRM_A, 0.0, 0.0, 1.0)
        else:
            srrm[out] = (SRRM_A, alpha, beta / alpha, 1.0)
    return URTParams(pvm=pvm, srrm=srrm, ea=DEFAULT_EA_EV,
                     t_room=DEFAULT_T_ROOM_K)
