"""Analytic reliability calculus and RAID layout engines.

ECC codeword failure, logical-block and superpage-parity failure, drive
lifetime (single- and multi-rate ECC), over-provisioning arithmetic, and
the layer-interleaved RAID (LI-RAID) layout with a conventional-RAID
comparator.
"""

import csv
from dataclasses import dataclass

from scipy.special import betainc

BLANK = -1
MSB, LSB = 0, 1


class InfeasibleLayout(ValueError):
    """Raised when a requested RAID layout cannot be constructed."""


@dataclass(frozen=True)
class EccConfig:
    codeword_len: int
    correctable: int
    coding_rate: float = 0.9

    def __post_init__(self):
        if not (0 < self.correctable < self.codeword_len):
            raise ValueError("need 0 < t < l")
        if not (0.0 < self.coding_rate < 1.0):
            raise ValueError("coding rate must lie in (0, 1)")


@dataclass(frozen=True)
class ParityConfig:
    chips: int
    dies: int
    codewords_per_lb: int = 1
    p_hgbb: float = 0.0

    def __post_init__(self):
        if min(self.chips, self.dies) < 1 or self.chips * self.dies < 2:
            raise ValueError("parity needs at least one chip, one die and"
                             " two chip-dies")
        if self.codewords_per_lb < 1:
            raise ValueError("K must be >= 1")


def ecc_failure_rate(ecc, rber):
    """Probability that more than t of l bits are in error.

    The binomial survival function is evaluated through its exact
    identity with the regularized incomplete beta, P(X > t) =
    I_rber(t+1, l-t), which stays fully accurate out to l = 2^17 where a
    termwise binomial sum loses digits to log-gamma rounding.
    """
    if not (0.0 <= rber <= 1.0):
        raise ValueError("rber must lie in [0, 1]")
    if rber == 0.0:
        return 0.0
    if rber == 1.0:
        return 1.0
    l, t = ecc.codeword_len, ecc.correctable
    return float(betainc(t + 1, l - t, rber))


def lb_fail(parity, p_ecfr):
    """Logical-block failure: hidden grown bad block, or any codeword."""
    if not (0.0 <= p_ecfr <= 1.0):
        raise ValueError("p_ecfr must lie in [0, 1]")
    k = parity.codewords_per_lb
    return parity.p_hgbb + (1.0 - parity.p_hgbb) * (1.0 - (1.0 - p_ecfr) ** k)


def parity_fail(parity, p_lbfail):
    """Superpage parity fails iff two or more LBs in the stripe fail."""
    if not (0.0 <= p_lbfail <= 1.0):
        raise ValueError("p_lbfail must lie in [0, 1]")
    n = parity.chips * parity.dies
    return p_lbfail * (1.0 - (1.0 - p_lbfail) ** (n - 1))


def op_fraction(pba, lba):
    if lba <= 0:
        raise ValueError("lba must be positive")
    return (pba - lba) / lba


def lifetime_years(pec, op, dwpd, wa, r_compress=1.0):
    """Years until the P/E budget is exhausted.

    pec: P/E cycles each block can take; op: spare area as a fraction of
    logical capacity; dwpd: host drive writes per day; wa: write
    amplification; r_compress: bytes written to flash per host byte after
    compression (1.0 means no compression). The drive absorbs
    pec * (1 + op) logical capacities of flash writes, so

        years = pec * (1 + op) / (365 * dwpd * wa * r_compress).
    """
    if not (dwpd > 0 and wa > 0 and r_compress > 0):
        raise ValueError("dwpd, wa and r_compress must be positive")
    return pec * (1.0 + op) / (365.0 * dwpd * wa * r_compress)


def multirate_lifetime(schedule, dwpd, r_compress=1.0):
    """Lifetime across a multi-rate ECC schedule.

    schedule: (pec_increment, op, wa, rate) entries, one per ECC engine,
    weakest code first. The segments are consecutive slices of one
    P/E budget: each entry covers the pec_increment cycles spent while
    its engine is active, so the increments sum to the point where the
    last engine fails. The lifetime is the sum of lifetime_years over the
    segments. For a schedule built over a non-decreasing RBER curve, the
    ladder outlives every engine run alone to its own failure point when
    (1 + op) / wa does not rise along the ladder.
    """
    total = 0.0
    for entry in schedule:
        if (not isinstance(entry, (tuple, list)) or len(entry) != 4
                or entry[0] < 0):
            raise ValueError(
                "multirate schedule entries must be (pec_increment, op, wa, "
                f"rate) with pec_increment >= 0, got {entry!r}")
        pec_i, op_i, wa_i, _rate = entry
        total += lifetime_years(pec_i, op_i, dwpd, wa_i, r_compress)
    return total


# --- RAID layouts ------------------------------------------------------


@dataclass
class RaidLayout:
    m: int  # chips
    n: int  # wordlines
    assignment: dict  # (chip, wordline, page) -> group id or BLANK
    n_groups: int
    flagged: bool = False
    kind: str = "li_raid"


def li_raid_layout(m, n):
    """Layer-interleaved parity grouping.

    Groups pair the MSB of one wordline with the LSB of a different
    wordline on every other chip, so no group ever contains two pages of
    the same wordline position; one wordline per chip stays blank so each
    page sees program interference from at most one later-programmed
    neighbor. Closed form (stride s = n/m): with idx = (w - j*s) mod n,
    chip j blanks idx = n - s; surviving wordlines rank q = idx, minus one
    once past the blank; group = 2q + page for even chips, page bits
    swapped on odd chips.
    """
    if m < 2:
        raise InfeasibleLayout(f"m={m} chips cannot interleave a parity group:"
                               " li_raid needs at least 2")
    if m > 2 * n:
        raise InfeasibleLayout(f"m={m} chips cannot form groups over n={n} wordlines")
    flagged = n % m != 0
    s = max(n // m, 1)
    assignment = {}
    for j in range(m):
        for w in range(n):
            idx = (w - j * s) % n
            if idx == n - s:
                assignment[(j, w, MSB)] = BLANK
                assignment[(j, w, LSB)] = BLANK
                continue
            q = idx - (1 if idx > n - s else 0)
            for page in (MSB, LSB):
                orient = page if j % 2 == 0 else 1 - page
                assignment[(j, w, page)] = 2 * q + orient
    return RaidLayout(m, n, assignment, n_groups=2 * (n - 1), flagged=flagged,
                      kind="li_raid")


def conventional_layout(m, n):
    """Conventional RAID: identical (wordline, page) grouped across chips."""
    assignment = {(j, w, p): 2 * w + p
                  for j in range(m) for w in range(n) for p in (MSB, LSB)}
    return RaidLayout(m, n, assignment, n_groups=2 * n, flagged=False,
                      kind="conventional")


def export_layout_csv(layout, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["chip", "wordline", "page", "group"])
        for (j, wl, p) in sorted(layout.assignment):
            g = layout.assignment[(j, wl, p)]
            w.writerow([j, wl, "MSB" if p == MSB else "LSB",
                        "BLANK" if g == BLANK else g])
