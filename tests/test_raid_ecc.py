import math

import mpmath as mp
import numpy as np
import pytest

from flashlab.raid_ecc import (BLANK, LSB, MSB, EccConfig, InfeasibleLayout,
                               ParityConfig, conventional_layout,
                               ecc_failure_rate, export_layout_csv, lb_fail,
                               li_raid_layout, lifetime_years,
                               multirate_lifetime, op_fraction, parity_fail)
from reference import group_pages, layout_worst_group, multirate_schedule


def oracle_tail(l, t, p, dps=50):
    """Binomial P(X > t) at arbitrary precision."""
    with mp.workdps(dps):
        return float(mp.betainc(t + 1, l - t, 0, p, regularized=True))


class TestEccFailureRate:
    def test_edge_cases(self):
        ecc = EccConfig(100, 2)
        assert ecc_failure_rate(ecc, 0.0) == 0.0
        assert ecc_failure_rate(ecc, 1.0) == 1.0

    def test_small_case_hand_summed(self):
        # l=8, t=1, p=0.5: P(X >= 2) = 1 - (1 + 8)/256 = 247/256
        assert ecc_failure_rate(EccConfig(8, 1), 0.5) == pytest.approx(247 / 256, rel=1e-12)

    def test_matches_direct_summation(self):
        ecc = EccConfig(100, 2)
        direct = sum(math.comb(100, k) * 0.01**k * 0.99 ** (100 - k)
                     for k in range(3, 101))
        assert ecc_failure_rate(ecc, 0.01) == pytest.approx(direct, rel=1e-10)

    def test_matches_high_precision_oracle_at_scale(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            l = int(rng.integers(1 << 10, 1 << 17))
            t = int(rng.integers(1, l // 50 + 2))
            p = float(rng.uniform(1e-5, 5e-3))
            got = ecc_failure_rate(EccConfig(l, t), p)
            want = oracle_tail(l, t, p)
            if want > 0:
                assert got == pytest.approx(want, rel=1e-12)

    def test_monotone_in_rber_and_strength(self):
        rbers = np.linspace(1e-4, 0.02, 30)
        vals = [ecc_failure_rate(EccConfig(4096, 40), r) for r in rbers]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        by_t = [ecc_failure_rate(EccConfig(4096, t), 0.005) for t in (10, 20, 40, 80)]
        assert all(b <= a for a, b in zip(by_t, by_t[1:]))

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            ecc_failure_rate(EccConfig(100, 2), 1.5)
        with pytest.raises(ValueError):
            EccConfig(100, 0)
        with pytest.raises(ValueError):
            EccConfig(100, 100)


class TestParityCalculus:
    def test_lb_fail_formula(self):
        p = ParityConfig(chips=4, dies=1, codewords_per_lb=3, p_hgbb=0.001)
        got = lb_fail(p, 0.01)
        assert got == pytest.approx(0.001 + 0.999 * (1 - 0.99**3), rel=1e-12)

    def test_lb_fail_reduces_to_ecfr_when_k1(self):
        p = ParityConfig(chips=4, dies=1)
        assert lb_fail(p, 0.0123) == pytest.approx(0.0123, rel=1e-12)
        assert lb_fail(p, 0.0) == 0.0

    def test_parity_fail_hand_case(self):
        p = ParityConfig(chips=4, dies=1)
        assert parity_fail(p, 0.01) == pytest.approx(0.01 * (1 - 0.99**3), rel=1e-12)

    def test_parity_fail_bounds(self):
        p = ParityConfig(chips=8, dies=2)
        assert parity_fail(p, 0.0) == 0.0
        for x in (1e-6, 1e-3, 0.2, 1.0):
            assert parity_fail(p, x) <= x

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ParityConfig(chips=1, dies=1)
        with pytest.raises(ValueError):
            ParityConfig(chips=4, dies=1, codewords_per_lb=0)

    def test_negative_chips_and_dies_are_rejected(self):
        # their product, 2, once passed the two-chip-die check
        with pytest.raises(ValueError, match="one chip, one die"):
            ParityConfig(chips=-1, dies=-2)


class TestLifetime:
    def test_op_fraction(self):
        assert op_fraction(2.4e12, 2.0e12) == pytest.approx(0.20, rel=1e-12)
        assert op_fraction(1e12, 1e12) == 0.0
        with pytest.raises(ValueError):
            op_fraction(1.0, 0.0)

    def test_lifetime_years_formula(self):
        got = lifetime_years(pec=3000, op=0.2, dwpd=1.0, wa=2.0, r_compress=1.0)
        assert got == pytest.approx(3000 * 1.2 / (365 * 2.0), rel=1e-12)

    def test_multirate_sums_segments(self):
        sched = [(1000, 0.2, 2.0, 0.93), (500, 0.1, 2.5, 0.9)]
        got = multirate_lifetime(sched, dwpd=1.0, r_compress=1.0)
        want = (lifetime_years(1000, 0.2, 1.0, 2.0, 1.0)
                + lifetime_years(500, 0.1, 1.0, 2.5, 1.0))
        assert got == pytest.approx(want, rel=1e-12)

    def test_multirate_rejects_engine_triples(self):
        with pytest.raises(ValueError, match=r"\(pec_increment, op, wa, rate\)"):
            multirate_lifetime([(24.0, 0.116, 1.9)], dwpd=1.0)
        with pytest.raises(ValueError, match="pec_increment >= 0"):
            multirate_lifetime([(-100, 0.1, 2.0, 0.9)], dwpd=1.0)

    def test_schedule_beats_any_single_engine(self):
        # RBER grows with wear; stronger codes survive longer but carry
        # more overhead. The multi-rate ladder is at least as good as the
        # best single engine run to its own failure point.
        def rber_of_pec(pec):
            return 1e-4 + 3e-9 * pec**1.6

        engines = [
            (EccConfig(8192, 24, coding_rate=0.93), 0.116, 1.9),
            (EccConfig(8192, 40, coding_rate=0.90), 0.081, 2.0),
            (EccConfig(8192, 64, coding_rate=0.86), 0.046, 2.2),
        ]
        sched = multirate_schedule(engines, rber_of_pec, 1e-13, pec_step=100,
                                   pec_max=40000)
        multi = multirate_lifetime(sched, dwpd=1.0, r_compress=1.0)
        singles = []
        for ecc, op, wa in engines:
            single = multirate_schedule([(ecc, op, wa)], rber_of_pec, 1e-13,
                                        pec_step=100, pec_max=40000)
            singles.append(multirate_lifetime(single, dwpd=1.0, r_compress=1.0))
        assert multi >= max(singles) - 1e-12

    def test_schedule_segments_ordered_and_positive(self):
        def rber_of_pec(pec):
            return 1e-4 + 1e-8 * pec

        engines = [(EccConfig(4096, 16), 0.1, 2.0),
                   (EccConfig(4096, 48), 0.05, 2.0)]
        sched = multirate_schedule(engines, rber_of_pec, 1e-12, pec_step=500,
                                   pec_max=100000)
        assert all(inc > 0 for inc, *_ in sched)


def golden_li_raid_4x4():
    """Independently tabulated (m=4, n=4) layer-interleaved layout."""
    g = {}
    rows = {
        0: [(0, "G0", "G1"), (1, "G2", "G3"), (2, "G4", "G5"), (3, None, None)],
        1: [(0, None, None), (1, "G1", "G0"), (2, "G3", "G2"), (3, "G5", "G4")],
        2: [(0, "G4", "G5"), (1, None, None), (2, "G0", "G1"), (3, "G2", "G3")],
        3: [(0, "G3", "G2"), (1, "G5", "G4"), (2, None, None), (3, "G1", "G0")],
    }
    for chip, entries in rows.items():
        for wl, msb, lsb in entries:
            g[(chip, wl, MSB)] = BLANK if msb is None else int(msb[1:])
            g[(chip, wl, LSB)] = BLANK if lsb is None else int(lsb[1:])
    return g


class TestLiRaidLayout:
    def test_matches_golden_4x4(self):
        layout = li_raid_layout(4, 4)
        assert layout.assignment == golden_li_raid_4x4()
        assert not layout.flagged

    def test_group_zero_membership(self):
        layout = li_raid_layout(4, 4)
        assert layout.assignment[(0, 0, MSB)] == 0
        assert layout.assignment[(1, 0, MSB)] == BLANK

    def test_structural_invariants(self):
        for m, n in ((2, 4), (4, 4), (4, 8), (8, 16), (4, 256)):
            layout = li_raid_layout(m, n)
            groups = group_pages(layout)
            for pages in groups.values():
                assert len(pages) == m
                assert len({chip for chip, _, _ in pages}) == m
                assert len({wl for _, wl, _ in pages}) == m
            blanks = [k for k, v in layout.assignment.items() if v == BLANK]
            per_chip = {}
            for chip, wl, _ in blanks:
                per_chip.setdefault(chip, set()).add(wl)
            assert all(len(wls) == 1 for wls in per_chip.values())
            assert len(per_chip) == m

    def test_blank_overhead_small_at_scale(self):
        layout = li_raid_layout(4, 256)
        blanks = sum(1 for v in layout.assignment.values() if v == BLANK)
        assert blanks / len(layout.assignment) < 0.008

    def test_non_dividing_chip_count_flagged(self):
        assert li_raid_layout(3, 4).flagged

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleLayout):
            li_raid_layout(9, 4)

    def test_conventional_groups_same_wordline_page(self):
        layout = conventional_layout(4, 4)
        for (chip, wl, p), g in layout.assignment.items():
            assert g == 2 * wl + p

    def test_export_csv(self, tmp_path):
        path = tmp_path / "layout.csv"
        export_layout_csv(li_raid_layout(4, 4), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "chip,wordline,page,group"
        assert len(lines) == 1 + 4 * 4 * 2
        assert sum(1 for ln in lines if ln.endswith("BLANK")) == 8


class TestWorstGroup:
    @staticmethod
    def layered_rber(m, n, seed=0, msb_factor=2.4):
        rng = np.random.default_rng(seed)
        per_wl = rng.gamma(2.3, 1 / 2.3, size=n) * 1e-3
        rber = np.empty((m, n, 2))
        rber[:, :, LSB] = per_wl[None, :]
        rber[:, :, MSB] = msb_factor * per_wl[None, :]
        return rber

    def test_uniform_rber_all_groups_equal(self):
        layout = li_raid_layout(4, 4)
        rber = np.full((4, 4, 2), 1e-3)
        _, worst_mean, _ = layout_worst_group(layout, rber)
        assert worst_mean == pytest.approx(1e-3)

    def test_interleaving_never_worse_than_conventional(self):
        for seed in range(10):
            rber = self.layered_rber(4, 4, seed=seed)
            _, w_li, _ = layout_worst_group(li_raid_layout(4, 4), rber)
            _, w_conv, _ = layout_worst_group(conventional_layout(4, 4), rber)
            assert w_li <= w_conv + 1e-15

    def test_parity_probability_attached(self):
        parity = ParityConfig(chips=4, dies=1)
        ecc = EccConfig(4096, 16)
        rber = self.layered_rber(4, 4, seed=3)
        gid, mean, p = layout_worst_group(li_raid_layout(4, 4), rber,
                                          parity=parity, ecc=ecc)
        want = parity_fail(parity, lb_fail(parity, ecc_failure_rate(ecc, mean)))
        assert p == pytest.approx(want, rel=1e-12)
