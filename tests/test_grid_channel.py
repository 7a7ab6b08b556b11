import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from flashlab.grid import (BOUNDARIES, CellState, MSB_OF_STATE, LSB_OF_STATE,
                           N_BINS, N_STEPS, ordered_refs)
from flashlab.channel import load_histogram_csv
from flashlab.models.cdf import StateModel
from reference import (DEFAULT_READ_REFS, bin_cells, bin_of, classify_regions,
                       export_histogram_csv, measure_rber, sample_page)


def t_models(lam=1e-3):
    return {
        CellState.ER: StateModel("student_t", -20.0, 17.0, 5.0, 5.0, lam),
        CellState.P1: StateModel("student_t", 110.0, 11.0, 5.0, 5.0, lam),
        CellState.P2: StateModel("student_t", 183.0, 11.0, 4.0, 4.0, 0.0),
        CellState.P3: StateModel("student_t", 260.0, 11.0, 4.0, 4.0, 0.0),
    }


class TestVoltageGrid:
    def test_monotone_boundaries(self):
        b = BOUNDARIES
        assert b.shape == (N_STEPS,)
        assert np.all(np.diff(b) > 0)

    def test_bin_of_matches_linear_scan(self):
        # oracle: place each sample by scanning boundaries directly
        b = BOUNDARIES
        rng = np.random.default_rng(0)
        vth = rng.uniform(b[0] - 30, b[-1] + 30, 500)
        expect = np.array([int(np.sum(v >= b)) for v in vth])
        assert np.array_equal(bin_of(vth), expect)
        assert bin_of(np.array([b[0] - 1])).item() == 0
        assert bin_of(np.array([b[-1] + 1])).item() == N_BINS - 1


class TestReadRefsOrdered:
    @pytest.mark.parametrize("raw, want", [
        ((10, 20, 30), (10, 20, 30)),     # already ordered: unchanged
        ((10, 5, 30), (10, 11, 30)),      # vb raised past va
        ((10, 20, 15), (10, 20, 21)),     # vc raised past vb
        ((10, 5, 8), (10, 11, 12)),       # vc raised past the raised vb
        ((-3, -3, -3), (-3, -2, -1)),
    ])
    def test_raises_vb_then_vc_just_enough(self, raw, want):
        assert ordered_refs(*raw).tolist() == list(want)

    @settings(max_examples=100)
    @given(hst.lists(hst.tuples(*[hst.integers(-500, 500)] * 3), min_size=1,
                     max_size=20))
    def test_arrays_order_row_by_row(self, rows):
        got = ordered_refs(*np.array(rows).T)
        assert got.shape == (len(rows), 3)
        assert got.tolist() == [ordered_refs(*r).tolist() for r in rows]
        assert np.all(np.diff(got, axis=1) > 0)


class TestGrayMapping:
    def test_bit_tables(self):
        # ER=(1,1), P1=(0,1), P2=(0,0), P3=(1,0)
        assert list(MSB_OF_STATE) == [1, 0, 0, 1]
        assert list(LSB_OF_STATE) == [1, 1, 0, 0]

    def test_adjacent_states_differ_in_one_bit(self):
        for a, b in zip(range(3), range(1, 4)):
            dist = (int(MSB_OF_STATE[a] != MSB_OF_STATE[b])
                    + int(LSB_OF_STATE[a] != LSB_OF_STATE[b]))
            assert dist == 1

    def test_classify_regions_counts_crossed_refs(self):
        va, vb, vc = DEFAULT_READ_REFS
        vth = np.array([va - 1, va + 1, vb + 1, vc + 1])
        assert list(classify_regions(vth, DEFAULT_READ_REFS)) == [0, 1, 2, 3]


class TestSampling:
    def test_state_quarters_and_moments(self):
        st = sample_page(t_models(lam=0.0), 400_000, seed=3)
        for s in CellState:
            sel = st.true_state == s
            assert int(sel.sum()) == 100_000
            assert np.mean(st.vth[sel]) == pytest.approx(t_models()[s].mu, abs=0.5)

    def test_misprogram_rate(self):
        lam = 5e-3
        st = sample_page(t_models(lam=lam), 1_000_000, seed=4)
        er = st.true_state == CellState.ER
        flipped = np.mean(st.shape_state[er] != st.true_state[er])
        assert flipped == pytest.approx(lam, rel=0.2)
        # misprogrammed ER cells carry P3's distribution
        bad = er & (st.shape_state != st.true_state)
        assert np.mean(st.vth[bad]) == pytest.approx(260.0, abs=2.0)

    def test_deterministic_per_seed(self):
        a = sample_page(t_models(), 10_000, seed=9)
        b = sample_page(t_models(), 10_000, seed=9)
        assert np.array_equal(a.vth, b.vth)
        c = sample_page(t_models(), 10_000, seed=10)
        assert not np.array_equal(a.vth, c.vth)


class TestReads:
    def test_rber_definition(self):
        st = sample_page(t_models(), 100_000, seed=7)
        refs = np.array([45, 147, 222])  # midpoints of the test means
        rep = measure_rber(st, refs)
        assert rep.total == pytest.approx((rep.msb + rep.lsb) / 2)
        assert 0 < rep.total < 0.05


class TestHistogram:
    def test_counts_complete_and_reloadable(self, tmp_path):
        st = sample_page(t_models(), 40_000, seed=14)
        hist = bin_cells(st)
        assert hist.counts.shape == (4, N_BINS)
        assert int(hist.counts.sum()) == 40_000
        path = tmp_path / "h.csv"
        export_histogram_csv(hist, path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "state,bin,count"
        assert len(rows) == 1 + 4 * N_BINS
        assert np.array_equal(load_histogram_csv(path).counts, hist.counts)
