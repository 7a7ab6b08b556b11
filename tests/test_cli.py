import json
import math
from unittest.mock import patch

import numpy as np
import pytest

from flashlab import cli
from flashlab.cli import main
from flashlab.controller import THREE_YEARS_S, endurance_at
from flashlab.controller.geometry import THREE_DAYS_S
from flashlab.degradation import RetentionModel3D
from flashlab.grid import CellState
from flashlab.models.cdf import StateModel
from flashlab.models.fitting import predict_static
from flashlab.raid_ecc import (EccConfig, ParityConfig, ecc_failure_rate,
                               lb_fail, lifetime_years, parity_fail)
from flashlab.trace import Trace, hotness_cdf, write_canonical
from reference import (bin_cells, dynamic_from_dict, export_histogram_csv,
                       load_models_json, sample_page, synth_hot)

MEANS = (20.0, 100.0, 180.0, 260.0)


def heavy_tail_models(sigma=8.0, nu=3.0):
    return {st: StateModel("student_t", MEANS[i], sigma, nu, nu)
            for i, st in enumerate(CellState)}


def write_histogram(path, models, n_cells=200_000, seed=0):
    state = sample_page(models, n_cells, seed=seed)
    export_histogram_csv(bin_cells(state), str(path))


def write_trace(path, seed=3, duration_s=200, rate=50):
    events = synth_hot(duration_s, rate, 0.05, 0.9,
                       footprint_bytes=24 << 20, seed=seed)
    write_canonical(events, str(path))


class TestFit:
    def test_compare_ranks_families_and_writes_model(self, tmp_path, capsys):
        hist = tmp_path / "h.csv"
        write_histogram(hist, heavy_tail_models())
        rc = main(["--out", str(tmp_path / "out"), "fit", str(hist),
                   "--compare", "gaussian,student_t"])
        assert rc == 0
        out = capsys.readouterr().out
        kl = {}
        for line in out.splitlines():
            fam, rest = line.split(":", 1)
            kl[fam] = float(rest.split("kl=")[1].split()[0])
        # the sampled population has heavy tails, so the heavy-tailed
        # family must explain it strictly better than a pure gaussian
        assert kl["student_t"] < kl["gaussian"]
        doc = json.loads((tmp_path / "out" / "model.json").read_text())
        assert doc["family"] == "student_t"
        assert set(doc["states"]) == {"ER", "P1", "P2", "P3"}
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_dynamic_needs_three_histograms(self, tmp_path):
        hist = tmp_path / "h1000.csv"
        write_histogram(hist, heavy_tail_models(), n_cells=20_000)
        rc = main(["--out", str(tmp_path / "out"), "fit", str(hist),
                   "--dynamic"])
        assert rc == 2

    def test_dynamic_json_loads_back_and_predicts_same_models(self, tmp_path):
        # Gaussian channels drifting with wear; dynamic.json must round-trip
        # through dynamic_from_dict and give the models the CLI predicted.
        paths = []
        for i, pec in enumerate((1000, 3000, 6000)):
            drift = 0.002 * pec
            models = {st: StateModel("gaussian", MEANS[k] - drift, 8.0 + drift / 4)
                      for k, st in enumerate(CellState)}
            paths.append(tmp_path / f"h{pec}.csv")
            write_histogram(paths[-1], models, n_cells=20_000, seed=i)
        out = tmp_path / "out"
        rc = main(["--out", str(out), "fit", *map(str, paths), "--dynamic",
                   "--family", "gaussian", "--predict", "4500"])
        assert rc == 0
        dynamic = dynamic_from_dict(json.loads((out / "dynamic.json").read_text()))
        assert {st for st, _ in dynamic} == {st.name for st in CellState}
        models, _ = predict_static(dynamic, 4500, "gaussian")
        assert models == load_models_json(str(out / "model.json"))

    @pytest.mark.parametrize("name", ["chip2_pec3000.csv", "h1e3.csv",
                                      "fresh.csv"])
    def test_dynamic_pec_from_a_name_without_one_digit_run_is_config_error(
            self, tmp_path, capsys, name):
        # a P/E count is read only from a stem with exactly one run of
        # digits: chip2_pec3000 is not P/E 23000, nor h1e3 P/E 13
        paths = [tmp_path / "h1000.csv", tmp_path / "h2000.csv", tmp_path / name]
        for i, path in enumerate(paths):
            write_histogram(path, heavy_tail_models(), n_cells=20_000, seed=i)
        rc = main(["--out", str(tmp_path / "out"), "fit", *map(str, paths),
                   "--dynamic", "--family", "gaussian"])
        assert rc == 2
        err = capsys.readouterr().err
        assert name in err and "--pecs" in err
        assert not (tmp_path / "out" / "dynamic.json").exists()

    def test_dynamic_with_compare_is_config_error(self, tmp_path, capsys):
        # --dynamic fits one family, so a list of families conflicts
        paths = []
        for i, pec in enumerate((0, 1000, 2000)):
            path = tmp_path / f"pec{pec}.csv"
            write_histogram(path, heavy_tail_models(), n_cells=20_000, seed=i)
            paths.append(str(path))
        rc = main(["--out", str(tmp_path / "out"), "fit", *paths, "--dynamic",
                   "--compare", "gaussian,student_t"])
        assert rc == 2
        assert "--compare" in capsys.readouterr().err
        assert not (tmp_path / "out" / "dynamic.json").exists()

    @pytest.mark.parametrize("spec, entry", [
        ("gaussian,bogus", "'bogus'"),
        ("gaussian,", "''"),
        (",student_t", "''"),
        ("gaussian,gaussian", "'gaussian'"),
    ])
    def test_compare_names_are_checked_before_any_fit(self, tmp_path, capsys,
                                                      spec, entry):
        # an unknown, empty or repeated family fails before the first fit,
        # not after it has printed a result line
        hist = tmp_path / "h.csv"
        write_histogram(hist, heavy_tail_models(), n_cells=20_000)
        with patch.object(cli, "fit_static",
                          side_effect=AssertionError("fit_static ran")) as fit:
            rc = main(["--out", str(tmp_path / "out"), "fit", str(hist),
                       "--compare", spec])
        assert rc == 2
        assert not fit.called
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--compare" in captured.err and entry in captured.err

    @staticmethod
    def _dynamic_inputs(tmp_path):
        paths = []
        for i, pec in enumerate((1000, 2000, 4000)):
            paths.append(tmp_path / f"h{pec}.csv")
            write_histogram(paths[-1], heavy_tail_models(), n_cells=20_000,
                            seed=i)
        return [str(p) for p in paths]

    @pytest.mark.parametrize("predict", ["nan", "inf", "-inf", "-5"])
    def test_dynamic_predict_must_be_a_finite_count(self, tmp_path, capsys,
                                                    predict):
        # a NaN prediction wrote "sigma": NaN, which is not JSON
        paths = self._dynamic_inputs(tmp_path)
        with patch.object(cli, "fit_static",
                          side_effect=AssertionError("fit_static ran")) as fit:
            rc = main(["--out", str(tmp_path / "out"), "fit", *paths,
                       "--dynamic", "--family", "gaussian",
                       f"--predict={predict}"])
        assert rc == 2
        assert not fit.called
        assert "--predict" in capsys.readouterr().err
        assert not (tmp_path / "out" / "model.json").exists()

    @pytest.mark.parametrize("pecs", ["1000,1000,1000", "1000,1000,2000",
                                      "-1000,2000,4000", "0,1000,2000"])
    def test_dynamic_pecs_need_three_distinct_positive_counts(
            self, tmp_path, capsys, pecs):
        # a power law through one x is no fit, and a negative count is no
        # P/E count; both fail before any histogram is fitted
        paths = self._dynamic_inputs(tmp_path)
        with patch.object(cli, "fit_static",
                          side_effect=AssertionError("fit_static ran")) as fit:
            rc = main(["--out", str(tmp_path / "out"), "fit", *paths,
                       "--dynamic", "--family", "gaussian", f"--pecs={pecs}"])
        assert rc == 2
        assert not fit.called
        assert "P/E count" in capsys.readouterr().err
        assert not (tmp_path / "out" / "dynamic.json").exists()

    @pytest.mark.parametrize("option", ["--predict=5000", "--pecs=1,2,3"])
    def test_dynamic_options_need_dynamic(self, tmp_path, capsys, option):
        # a static fit used to ignore them, fit and exit 0
        path = tmp_path / "hist.csv"
        write_histogram(path, heavy_tail_models(), n_cells=20_000, seed=0)
        with patch.object(cli, "fit_static",
                          side_effect=AssertionError("fit_static ran")) as fit:
            rc = main(["--out", str(tmp_path / "out"), "fit", str(path),
                       "--family", "gaussian", option])
        assert rc == 2
        assert not fit.called
        assert option.split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_bad_header_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("foo,bar\n1,2\n")
        rc = main(["--out", str(tmp_path / "out"), "fit", str(bad)])
        assert rc == 2

    @pytest.mark.parametrize("bad_row", [
        "ER,-1,100000", "P1,99999,5", "ER,3", "P2,5,-3", "P4,5,3",
        "ER,5,99999999999999999999",
        pytest.param("ER,5,9000000000000000000\nER,5,9000000000000000000",
                     id="bin-sum-past-int64"),
        pytest.param("P1,5,9000000000000000000\nP1,6,9000000000000000000",
                     id="state-sum-past-int64")])
    def test_bad_histogram_row_is_config_error(self, tmp_path, bad_row):
        hist = tmp_path / "h.csv"
        write_histogram(hist, heavy_tail_models(), n_cells=20_000)
        with open(hist, "a") as fh:
            fh.write(bad_row + "\n")
        rc = main(["--out", str(tmp_path / "out"), "fit", str(hist)])
        assert rc == 2

    def test_missing_file_is_config_error(self, tmp_path):
        rc = main(["--out", str(tmp_path / "out"), "fit",
                   str(tmp_path / "nope.csv")])
        assert rc == 2


# (section, key, a value of the wrong type, the name the error gives);
# the section None is a top-level key
PLAN_TYPE_CASES = [
    ("ecc", "codeword_len", "8192", "ecc.codeword_len"),
    ("ecc", "correctable", 40.9, "ecc.correctable"),
    ("ecc", "coding_rate", "0.9", "ecc.coding_rate"),
    (None, "rber", "1e-3", "rber.0"),
    (None, "rber", [1e-3, True], "rber.1"),
    ("parity", "chips", 8.0, "parity.chips"),
    ("parity", "dies", "2", "parity.dies"),
    ("parity", "codewords_per_lb", 4.5, "parity.codewords_per_lb"),
    ("parity", "p_hgbb", "1e-6", "parity.p_hgbb"),
    ("op", "pba", "2.4e12", "op.pba"),
    ("op", "lba", True, "op.lba"),
    ("lifetime", "pec", "3000", "lifetime.pec"),
    ("lifetime", "op", "0.2", "lifetime.op"),
    ("lifetime", "dwpd", math.nan, "lifetime.dwpd"),
    ("lifetime", "wa", "2", "lifetime.wa"),
    ("lifetime", "r_compress", math.inf, "lifetime.r_compress"),
    ("multirate", "schedule", [[24, "0.116", 1.9, 0.9]],
     "multirate.schedule.0.1"),
    ("multirate", "dwpd", "1", "multirate.dwpd"),
    ("multirate", "r_compress", "0.8", "multirate.r_compress"),
]


class TestPlan:
    def test_op_and_ecc_tables(self, tmp_path):
        cfg = tmp_path / "plan.json"
        cfg.write_text(json.dumps({
            "ecc": {"codeword_len": 18336, "correctable": 40},
            "rber": [1e-3, 2e-3],
            "op": [{"pba": 2.4e12, "lba": 2.0e12}],
        }))
        rc = main(["--out", str(tmp_path / "out"), "plan",
                   "--config", str(cfg)])
        assert rc == 0
        out = json.loads((tmp_path / "out" / "plan.json").read_text())
        assert out["op"][0]["op_fraction"] == pytest.approx(0.20)
        want = ecc_failure_rate(EccConfig(18336, 40, 0.9), 1e-3)
        assert out["ecc"][0]["p_ecfr"] == pytest.approx(want, rel=1e-12)

    def test_parity_and_lifetime_sections(self, tmp_path):
        cfg = tmp_path / "plan.json"
        cfg.write_text(json.dumps({
            "ecc": {"codeword_len": 18336, "correctable": 40},
            "rber": 4e-3,
            "parity": {"chips": 8, "dies": 2, "codewords_per_lb": 4,
                       "p_hgbb": 1e-6},
            "lifetime": {"pec": 3000, "op": 0.2, "dwpd": 1.0, "wa": 2.0,
                         "r_compress": 0.8},
        }))
        rc = main(["--out", str(tmp_path / "out"), "plan",
                   "--config", str(cfg)])
        assert rc == 0
        out = json.loads((tmp_path / "out" / "plan.json").read_text())
        par = ParityConfig(8, 2, 4, 1e-6)
        p_lb = lb_fail(par, ecc_failure_rate(EccConfig(18336, 40, 0.9), 4e-3))
        (row,) = out["ecc"]
        assert row["p_lb_fail"] == pytest.approx(p_lb, rel=1e-12)
        assert row["p_parity_fail"] == pytest.approx(parity_fail(par, p_lb),
                                                     rel=1e-12)
        assert out["lifetime_years"] == pytest.approx(
            lifetime_years(3000, 0.2, 1.0, 2.0, 0.8), rel=1e-12)

    def test_missing_config_is_config_error(self, tmp_path):
        rc = main(["--out", str(tmp_path / "out"), "plan",
                   "--config", str(tmp_path / "nope.json")])
        assert rc == 2

    @pytest.mark.parametrize("doc", [
        [1, 2],
        {"lifetime": {"pec": 3000, "op": 0.2, "dwpd": 0, "wa": 2.0}},
        {"lifetime": {"pec": 3000, "op": 0.2, "dwpd": 1.0, "wa": 0}},
        {"ecc": []},
        {"op": 5},
        {"multirate": {"schedule": 5, "dwpd": 1}},
    ], ids=["not-an-object", "lifetime-dwpd-zero", "lifetime-wa-zero",
            "ecc-list", "op-number", "multirate-schedule-number"])
    def test_bad_plan_config_is_config_error(self, tmp_path, capsys, doc):
        cfg = tmp_path / "plan.json"
        cfg.write_text(json.dumps(doc))
        rc = main(["--out", str(tmp_path / "out"), "plan",
                   "--config", str(cfg)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out" / "plan.json").exists()

    # every section, each value valid; the cases below spoil one value
    FULL_PLAN = {
        "ecc": {"codeword_len": 18336, "correctable": 40, "coding_rate": 0.9},
        "rber": [1e-3, 2e-3],
        "parity": {"chips": 8, "dies": 2, "codewords_per_lb": 4,
                   "p_hgbb": 1e-6},
        "op": [{"pba": 2.4e12, "lba": 2.0e12}],
        "lifetime": {"pec": 3000, "op": 0.2, "dwpd": 1.0, "wa": 2.0,
                     "r_compress": 0.8},
        "multirate": {"schedule": [[24, 0.116, 1.9, 0.9]], "dwpd": 1.0,
                      "r_compress": 1.0},
    }

    def run_plan(self, tmp_path, doc):
        cfg = tmp_path / "plan.json"
        cfg.write_text(json.dumps(doc))
        return main(["--out", str(tmp_path / "out"), "plan",
                     "--config", str(cfg)])

    def test_full_plan_runs(self, tmp_path):
        assert self.run_plan(tmp_path, self.FULL_PLAN) == 0
        out = json.loads((tmp_path / "out" / "plan.json").read_text())
        assert set(out) == {"ecc", "op", "lifetime_years",
                            "multirate_lifetime_years"}

    @pytest.mark.parametrize("section, key, value, named", PLAN_TYPE_CASES,
                             ids=[case[-1] for case in PLAN_TYPE_CASES])
    def test_value_of_the_wrong_type_is_config_error(self, tmp_path, capsys,
                                                      section, key, value,
                                                      named):
        doc = json.loads(json.dumps(self.FULL_PLAN))
        if section is None:
            doc[key] = value
        elif section == "op":
            doc["op"][0][key] = value
        else:
            doc[section][key] = value
        assert self.run_plan(tmp_path, doc) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"plan {named} " in err
        assert not (tmp_path / "out" / "plan.json").exists()

    @pytest.mark.parametrize("doc, named", [
        ({"lifetme": FULL_PLAN["lifetime"]}, "unknown key 'lifetme'"),
        ({"lifetime": dict(FULL_PLAN["lifetime"], rcompress=2)},
         "plan lifetime: unknown key 'rcompress'"),
        ({"parity": FULL_PLAN["parity"]}, "plan parity needs an ecc section"),
        ({"rber": [1e-3]}, "plan rber needs an ecc section"),
        ({"op": [{"pba": 2.4e12, "lba": 2.0e12, "lbas": 1}]},
         "plan op: unknown key 'lbas'"),
    ], ids=["section-name", "lifetime-field", "parity-without-ecc",
            "rber-without-ecc", "op-field"])
    def test_misspelled_or_orphan_key_is_config_error(self, tmp_path, capsys,
                                                     doc, named):
        assert self.run_plan(tmp_path, doc) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out" / "plan.json").exists()

    def test_multirate_triple_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "plan.json"
        cfg.write_text(json.dumps({
            "multirate": {"dwpd": 1.0, "schedule": [[24, 0.116, 1.9]]},
        }))
        rc = main(["--out", str(tmp_path / "out"), "plan",
                   "--config", str(cfg)])
        assert rc == 2
        assert "(pec_increment, op, wa, rate)" in capsys.readouterr().err


class TestLayout:
    def test_feasible_layout_exits_zero_and_exports_csv(self, tmp_path):
        rc = main(["--out", str(tmp_path / "out"), "layout",
                   "--chips", "4", "--wordlines", "4"])
        assert rc == 0
        assert (tmp_path / "out" / "li_raid_4x4.csv").exists()

    def test_conventional_layout_has_two_groups_per_wordline(self, tmp_path,
                                                             capsys):
        rc = main(["--out", str(tmp_path / "out"), "layout", "--chips", "4",
                   "--wordlines", "5", "--kind", "conventional"])
        assert rc == 0
        assert "conventional: 10 groups" in capsys.readouterr().out
        rows = (tmp_path / "out" / "conventional_4x5.csv").read_text().splitlines()
        assert rows[0] == "chip,wordline,page,group"
        assert len(rows) == 1 + 4 * 5 * 2
        assert {r.rsplit(",", 1)[1] for r in rows[1:]} == {
            str(g) for g in range(2 * 5)}

    def test_padded_layout_is_reported(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path / "out"), "layout",
                   "--chips", "3", "--wordlines", "4"])
        assert rc == 0
        assert "(padded)" in capsys.readouterr().out

    def test_infeasible_layout_exits_four(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path / "out"), "layout",
                   "--chips", "9", "--wordlines", "4"])
        assert rc == 4
        assert "infeasible" in capsys.readouterr().err

    @pytest.mark.parametrize("chips, wordlines, kind", [
        ("0", "4", "li_raid"), ("-2", "4", "conventional"),
        ("4", "0", "li_raid"), ("4", "-1", "conventional")],
        ids=["chips-zero", "chips-negative", "wordlines-zero",
             "wordlines-negative"])
    def test_non_positive_size_is_config_error(self, tmp_path, capsys, chips,
                                               wordlines, kind):
        rc = main(["--out", str(tmp_path / "out"), "layout", "--chips", chips,
                   "--wordlines", wordlines, "--kind", kind])
        assert rc == 2
        assert "must both be positive" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_single_chip_cannot_interleave_parity(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path / "out"), "layout",
                   "--chips", "1", "--wordlines", "4"])
        assert rc == 4
        assert "at least 2" in capsys.readouterr().err
        assert not (tmp_path / "out" / "li_raid_1x4.csv").exists()


class TestTraceStats:
    def test_canonical_summary(self, tmp_path, capsys):
        tr = tmp_path / "t.csv"
        write_trace(tr)
        rc = main(["trace-stats", str(tr)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "events=10000" in out
        assert "writes=10000" in out
        assert "skipped=0" in out

    def test_msr_dialect_and_conversion(self, tmp_path, capsys):
        msr = tmp_path / "m.csv"
        msr.write_text(
            "128166372003061629,src1,0,Write,1048576,8192,401\n"
            "128166372013061629,src1,0,Read,2097152,4096,388\n")
        conv = tmp_path / "conv.csv"
        rc = main(["trace-stats", str(msr), "--msr",
                   "--canonical-out", str(conv)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "events=2" in out and "reads=1" in out
        lines = conv.read_text().splitlines()
        assert lines[0] == "timestamp_us,op,lba,size_bytes"
        assert len(lines) == 3

    def test_missing_trace_is_config_error(self, tmp_path):
        rc = main(["trace-stats", str(tmp_path / "nope.csv")])
        assert rc == 2

    @pytest.mark.parametrize("page_size", ["3000", "100", "0", "-512"])
    def test_page_size_not_whole_sectors_is_config_error(self, tmp_path, capsys,
                                                         page_size):
        # a 3000-byte page would leave this 100-byte write on no page
        tr = tmp_path / "t.csv"
        write_canonical(Trace([0], [True], [5], [100]), str(tr))
        rc = main(["trace-stats", str(tr), "--page-size", page_size])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "multiple of 512" in err


class TestSimulate:
    @staticmethod
    def run(tmp_path, tag, seed=0):
        tr = tmp_path / "t.csv"
        if not tr.exists():
            write_trace(tr)
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"policies": [
            {"name": "baseline", "capacity_bytes": 32 << 20,
             "mode": "analytic", "refresh": "fcr:3d"},
        ]}))
        out = tmp_path / tag
        rc = main(["--seed", str(seed), "--out", str(out), "simulate",
                   "--config", str(cfg), "--trace", str(tr)])
        return rc, out

    def test_run_writes_report_and_series(self, tmp_path, capsys):
        rc, out = self.run(tmp_path, "a")
        assert rc == 0
        assert "baseline: lifetime_days=" in capsys.readouterr().out
        rep = json.loads((out / "baseline.json").read_text())
        assert rep["writes"]["host"] == 10000
        assert (out / "baseline_series.csv").read_text().startswith("day,")

    def test_same_seed_is_byte_identical(self, tmp_path):
        rc1, o1 = self.run(tmp_path, "a", seed=7)
        rc2, o2 = self.run(tmp_path, "b", seed=7)
        assert rc1 == rc2 == 0
        for name in ("baseline.json", "baseline_series.csv"):
            assert (o1 / name).read_bytes() == (o2 / name).read_bytes()

    def test_parallel_jobs_write_the_same_artifacts(self, tmp_path):
        tr = tmp_path / "t.csv"
        write_trace(tr)
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"policies": [
            {"name": "baseline", "capacity_bytes": 32 << 20,
             "refresh": "fcr:3d"},
            {"name": "warm", "capacity_bytes": 32 << 20, "warm": True,
             "refresh": "fcr:3d"},
        ]}))
        outs = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            rc = main(["--seed", "5", "--out", str(out), "simulate",
                       "--config", str(cfg), "--trace", str(tr),
                       "--jobs", str(jobs)])
            assert rc == 0
            outs.append(out)
        for name in ("baseline.json", "baseline_series.csv", "warm.json",
                     "warm_series.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    @pytest.mark.parametrize("spec", ["hourly", "fcr:nand", "fcr:infd",
                                      "fcr:0d", "fcr:-1d"],
                             ids=["hourly", "fcr-nan", "fcr-infinite",
                                  "fcr-zero", "fcr-negative"])
    def test_bad_refresh_spec_is_config_error(self, tmp_path, capsys,
                                              monkeypatch, spec):
        def no_trace(*args):
            raise AssertionError("the trace was read")
        monkeypatch.setattr("flashlab.trace.parse_canonical", no_trace)
        tr = tmp_path / "t.csv"
        write_trace(tr)
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"policies": [
            {"name": "x", "refresh": spec}]}))
        rc = main(["--out", str(tmp_path / "out"), "simulate",
                   "--config", str(cfg), "--trace", str(tr)])
        assert rc == 2
        assert "config error: policy 'x'" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["analytic", "direct"])
    def test_adaptive_refresh_past_every_tier_runs_as_fcr_3d(self, tmp_path,
                                                             mode):
        # wear past the 3-day tier's endurance: adaptive refresh picks the
        # 3-day period for every block and guarantees 3-day retention, so
        # it is FCR every 3 days, refreshes included
        tr = tmp_path / "t.csv"
        write_canonical(synth_hot(4 * 86400, 0.03, 0.05, 0.9,
                                  footprint_bytes=24 << 20, seed=3), str(tr))
        policy = {"capacity_bytes": 128 << 20, "initial_pec": 160_000,
                  "mode": mode, **({"ecc_limit": 2e-3} if mode == "direct" else {})}
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"policies": [
            dict(policy, name="adaptive", refresh="adaptive"),
            dict(policy, name="fcr", refresh="fcr:3d")]}))
        rc = main(["--out", str(tmp_path / "out"), "simulate",
                   "--config", str(cfg), "--trace", str(tr)])
        # this wear is past the 3-day endurance, so the analytic lifetime
        # is 0; in direct mode it is past the ECC limit from day 0
        assert rc == 4
        out = tmp_path / "out"
        assert json.loads((out / "adaptive.json").read_text())["writes"]["refresh"] > 0
        for suffix in (".json", "_series.csv"):
            assert ((out / f"adaptive{suffix}").read_bytes()
                    == (out / f"fcr{suffix}").read_bytes())

    def test_config_not_an_object_is_config_error(self, tmp_path, capsys):
        tr = tmp_path / "t.csv"
        write_trace(tr)
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps([1, 2]))
        rc = main(["--out", str(tmp_path / "out"), "simulate",
                   "--config", str(cfg), "--trace", str(tr)])
        assert rc == 2
        assert "JSON object" in capsys.readouterr().err

    def test_config_without_policies_is_config_error(self, tmp_path):
        tr = tmp_path / "t.csv"
        write_trace(tr)
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"note": "empty"}))
        rc = main(["--out", str(tmp_path / "out"), "simulate",
                   "--config", str(cfg), "--trace", str(tr)])
        assert rc == 2

    def test_over_committed_drive_is_config_error(self, tmp_path, capsys):
        # 8 blocks cannot hold a 6.9 MB footprint with WARM's hot pool and
        # the GC reserve; the drive runs out of free blocks mid-replay.
        tr = tmp_path / "t.csv"
        write_canonical(synth_hot(400, 100, 0.05, 0.9,
                                  footprint_bytes=int(6.9e6), seed=3), str(tr))
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"policies": [
            {"name": "run", "capacity_bytes": 8 << 20, "warm": True}]}))
        rc = main(["--out", str(tmp_path / "out"), "simulate",
                   "--config", str(cfg), "--trace", str(tr)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "over-committed" in err
        assert "capacity_bytes 8388608" in err and "op_fraction" in err

    @staticmethod
    def run_policy(tmp_path, policy, trace_writer):
        tr = tmp_path / "t.csv"
        if not tr.exists():
            trace_writer(tr)
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"policies": [policy]}))
        return main(["--out", str(tmp_path / "out"), "simulate",
                     "--config", str(cfg), "--trace", str(tr)])

    @staticmethod
    def over_commit_trace(path):
        write_canonical(synth_hot(400, 100, 0.05, 0.9,
                                  footprint_bytes=int(6.9e6), seed=3), str(path))

    def test_op_fraction_sets_over_provisioning(self, tmp_path, capsys):
        # the over-committed drive above runs once it has half its logical
        # capacity again as spare blocks
        policy = {"name": "run", "capacity_bytes": 8 << 20, "warm": True}
        rc = self.run_policy(tmp_path, dict(policy, op_fraction=0.3),
                             self.over_commit_trace)
        assert rc == 2
        assert "op_fraction 0.3" in capsys.readouterr().err
        rc = self.run_policy(tmp_path, dict(policy, op_fraction=0.5),
                             self.over_commit_trace)
        assert rc == 0
        assert "run: lifetime_days=" in capsys.readouterr().out

    @pytest.mark.parametrize("op_fraction", [0.0, 1.0, -0.1, 1.5, "many", None])
    def test_out_of_range_op_fraction_is_config_error(self, tmp_path, capsys,
                                                      op_fraction):
        rc = self.run_policy(tmp_path, {"name": "x", "capacity_bytes": 32 << 20,
                                        "op_fraction": op_fraction}, write_trace)
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_multi_page_writes_count_every_page_they_touch(self, tmp_path):
        # 12 KiB at lba 0 touches 8 KiB pages 0-1; 8 KiB at lba 40 (byte
        # 20480) straddles pages 2-3
        events = Trace([0, 1], [True, True], [0, 40], [12288, 8192])
        rc = self.run_policy(tmp_path, {"name": "run", "capacity_bytes": 32 << 20},
                             lambda path: write_canonical(events, str(path)))
        assert rc == 0
        rep = json.loads((tmp_path / "out" / "run.json").read_text())
        # trace-stats' curve: four pages, one write each
        frac_pages, frac_writes = hotness_cdf(events)
        assert frac_pages.size == 4
        assert np.allclose(frac_writes, [0.25, 0.5, 0.75, 1.0])
        assert rep["writes"]["host"] == 4

    @pytest.mark.parametrize("policies", [
        [{"name": "../evil"}],
        [{"name": "manifest"}],
        [{"name": "twin"}, {"name": "twin", "warm": True}],
        [{"name": "x", "refresh": 3}],
        [{"name": "x", "warm": "false"}],
        [{"name": "x", "mode": "direct", "ecc_limit": -1}],
        [{"name": "x", "mode": "direct", "ecc_limit": "2e-3"}],
        [{"name": "x", "mode": "direct", "ecc_limit": 5}],
        [{"name": "x", "bogus": 1}],
        [{"name": "x", "series_rber": "no"}],
    ], ids=["path-name", "manifest-name", "repeated-name", "refresh-number",
            "warm-string", "ecc-limit-negative", "ecc-limit-string",
            "ecc-limit-past-half", "unknown-key", "series-rber-key"])
    def test_bad_policy_entry_is_config_error(self, tmp_path, capsys, policies):
        tr = tmp_path / "t.csv"
        write_trace(tr, duration_s=20)
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"policies": [
            dict(p, capacity_bytes=32 << 20) for p in policies]}))
        rc = main(["--out", str(tmp_path / "runs" / "out"), "simulate",
                   "--config", str(cfg), "--trace", str(tr)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        # checked before any policy ran: only the manifest was written
        runs = tmp_path / "runs"
        written = sorted(str(p.relative_to(runs))
                         for p in runs.rglob("*") if p.is_file())
        assert written == ["out/manifest.json"]

    @pytest.mark.parametrize("bad", [
        {"capacity_bytes": "lots"},
        {"capacity_bytes": "33554432"},
        {"capacity_bytes": 33554432.7},
        {"op_fraction": 1.5},
        {"op_fraction": "0.25"},
        {"initial_pec": "many"},
        {"initial_pec": -500},
        {"initial_pec": 2 ** 62},
        {"initial_pec": 10 ** 19},
        {"initial_pec": 1.5},
        {"initial_pec": "300"},
        {"initial_pec": True},
        {"mode": "sideways"},
        {"mode": "direct"},
        {"ecc_limit": 1e-3},
    ], ids=["capacity-bytes", "capacity-bytes-string",
            "capacity-bytes-fraction", "op-fraction", "op-fraction-string",
            "initial-pec",
            "initial-pec-negative", "initial-pec-no-room-to-count",
            "initial-pec-past-int64", "initial-pec-fraction",
            "initial-pec-string", "initial-pec-boolean", "mode",
            "direct-without-ecc-limit", "ecc-limit-outside-direct-mode"])
    def test_bad_later_policy_fails_before_any_replay(self, tmp_path, capsys,
                                                      monkeypatch, bad):
        def no_replay(*args):
            raise AssertionError("a policy replayed")
        monkeypatch.setattr("flashlab.cli.run_lifetime", no_replay)
        tr = tmp_path / "t.csv"
        write_trace(tr, duration_s=20)
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"policies": [
            {"name": "a", "capacity_bytes": 32 << 20},
            dict({"name": "b", "capacity_bytes": 32 << 20}, **bad)]}))
        rc = main(["--out", str(tmp_path / "runs" / "out"), "simulate",
                   "--config", str(cfg), "--trace", str(tr)])
        assert rc == 2
        assert "config error: policy 'b'" in capsys.readouterr().err
        runs = tmp_path / "runs"
        written = sorted(str(p.relative_to(runs))
                         for p in runs.rglob("*") if p.is_file())
        assert written == ["out/manifest.json"]

    def test_unknown_top_level_key_fails_before_any_replay(
            self, tmp_path, capsys, monkeypatch):
        def no_replay(*args):
            raise AssertionError("a policy replayed")
        monkeypatch.setattr("flashlab.cli.run_lifetime", no_replay)
        tr = tmp_path / "t.csv"
        write_trace(tr, duration_s=20)
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"experiment": "heatwatc", "policies": [
            {"name": "a", "capacity_bytes": 32 << 20}]}))
        rc = main(["--out", str(tmp_path / "out"), "simulate",
                   "--config", str(cfg), "--trace", str(tr)])
        assert rc == 2
        assert "unknown key 'experiment'" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        {"policies": [{"name": "run", "capacity_bytes": 32 << 20}]},
        {"experiment": "heatwatch", "max_samples": 40},
    ], ids=["policies", "heatwatch"])
    def test_decreasing_timestamp_is_config_error(self, tmp_path, capsys,
                                                  monkeypatch, doc):
        def no_replay(*args, **kw):
            raise AssertionError("the trace was replayed")
        monkeypatch.setattr("flashlab.cli.run_lifetime", no_replay)
        monkeypatch.setattr("flashlab.cli.run_experiment", no_replay)
        # 400 writes a minute apart, 400 reads of them, then a write
        # stamped before all of them
        rows = [(i * 60_000_000, "W", 16 * i) for i in range(400)]
        rows += [((400 + i) * 60_000_000, "R", 16 * i) for i in range(400)]
        rows.append((0, "W", 9999))
        tr = tmp_path / "t.csv"
        tr.write_text("timestamp_us,op,lba,size_bytes\n" + "".join(
            f"{t},{op},{lba},8192\n" for t, op, lba in rows))
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps(doc))
        rc = main(["--out", str(tmp_path / "runs" / "out"), "simulate",
                   "--config", str(cfg), "--trace", str(tr)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "timestamps decrease at event 800" in err
        assert "timestamp_us 0 follows 47940000000" in err
        runs = tmp_path / "runs"
        written = sorted(str(p.relative_to(runs))
                         for p in runs.rglob("*") if p.is_file())
        assert written == ["out/manifest.json"]

    @pytest.mark.parametrize("doc", [
        {"policies": [{"name": "run", "capacity_bytes": 32 << 20,
                       "refresh": "fcr:3d"}]},
        {"experiment": "heatwatch", "max_samples": 40},
    ], ids=["policies", "heatwatch"])
    def test_run_starts_at_the_first_event(self, tmp_path, doc):
        # the same 400 writes and 400 reads, stamped from 0 and from five
        # days on, write the same artifacts
        rows = [(i * 60_000_000, "W", 16 * i) for i in range(400)]
        rows += [((400 + i) * 60_000_000, "R", 16 * i) for i in range(400)]
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps(doc))
        artifacts = []
        for shift in (0, 5 * 86_400_000_000):
            tr = tmp_path / f"t{shift}.csv"
            tr.write_text("timestamp_us,op,lba,size_bytes\n" + "".join(
                f"{t + shift},{op},{lba},8192\n" for t, op, lba in rows))
            out = tmp_path / f"out{shift}"
            rc = main(["--out", str(out), "simulate", "--config", str(cfg),
                       "--trace", str(tr)])
            assert rc == 0
            artifacts.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert len(artifacts[0]) > 1
        assert artifacts[0] == artifacts[1]

    def test_trace_spanning_more_than_int64_is_config_error(self, tmp_path,
                                                            capsys):
        tr = tmp_path / "t.csv"
        tr.write_text("timestamp_us,op,lba,size_bytes\n"
                      f"{-3 * 2 ** 61},W,0,8192\n{2 ** 62},W,0,8192\n")
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({"policies": [{"name": "run"}]}))
        rc = main(["--out", str(tmp_path / "out"), "simulate",
                   "--config", str(cfg), "--trace", str(tr)])
        assert rc == 2
        assert "int64" in capsys.readouterr().err

    def test_direct_drive_past_its_limit_exits_four_when_nothing_wears(
            self, tmp_path):
        # 2000 one-page writes over 500 pages erase no block, and at
        # 160,000 P/E the drive is past its ECC limit from day 0
        def trace(path):
            path.write_text("timestamp_us,op,lba,size_bytes\n" + "".join(
                f"{i * 1_000_000},W,{16 * (i % 500)},8192\n"
                for i in range(2000)))
        rc = self.run_policy(tmp_path, {"name": "worn", "capacity_bytes": 32 << 20,
                                        "mode": "direct", "ecc_limit": 2e-3,
                                        "initial_pec": 160_000}, trace)
        assert rc == 4
        rep = json.loads((tmp_path / "out" / "worn.json").read_text())
        assert rep["pec_max"] == 0
        assert rep["lifetime_days"] == 0.0

    def test_fast_wearing_drive_in_direct_mode_exits_zero(self, tmp_path):
        # about 2000 P/E a day: the lifetime search extrapolates to P/E
        # counts whose page RBER overflows a float
        rc = self.run_policy(tmp_path, {"name": "fast", "capacity_bytes": 32 << 20,
                                        "mode": "direct", "ecc_limit": 2e-3},
                             write_trace)
        assert rc == 0
        rep = json.loads((tmp_path / "out" / "fast.json").read_text())
        # the page RBER reaches the limit on the reported day
        pec = rep["pec_max"] / rep["duration_days"] * rep["lifetime_days"]
        model = RetentionModel3D()
        rber = 0.5 * sum(math.exp(model.eval(row, pec, THREE_YEARS_S))
                         for row in ("log_rber_msb", "log_rber_lsb"))
        assert rber == pytest.approx(2e-3, rel=1e-6)

    def test_analytic_lifetime_spends_only_the_wear_left(self, tmp_path):
        # fcr:3d guarantees three days of retention, so a block has the
        # endurance at three days (about 150,000 P/E) less initial_pec left
        days, rcs = {}, {}
        for pec in (0, 100_000, 160_000):
            run = tmp_path / str(pec)
            run.mkdir()
            rcs[pec] = self.run_policy(run, {"name": "run",
                                             "capacity_bytes": 32 << 20,
                                             "refresh": "fcr:3d",
                                             "initial_pec": pec}, write_trace)
            rep = json.loads((run / "out" / "run.json").read_text())
            assert rep["mode"] == "analytic"
            days[pec] = rep["lifetime_days"]
        assert rcs == {0: 0, 100_000: 0, 160_000: 4}
        left = 1 - 100_000 / endurance_at(THREE_DAYS_S)
        assert days[100_000] == pytest.approx(days[0] * left, rel=1e-12)
        assert days[160_000] == 0.0

    def test_worn_out_drive_in_direct_mode_series_rber_is_at_most_one(self, tmp_path):
        # at 4M P/E the model's page log-RBERs lie far past 0: the drive is
        # dead from day 0, and the daily series reads a capped RBER
        def trace(path):
            write_canonical(synth_hot(200, 50, 0.1, 0.9,
                                      footprint_bytes=24 << 20, seed=1), str(path))
        rc = self.run_policy(tmp_path, {"name": "worn", "capacity_bytes": 32 << 20,
                                        "mode": "direct", "ecc_limit": 2e-3,
                                        "refresh": "fcr:3d",
                                        "initial_pec": 4_000_000}, trace)
        assert rc == 4
        rep = json.loads((tmp_path / "out" / "worn.json").read_text())
        assert rep["lifetime_days"] == 0.0
        rows = (tmp_path / "out" / "worn_series.csv").read_text().splitlines()
        worst = [float(r.split(",")[2]) for r in rows[1:]]
        assert worst and max(worst) <= 1.0

    @pytest.mark.parametrize("bad", [
        {"temp": {"bogus_c": 1.0}},
        {"temp": {"seed": 3}},
        {"temp": {"mean_c": "hot"}},
        {"temp": [35.0]},
        {"temp": {"period_s": 0}},
        {"temp": {"noise_sigma_c": -3}},
        {"max_samples": 0},
        {"max_samples": 2.5},
        {"max_samples": "300"},
        {"ecc_limit": 0},
        {"ecc_limit": -2e-3},
        {"ecc_limit": math.inf},
        {"ecc_limit": 0.5},
        {"bogus": 1},
    ], ids=["temp-unknown-key", "temp-seed", "temp-string", "temp-list",
            "temp-period-zero", "temp-noise-negative", "max-samples-zero", "max-samples-fraction", "max-samples-string",
            "ecc-limit-zero", "ecc-limit-negative", "ecc-limit-infinite",
            "ecc-limit-half", "unknown-key"])
    def test_bad_heatwatch_config_is_config_error(self, tmp_path, capsys,
                                                  monkeypatch, bad):
        def no_experiment(*args, **kw):
            raise AssertionError("the experiment ran")
        monkeypatch.setattr("flashlab.cli.run_experiment", no_experiment)
        tr = tmp_path / "t.csv"
        write_trace(tr, duration_s=20)
        cfg = tmp_path / "hw.json"
        cfg.write_text(json.dumps(dict({"experiment": "heatwatch"}, **bad)))
        rc = main(["--out", str(tmp_path / "out"), "simulate",
                   "--config", str(cfg), "--trace", str(tr)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out" / "heatwatch.json").exists()
