import csv
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as hst

from flashlab.cli import main
from flashlab.trace import (CHUNK_BYTES, SECTOR_BYTES, Trace, hotness_cdf,
                            parse_canonical, parse_msr, write_canonical)
from reference import synth_hot, trace_of


class TestMsrParsing:
    def test_parses_and_rebases(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "128166372003061310,web,0,Write,8192,4096,551\n"
            "128166372013061310,web,0,Read,16384,8192,400\n"
        )
        events, skipped = parse_msr(path)
        assert skipped == 0
        # 1e7 ticks of 100 ns = 1 s = 1e6 us
        assert events.columns() == ([0, 1_000_000], [True, False], [16, 32],
                                    [4096, 8192])

    def test_malformed_rows_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "128166372003061310,web,0,Write,8192,4096,551\n"
            "not,a,valid\n"
            "128166372003061320,web,0,Hopscotch,8192,4096,551\n"
            "128166372003061330,web,0,Write,-5,4096,551\n"
            "128166372003061340,web,0,Write,8192,0,551\n"
            "128166372003061350,web,0,Read,0,512,551\n"
        )
        events, skipped = parse_msr(path)
        assert len(events) == 2
        assert skipped == 4

    def test_case_insensitive_op(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("1000,h,0,WRITE,0,512,1\n2000,h,0,read,512,512,1\n")
        events, _ = parse_msr(path)
        assert events.is_write.tolist() == [True, False]


class TestCanonical:
    def test_round_trip(self, tmp_path):
        events = Trace([0, 125, 99999], [True, False, True], [100, 0, 2**40],
                       [8192, 512, 4096])
        path = tmp_path / "canon.csv"
        write_canonical(events, path)
        back, skipped = parse_canonical(path)
        assert back.columns() == events.columns()
        assert skipped == 0

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,W,100,8192\n")
        with pytest.raises(ValueError):
            parse_canonical(path)

    def test_bad_rows_counted(self, tmp_path):
        path = tmp_path / "canon.csv"
        path.write_text("timestamp_us,op,lba,size_bytes\n"
                        "0,W,100,8192\n"
                        "5,X,100,8192\n"
                        "9,R,100\n")
        events, skipped = parse_canonical(path)
        assert len(events) == 1 and skipped == 2


class TestSynthHot:
    def test_event_count_and_spacing(self):
        ev = synth_hot(10, 100, 0.01, 0.95, 1 << 26, seed=0)
        assert len(ev) == 1000
        gaps = np.diff(ev.timestamp_us)
        assert np.all(gaps >= 0)
        assert ev.timestamp_us[-1] < 10 * 1_000_000

    def test_hot_share_realized(self):
        page_size = 8192
        footprint = 1 << 26
        n_pages = footprint // page_size
        n_hot = int(n_pages * 0.01)
        ev = synth_hot(100, 500, 0.01, 0.95, footprint, seed=1)
        spp = page_size // SECTOR_BYTES
        hot_writes = int(np.count_nonzero(ev.lba // spp < n_hot))
        assert hot_writes / len(ev) == pytest.approx(0.95, abs=0.01)

    def test_all_single_page_writes_by_default(self):
        ev = synth_hot(5, 50, 0.1, 0.5, 1 << 24, seed=2)
        assert ev.is_write.all() and (ev.size_bytes == 8192).all()

    def test_read_fraction(self):
        ev = synth_hot(100, 200, 0.1, 0.5, 1 << 24, seed=3, read_fraction=0.3)
        reads = int(np.count_nonzero(~ev.is_write))
        assert reads / len(ev) == pytest.approx(0.3, abs=0.03)

    def test_deterministic_in_seed(self):
        a = synth_hot(5, 100, 0.05, 0.9, 1 << 24, seed=7)
        b = synth_hot(5, 100, 0.05, 0.9, 1 << 24, seed=7)
        c = synth_hot(5, 100, 0.05, 0.9, 1 << 24, seed=8)
        assert a.columns() == b.columns() and a.columns() != c.columns()

    def test_zipf_mode_skewed(self):
        ev = synth_hot(100, 300, 0.01, 0.95, 1 << 24, seed=4, dist="zipf")
        fp, fw = hotness_cdf(ev)
        idx = np.searchsorted(fp, 0.1)
        assert fw[idx] > 0.5  # hottest 10% of pages take most writes

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            synth_hot(1, 10, 0.0, 0.5, 1 << 20, seed=0)
        with pytest.raises(ValueError):
            synth_hot(1, 10, 0.5, 1.5, 1 << 20, seed=0)
        with pytest.raises(ValueError):
            synth_hot(1, 10, 0.5, 0.5, 1 << 20, seed=0, dist="pareto")


class TestHotnessCdf:
    def test_uniform_trace_is_diagonal(self):
        spp = 8192 // SECTOR_BYTES
        events = Trace(range(100), [True] * 100, np.arange(100) * spp,
                       [8192] * 100)
        fp, fw = hotness_cdf(events)
        assert np.allclose(fp, fw)

    def test_concentrated_trace(self):
        spp = 8192 // SECTOR_BYTES
        events = Trace(range(100), [True] * 100,
                       [0] * 90 + [(1 + i) * spp for i in range(10)],
                       [8192] * 100)
        fp, fw = hotness_cdf(events)
        # hottest single page (1/11 of pages) holds 90% of writes
        assert fw[0] == pytest.approx(0.9)
        assert fw[-1] == pytest.approx(1.0)

    def test_reads_ignored(self):
        events = Trace([0], [False], [0], [8192])
        fp, fw = hotness_cdf(events)
        assert fp.size == 0 and fw.size == 0


def reference_parse_canonical(path):
    """The per-row canonical reader that preceded the columnar Trace; it
    returns the four columns as lists, in ``Trace.columns`` order."""
    columns, skipped = ([], [], [], []), 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["timestamp_us", "op", "lba", "size_bytes"]:
            raise ValueError("not a canonical trace: bad header")
        for row in reader:
            try:
                ts, op, lba, size = int(row[0]), row[1], int(row[2]), int(row[3])
                if op not in ("R", "W") or size <= 0 or lba < 0:
                    raise ValueError
            except (ValueError, IndexError):
                skipped += 1
                continue
            for col, value in zip(columns, (ts, op == "W", lba, size)):
                col.append(value)
    return columns, skipped


def reference_parse_msr(path):
    """The per-row MSR reader that preceded the columnar Trace; it returns
    the four columns as lists, in ``Trace.columns`` order."""
    columns, skipped = ([], [], [], []), 0
    base = None
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if len(row) < 6:
                skipped += 1
                continue
            try:
                ticks = int(row[0])
                kind = row[3].strip().lower()
                offset = int(row[4])
                size = int(row[5])
                if kind not in ("read", "write") or offset < 0 or size <= 0:
                    raise ValueError
            except ValueError:
                skipped += 1
                continue
            if base is None:
                base = ticks
            for col, value in zip(columns, ((ticks - base) // 10,
                                            kind == "write",
                                            offset // SECTOR_BYTES, size)):
                col.append(value)
    return columns, skipped


# Integer fields, plain and in the spellings int() accepts or rejects. All
# values fit int64, the columns' range, which is tested on its own below.
_INT = hst.integers(-(1 << 63), (1 << 63) - 1)
_NONNEG = hst.one_of(hst.integers(0, 10 ** 6), hst.integers(0, (1 << 63) - 1))


def _spelled(ints):
    return hst.one_of(
        ints.map(str), ints.map(str), ints.map(str),
        ints.map(lambda v: f" {v}"), ints.map(lambda v: f"{v}\t "),
        ints.map(lambda v: f"+{v}"), ints.map(lambda v: f"{v:_}"),
        ints.map(lambda v: f"00{v}" if v >= 0 else str(v)),
        ints.map(lambda v: f'"{v}"'),
        hst.sampled_from(["", "x", "1.5", "0x10", "1e3", "-", "+", "٣",
                          "12 34", "-0"]))


_OP = hst.one_of(hst.sampled_from(["R", "W"]), hst.sampled_from(["R", "W"]),
                 hst.sampled_from(["X", "w", "r", "", " W", "RW", '"R"']))
_CANON_ROW = hst.one_of(
    # plain valid rows
    hst.tuples(_INT, hst.sampled_from(["R", "W"]), _NONNEG,
               hst.integers(1, 1 << 20)).map(lambda r: ",".join(map(str, r))),
    hst.tuples(_spelled(_INT), _OP, _spelled(_NONNEG),
               _spelled(hst.integers(-3, 1 << 20))).map(",".join),
    hst.tuples(_spelled(_INT), _OP, _spelled(hst.integers(-50, -1)),
               _spelled(hst.integers(1, 99))).map(",".join),
    hst.lists(_spelled(_NONNEG), min_size=0, max_size=6).map(",".join),
    hst.tuples(hst.integers(0, 99), _OP, hst.integers(0, 99), hst.integers(1, 99),
               hst.text("ab ,", max_size=4)).map(lambda r: ",".join(map(str, r))))


def _lines(rows, newline, trailing):
    return newline.join(rows) + (newline if trailing and rows else "")


class TestParseProperty:
    """The readers against the per-row readers they replaced, on random
    files mixing valid rows with malformed ones."""

    @settings(max_examples=300)
    @given(rows=hst.lists(_CANON_ROW, max_size=30),
           newline=hst.sampled_from(["\n", "\n", "\r\n", "\r"]),
           trailing=hst.booleans())
    def test_canonical_matches_per_row_reader(self, tmp_path_factory, rows,
                                              newline, trailing):
        path = tmp_path_factory.mktemp("canon") / "t.csv"
        path.write_text("timestamp_us,op,lba,size_bytes" + newline
                        + _lines(rows, newline, trailing), newline="")
        events, skipped = parse_canonical(path)
        assert (events.columns(), skipped) == reference_parse_canonical(path)
        event(f"skipped {min(skipped, 2)}")

    @settings(max_examples=200)
    @given(rows=hst.lists(hst.one_of(
               hst.tuples(_spelled(_NONNEG), hst.sampled_from(["web", "", "h"]),
                          hst.sampled_from(["0", "1"]),
                          hst.sampled_from(["Read", "Write", "READ", " write ",
                                            "Hopscotch", ""]),
                          _spelled(hst.integers(-4096, 1 << 40)),
                          _spelled(hst.integers(-2, 1 << 20)),
                          hst.integers(0, 999).map(str)).map(",".join),
               hst.lists(_spelled(_NONNEG), max_size=6).map(",".join)),
               max_size=30),
           newline=hst.sampled_from(["\n", "\r\n"]))
    def test_msr_matches_per_row_reader(self, tmp_path_factory, rows, newline):
        path = tmp_path_factory.mktemp("msr") / "t.csv"
        path.write_text(_lines(rows, newline, True), newline="")
        events, skipped = parse_msr(path)
        assert (events.columns(), skipped) == reference_parse_msr(path)

    def test_bad_header_raises_on_both(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("timestamp_us,op,lba\n0,W,0,8192\n")
        with pytest.raises(ValueError):
            parse_canonical(path)
        with pytest.raises(ValueError):
            reference_parse_canonical(path)

    @pytest.mark.parametrize("row", [
        f"{1 << 63},W,0,8192", f"{-(1 << 63) - 1},W,0,8192",
        f"0,W,{1 << 63},8192", f"0,R,{10 ** 19},8192", f"0,W,0,{1 << 63}"])
    def test_field_beyond_int64_raises(self, tmp_path, row):
        # the one difference from the per-row reader: the int64 columns
        # cannot hold such a field, so the trace is rejected, not shortened
        path = tmp_path / "t.csv"
        path.write_text(f"timestamp_us,op,lba,size_bytes\n{row}\n5,R,7,8192\n")
        with pytest.raises(ValueError, match="64-bit"):
            parse_canonical(path)

    def test_field_beyond_int64_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        path.write_text(f"timestamp_us,op,lba,size_bytes\n0,W,{1 << 63},8192\n")
        assert main(["trace-stats", str(path)]) == 2
        assert "64-bit" in capsys.readouterr().err

    def test_msr_field_beyond_int64_raises(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(f"0,web,0,Write,{1 << 72},4096,10\n")
        with pytest.raises(ValueError, match="64-bit"):
            parse_msr(path)


def _canonical_file(path, body):
    path.write_bytes(b"timestamp_us,op,lba,size_bytes\n" + body)
    return path


class TestBulkParseGate:
    """parse_canonical on the files its bulk reader's gate must admit or
    turn away, against the per-row reference."""

    @pytest.mark.parametrize("body", [
        b"5,W,0,8192\n6,R,16,4096\n",
        # comma counts that compensate, the last with every op byte where
        # a count of separators alone would look for one
        b"1,R,2\n3,W,4,5,6\n", b"3,W,4,5,6\n1,R,2\n7,W,8,9\n",
        b"1,W,2\n3,4,R,5,6\n",
        b"1234567890123456789,W,0,8192\n",  # 19 digits, within int64
        b"5,W,0000000000000000007,8192\n",
        b"-5,W,0,8192\n6,R,16,8192\n",
        b"+5,W,0,8192\n", b"5,W,+16,8192\n",
        b"5,W,0,0\n6,R,16,8192\n7,W,32,0\n",  # size 0: skipped
        b"",                                  # a header and no rows
        b"5,W,0,8192\n6,R,16,8192",           # no final newline
        b"5,W,0,8192\r\n6,R,16,8192\r\n", b"5,W,0,8192\r6,R,16,8192\r",
        b"5,W,0,8192\n\n6,R,16,8192\n",       # a blank line
        b"5, W,0,8192\n", b"5,W,0,8192 \n", b"5,RW,0,8192\n", b"5,,0,8192\n",
        b",W,0,8192\n", b"5,W,0,\n", b"5,w,0,8192\n", b'5,"W",0,8192\n',
        b"5,W,0,8192,\n", b"5,W,0\n",
    ])
    def test_matches_per_row_reader(self, tmp_path, body):
        path = _canonical_file(tmp_path / "t.csv", body)
        events, skipped = parse_canonical(path)
        assert (events.columns(), skipped) == reference_parse_canonical(path)

    def test_bad_row_in_a_later_chunk(self, tmp_path):
        rows = [b"%d,%s,%d,8192\n" % (i, (b"R", b"W")[i % 2], 16 * i)
                for i in range(CHUNK_BYTES // 10)]
        at = np.searchsorted(np.cumsum([len(r) for r in rows]),
                             CHUNK_BYTES + 100)
        rows[at] = b"5,W,-16,8192\n"
        path = _canonical_file(tmp_path / "t.csv", b"".join(rows))
        assert path.stat().st_size > 2 * CHUNK_BYTES
        events, skipped = parse_canonical(path)
        assert skipped == 1
        assert (events.columns(), skipped) == reference_parse_canonical(path)

    def test_parse_memory_does_not_grow_with_the_trace(self, tmp_path):
        # 200k rows in 4.8 MB, whose columns take 5 MB; the per-row reader
        # peaks at about 27 MB on this file
        rng = np.random.default_rng(0)
        pages = rng.integers(0, 1 << 17, 200_000).tolist()
        path = _canonical_file(tmp_path / "t.csv", b"".join(
            b"%d,%s,%d,8192\n" % (1000 * i, (b"R", b"W")[i % 3 > 0], 16 * p)
            for i, p in enumerate(pages)))
        tracemalloc.start()
        try:
            events, skipped = parse_canonical(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (len(events), skipped) == (200_000, 0)
        assert peak < 16 << 20


def reference_hotness_counts(rows, page_size):
    """Writes per written page of (timestamp_us, is_write, lba, size_bytes)
    rows, by the per-event loop hotness_cdf replaced."""
    sectors_per_page = page_size // SECTOR_BYTES
    counts = {}
    for _, is_write, lba, size in rows:
        if not is_write:
            continue
        for pg in range(lba // sectors_per_page,
                        (lba * SECTOR_BYTES + size + page_size - 1) // page_size):
            counts[pg] = counts.get(pg, 0) + 1
    return counts


def reference_hotness_cdf(rows, page_size):
    counts = reference_hotness_counts(rows, page_size)
    if not counts:
        return np.array([]), np.array([])
    writes = np.sort(np.fromiter(counts.values(), dtype=float))[::-1]
    return (np.arange(1, len(writes) + 1) / len(writes),
            np.cumsum(writes) / writes.sum())


class TestHotnessCdfProperty:
    @settings(max_examples=200)
    @given(rows=hst.lists(hst.tuples(
               hst.integers(0, 10 ** 6), hst.sampled_from([False, True, True]),
               hst.one_of(hst.integers(0, 200), hst.integers(0, 1 << 60)),
               hst.integers(1, 70_000)), max_size=40),
           page_size=hst.sampled_from([512, 3000, 4096, 8192, 16384]))
    def test_matches_per_event_loop(self, rows, page_size):
        got = hotness_cdf(trace_of(rows), page_size)
        want = reference_hotness_cdf(rows, page_size)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_page_smaller_than_sector_rejected(self):
        with pytest.raises(ValueError):
            hotness_cdf(Trace([0], [True], [0], [512]), page_size=256)


class TestHotnessCdfMemory:
    @pytest.mark.parametrize("rows, pages", [
        # one 4 GiB write: listing every page at once peaked at 20.5 MB
        ([(0, True, 0, 4 << 30)], 1 << 19),
        # the same 64 MiB written 64 times: 4 GiB of page writes
        ([(i, True, 0, 64 << 20) for i in range(64)], 1 << 13),
    ], ids=["one-4GiB-write", "64-rewrites-of-64MiB"])
    def test_peak_is_the_output_not_the_span(self, rows, pages):
        # the two float64 results take 16 bytes per written page
        trace = trace_of(rows)
        tracemalloc.start()
        try:
            got = hotness_cdf(trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got[0].size == pages
        assert peak < 16 * pages + (256 << 10)
        want = reference_hotness_cdf(rows, 8192)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


class TestPageSpans:
    def test_aligned_and_straddling_writes(self):
        trace = Trace([0, 1, 2], [True, False, True], [0, 40, 16],
                      [12288, 8192, 8192])
        first, count = trace.page_spans(8192)
        assert first.dtype == count.dtype == np.int64
        assert first.tolist() == [0, 2, 1]
        assert count.tolist() == [2, 2, 1]

    @settings(max_examples=200)
    @given(rows=hst.lists(hst.tuples(
               hst.just(0), hst.sampled_from([False, True]),
               hst.one_of(hst.integers(0, 200), hst.integers(0, (1 << 63) - 1)),
               hst.one_of(hst.integers(1, 70_000),
                          hst.integers(1, (1 << 63) - 1))), max_size=40),
           page_size=hst.sampled_from([512, 3000, 4096, 8192, 16384]))
    def test_matches_the_rule_on_python_ints(self, rows, page_size):
        first, count = trace_of(rows).page_spans(page_size)
        spp = page_size // SECTOR_BYTES
        want_first = [lba // spp for _, _, lba, _ in rows]
        want_stop = [-(-(lba * SECTOR_BYTES + size) // page_size)
                     for _, _, lba, size in rows]
        assert first.tolist() == want_first
        assert count.tolist() == [max(s - f, 0)
                                  for f, s in zip(want_first, want_stop)]


def reference_write_canonical(rows, path):
    """The per-row canonical writer that preceded the columnar Trace."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["timestamp_us", "op", "lba", "size_bytes"])
        for ts, is_write, lba, size in rows:
            w.writerow([ts, "W" if is_write else "R", lba, size])


def reference_trace_stats(rows, skipped, page_size):
    """trace-stats' standard output, by the per-event code it replaced."""
    writes = sum(1 for _, is_write, _, _ in rows if is_write)
    reads = len(rows) - writes
    dur_s = (rows[-1][0] - rows[0][0]) / 1e6 if len(rows) > 1 else 0.0
    bytes_w = sum(size for _, is_write, _, size in rows if is_write)
    out = [f"events={len(rows)} reads={reads} writes={writes}"
           f" skipped={skipped} duration_s={dur_s:.1f}"
           f" written_bytes={bytes_w}"]
    frac_pages, frac_writes = reference_hotness_cdf(rows, page_size)
    if frac_pages.size:
        for pct in (0.01, 0.05, 0.20):
            share = float(np.interp(pct, frac_pages, frac_writes))
            out.append(f"hottest {pct:.0%} of pages absorb {share:.1%} of writes")
    return "\n".join(out) + "\n"


class TestTraceStatsOutput:
    @pytest.mark.parametrize("page_size", [4096, 8192, 16384])
    def test_byte_identical_to_per_event_code(self, tmp_path, capsys, page_size):
        # 24 KiB events: each spans several pages, and straddles page
        # boundaries at 16 KiB
        trace = tmp_path / "t.csv"
        write_canonical(synth_hot(300, 40, 0.05, 0.9, 1 << 24, seed=5,
                                  page_size=24576, read_fraction=0.3), trace)
        columns, skipped = reference_parse_canonical(trace)
        rows = list(zip(*columns))
        canon = tmp_path / "canon.csv"
        rc = main(["trace-stats", str(trace), "--page-size", str(page_size),
                   "--canonical-out", str(canon)])
        assert rc == 0
        assert capsys.readouterr().out == reference_trace_stats(
            rows, skipped, page_size)
        want = tmp_path / "want.csv"
        reference_write_canonical(rows, want)
        assert canon.read_bytes() == want.read_bytes()
        assert trace.read_bytes() == want.read_bytes()
