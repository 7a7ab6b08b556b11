"""Workload traces: MSR-Cambridge ingestion, canonical CSV, hotness.

Canonical event: (timestamp_us, op, lba, size_bytes) with lba counted in
512-byte sectors and op in {"R", "W"}. A trace is held only as columns
(``Trace``), with op as the bool column ``is_write``.

Page-span rule: with P-byte pages, an event touches every page from
lba // (P // 512) up to, not including, ceil((lba * 512 + size_bytes) / P):
the pages a page-mapped FTL reads for a read and rewrites for a write,
read-modify-writing a page the write covers only in part. ``Trace.page_spans`` is the only place the rule
is written down; replay, HeatWatch sampling and trace statistics all
count pages through it.
"""

import csv

import numpy as np

SECTOR_BYTES = 512

CANONICAL_HEADER = ["timestamp_us", "op", "lba", "size_bytes"]


def check_page_size(page_size):
    """Raise ValueError unless a page is a positive whole number of sectors;
    with any other size the page-span rule can put a write on no page."""
    if page_size <= 0 or page_size % SECTOR_BYTES:
        raise ValueError(f"page size must be a positive multiple of "
                         f"{SECTOR_BYTES} bytes, not {page_size}")


class Trace:
    """A trace as a struct of arrays, one entry per event.

    Columns: int64 ``timestamp_us``, ``lba`` and ``size_bytes``, and bool
    ``is_write`` (op "W"; False is "R"). ``len`` is the event count.
    """

    __slots__ = ("timestamp_us", "is_write", "lba", "size_bytes")

    def __init__(self, timestamp_us, is_write, lba, size_bytes):
        try:
            self.timestamp_us = np.asarray(timestamp_us, dtype=np.int64)
            self.lba = np.asarray(lba, dtype=np.int64)
            self.size_bytes = np.asarray(size_bytes, dtype=np.int64)
        except OverflowError:
            raise ValueError("trace timestamp, lba and size must fit in "
                             "64-bit signed integers") from None
        self.is_write = np.asarray(is_write, dtype=bool)
        if not (self.timestamp_us.shape == self.is_write.shape
                == self.lba.shape == self.size_bytes.shape
                and self.lba.ndim == 1):
            raise ValueError("trace columns must be 1-D and of equal length")

    def columns(self):
        """The four columns as Python lists, in row order: timestamp_us,
        is_write, lba, size_bytes. Zipping these walks the trace row by
        row."""
        return (self.timestamp_us.tolist(), self.is_write.tolist(),
                self.lba.tolist(), self.size_bytes.tolist())

    def __len__(self):
        return self.lba.size

    def page_spans(self, page_size):
        """(first_page, page_count) of every event, as int64 arrays, by
        the page-span rule of the module docstring."""
        spp = page_size // SECTOR_BYTES
        if spp < 1:
            raise ValueError(f"page_size must be at least {SECTOR_BYTES} bytes")
        first = self.lba // spp
        # the ceiling less first, summed so that no partial sum overflows
        # int64 (512 * (lba // page_size) never exceeds first)
        hi, lo = np.divmod(self.lba, page_size)
        count = (SECTOR_BYTES * hi - first + self.size_bytes // page_size
                 + (SECTOR_BYTES * lo + self.size_bytes % page_size
                    + page_size - 1) // page_size)
        return first, np.maximum(count, 0)


def parse_msr(path):
    """Parse an MSR-Cambridge block trace.

    Columns: Timestamp (100 ns ticks), Hostname, DiskNumber, Type
    (Read/Write), Offset (bytes), Size (bytes), ResponseTime. Timestamps
    are rebased so the first event is 0. Returns (Trace, skipped) where
    skipped counts malformed rows. A timestamp, lba or size outside int64
    is a ValueError.
    """
    ts, is_write, lbas, sizes, skipped = [], [], [], [], 0
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
            ts.append((ticks - base) // 10)
            is_write.append(kind == "write")
            lbas.append(offset // SECTOR_BYTES)
            sizes.append(size)
    return Trace(ts, is_write, lbas, sizes), skipped


def write_canonical(trace, path):
    ts, is_write, lba, size = trace.columns()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CANONICAL_HEADER)
        w.writerows(zip(ts, ["W" if x else "R" for x in is_write], lba, size))


def parse_canonical(path):
    """Read a canonical trace; returns (Trace, skipped).

    Rows with a bad op, size <= 0, lba < 0, too few fields or a field
    int() rejects are skipped and counted. A timestamp, lba or size
    outside int64 is a ValueError.
    """
    ts, is_write, lbas, sizes, skipped = [], [], [], [], 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != CANONICAL_HEADER:
            raise ValueError("not a canonical trace: bad header")
        for row in reader:
            try:
                t, op, lba, size = int(row[0]), row[1], int(row[2]), int(row[3])
                if op not in ("R", "W") or size <= 0 or lba < 0:
                    raise ValueError
            except (ValueError, IndexError):
                skipped += 1
                continue
            ts.append(t)
            is_write.append(op == "W")
            lbas.append(lba)
            sizes.append(size)
    return Trace(ts, is_write, lbas, sizes), skipped


def hotness_cdf(trace, page_size=8192):
    """Write-concentration curve.

    Returns (page_fraction, write_fraction): after sorting pages by write
    count descending, the cumulative share of writes absorbed by the
    hottest x fraction of written pages. A write counts once on every
    page of its span (``Trace.page_spans``).
    """
    first, span = trace.page_spans(page_size)
    first, span = first[trace.is_write], span[trace.is_write]
    pages = np.repeat(first, span)
    pages += np.arange(pages.size) - np.repeat(np.cumsum(span) - span, span)
    counts = np.unique(pages, return_counts=True)[1]
    if not counts.size:
        return np.array([]), np.array([])
    writes = np.sort(counts.astype(float))[::-1]
    frac_pages = np.arange(1, len(writes) + 1) / len(writes)
    frac_writes = np.cumsum(writes) / writes.sum()
    return frac_pages, frac_writes
