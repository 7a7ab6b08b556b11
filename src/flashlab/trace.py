"""Workload traces: MSR-Cambridge ingestion, canonical CSV, hotness.

Canonical event: (timestamp_us, op, lba, size_bytes) with lba counted in
512-byte sectors and op in {"R", "W"}. A trace is held only as columns
(``Trace``), with op as the bool column ``is_write``. Time 0 of a run is
the trace's first event: ``parse_msr`` rebases its timestamps to it, and
``simulate`` rebases a canonical trace's, so a replay's days and the
heatwatch temperature profile's phase count from there.

Page-span rule: with P-byte pages, an event touches every page from
lba // (P // 512) up to, not including, ceil((lba * 512 + size_bytes) / P):
the pages a page-mapped FTL reads for a read and rewrites for a write,
read-modify-writing a page the write covers only in part.
``Trace.page_spans`` is the only place the rule is written down; replay,
HeatWatch sampling and trace statistics all count pages through it. Replay
(of write spans only) and HeatWatch sampling list the pages with
``page_windows``, at most PAGE_WINDOW of them at a time; trace statistics
list none.

Bulk canonical reader: ``parse_canonical`` reads the body as bytes,
CHUNK_BYTES at a time cut at line ends, so its transient memory does not
grow with the trace. A gate made of separator positions, with no regex,
admits a chunk only if every line is exactly four fields ended by a
newline: the second field one byte, ``R`` or ``W``, and each other field
1 to MAX_DIGITS decimal digits, which always fit int64. An admitted chunk
becomes int64 in one conversion, with the ops mapped to 0 and 1; rows of
size 0 are dropped and counted as skipped. Any other file is read again by
the per-row reader, which decides every case the gate does not admit: a
sign, a space, a quote, CRLF or a lone CR, a blank line, a missing final
newline, extra or missing fields and longer numbers. Both readers give
the same columns and skip count.
"""

import csv

import numpy as np

SECTOR_BYTES = 512
PAGE_SIZE = 8192        # bytes per page, the default of every workflow

CANONICAL_HEADER = ["timestamp_us", "op", "lba", "size_bytes"]
CHUNK_BYTES = 1 << 20   # the bulk reader's read size
MAX_DIGITS = 18         # a number of this many digits always fits int64
PAGE_WINDOW = 1 << 16   # most pages a walk over page spans lists at once
_HEADER_LINE = (",".join(CANONICAL_HEADER) + "\n").encode()
_COMMA, _NEWLINE, _ZERO = b",\n0"
_READ, _WRITE = b"RW"
_LINE_SEPARATORS = np.array([_COMMA, _COMMA, _COMMA, _NEWLINE], dtype=np.uint8)
_TO_NUMBERS = bytes.maketrans(b"RW\n", b"01,")


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


def page_windows(first, count, size):
    """Every page of every (first, count) span, span after span, in windows
    of at most ``size`` pages, each listed in O(its pages): yields (spans,
    pages), the span index of each page of the window and the page."""
    ends = np.cumsum(count)
    total = int(ends[-1]) if ends.size else 0
    for start in range(0, total, size):
        stop = min(start + size, total)
        # spans lo to hi hold the window, n[k] pages of span lo + k; span j
        # holds positions ends[j] - count[j] on, position p being page
        # first[j] + p - (ends[j] - count[j])
        lo, hi = np.searchsorted(ends, (start, stop - 1), "right").tolist()
        j = slice(lo, hi + 1)
        n = np.diff(np.minimum(ends[j], stop), prepend=start)
        yield (np.repeat(np.arange(lo, hi + 1), n),
               np.repeat(first[j] - ends[j] + count[j], n)
               + np.arange(start, stop))


def parse_msr(path):
    """Parse an MSR-Cambridge block trace.

    Columns: Timestamp (100 ns ticks), Hostname, DiskNumber, Type
    (Read/Write), Offset (bytes), Size (bytes), ResponseTime. Timestamps
    are rebased so the first event is 0. Returns (Trace, skipped) where
    skipped counts malformed rows. A timestamp, lba or size outside int64
    is a ValueError.
    """
    with open(path, newline="") as fh:
        (ticks, *rest), skipped = _read_rows(csv.reader(fh), _msr_event)
    return Trace([(t - ticks[0]) // 10 for t in ticks], *rest), skipped


def _msr_event(row):
    ticks, kind = int(row[0]), row[3].strip().lower()
    offset, size = int(row[4]), int(row[5])
    if kind not in ("read", "write") or offset < 0 or size <= 0:
        raise ValueError
    return ticks, kind == "write", offset // SECTOR_BYTES, size


def _read_rows(rows, event):
    """The columns of the (time, is_write, lba, size) tuples ``event`` makes
    of ``rows``, and how many rows it raised ValueError or IndexError on."""
    events, skipped = [], 0
    for row in rows:
        try:
            events.append(event(row))
        except (ValueError, IndexError):
            skipped += 1
    return list(zip(*events)) or [()] * 4, skipped


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
    outside int64 is a ValueError. The bulk reader of the module docstring
    reads every file its gate admits; the per-row reader reads the rest.
    """
    with open(path, "rb") as fh:
        chunks = _bulk_chunks(fh) if fh.readline() == _HEADER_LINE else None
    if chunks is None:  # the per-row reader
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != CANONICAL_HEADER:
                raise ValueError("not a canonical trace: bad header")
            columns, skipped = _read_rows(reader, _canonical_event)
        return Trace(*columns), skipped
    if not chunks:  # a header and no rows
        chunks = [(np.zeros(0, dtype=np.int64),) * 4]
    ts, op, lba, size = (np.concatenate(col) for col in zip(*chunks))
    keep = size != 0
    skipped = int(keep.size - np.count_nonzero(keep))
    if skipped:
        ts, op, lba, size = ts[keep], op[keep], lba[keep], size[keep]
    return Trace(ts, op == 1, lba, size), skipped


def _bulk_chunks(fh):
    """The rest of the file as the columns of one chunk after another, or
    None as soon as one chunk fails the gate or the file does not end in
    a newline."""
    chunks, tail = [], b""
    while True:
        data = fh.read(CHUNK_BYTES)
        if not data:
            return None if tail else chunks
        data = tail + data
        end = data.rfind(b"\n") + 1
        if not end:  # no line ends in a chunk: no line can pass the gate
            return None
        columns = _gated_columns(data[:end])
        if columns is None:
            return None
        chunks.append(columns)
        tail = data[end:]


def _gated_columns(buf):
    """(timestamp_us, op, lba, size_bytes) int64 columns, op 0 for "R" and
    1 for "W", of whole lines ``buf``; None unless the gate of the module
    docstring admits every line."""
    b = np.frombuffer(buf, dtype=np.uint8)
    seps = np.flatnonzero((b == _COMMA) | (b == _NEWLINE))
    if seps.size % 4 or not (b[seps].reshape(-1, 4) == _LINE_SEPARATORS).all():
        return None
    # every line now ends after exactly three commas; check its fields
    width = (np.diff(seps, prepend=-1) - 1).reshape(-1, 4)
    numeric = width[:, [0, 2, 3]]
    ops = b[seps[1::4] - 1]
    if not ((width[:, 1] == 1).all() and ((ops == _READ) | (ops == _WRITE)).all()
            and numeric.min() >= 1 and numeric.max() <= MAX_DIGITS
            # every byte that is not a separator or an op is a digit
            and np.count_nonzero((b - _ZERO) < 10)
            == b.size - seps.size - ops.size):
        return None
    values = np.fromstring(buf[:-1].translate(_TO_NUMBERS), dtype=np.int64,
                           sep=",")
    return values[0::4], values[1::4], values[2::4], values[3::4]


def _canonical_event(row):
    t, op, lba, size = int(row[0]), row[1], int(row[2]), int(row[3])
    if op not in ("R", "W") or size <= 0 or lba < 0:
        raise ValueError
    return t, op == "W", lba, size


def hotness_cdf(trace, page_size=PAGE_SIZE):
    """Write-concentration curve.

    Returns (page_fraction, write_fraction): after sorting pages by write
    count descending, the cumulative share of writes absorbed by the
    hottest x fraction of written pages. A write counts once on every
    page of its span (``Trace.page_spans``).

    No page is listed: a page's write count is the number of write spans
    that cover it, constant between span ends, so a sweep over the sorted
    span ends gives each count with the number of pages that have it.
    Memory grows with the events and the output, not with the spans.
    """
    first, span = trace.page_spans(page_size)
    w = trace.is_write
    ends = np.concatenate((first[w], first[w] + span[w]))
    order = np.argsort(ends)
    # the coverage after each end, which holds up to the next end
    cover = np.cumsum(np.where(order < ends.size // 2, 1, -1))[:-1]
    pages = np.diff(ends[order])
    runs = (cover > 0) & (pages > 0)
    cover, pages = cover[runs], pages[runs]
    hottest = np.argsort(-cover)
    writes = np.repeat(cover[hottest].astype(float), pages[hottest])
    if not writes.size:
        return np.array([]), np.array([])
    # in place, so that at most the two results are held at once
    total = writes.sum()
    frac_writes = np.cumsum(writes, out=writes)
    frac_writes /= total
    frac_pages = np.arange(1.0, writes.size + 1)
    frac_pages /= writes.size
    return frac_pages, frac_writes
