"""Page-mapped flash translation layer with pools, GC, and refresh hooks.

State lives in flat numpy arrays indexed by physical page number (ppn) or
block id. Cold garbage collection is greedy (fewest valid pages, ties to
the lowest block id) and triggers when the free list drops to 2% of all
blocks. Hot-pool reclamation is strictly in write order: the oldest hot
block is demoted, its surviving pages rewritten cold.

Reclaim rule: only host writes reclaim. A block allocated for a host
write may first run demotion and GC; a block allocated for a gc, refresh
or demotion write never does, so reclaim cannot nest. Every relocation
(GC, demotion, hot-pool rotation, refresh) goes through _relocate.

Batched migration: _relocate moves the live pages of a list of blocks,
block by block, each into its pool, with one vectorized map/rmap remap
for the whole list. GC and demotion pass one block, since each victim
depends on the last; rotation passes the hot pool and a refresh pass its
due blocks. A short scalar loop, over the blocks and over the
destination blocks _fill yields, takes the destination pages in the
order one page write per live page, in ascending offset order, would
take them, and opens and closes blocks (firing on_block_closed) and
erases each source (firing on_block_erased) at the same points. An
erased source goes back on the free heap, so a later block's pages can
land on it; the remap clears every source page before it writes any
destination. No reclaim runs inside it, because its writes are never
host writes. If an allocation over-commits the drive part-way, the
remap of the pages already placed still runs, so the drive is left as
per-page writes leave it.

Host writes: host_writes writes an array of logical pages, each at its
own time, in order, and leaves the drive as one write per page would.
The replay sends no read here, since the drive models no read effect: a
read event only moves its clock (host_read serves tests). Without WARM
the pages go in runs (_write_run), each applied as one set of array
scatters, the last write of a page winning. A run first allocates the
cold open block if there is none, reclaiming as a one-page write would,
since reclaim can hand back a part-filled block. It then fills that
block and goes on into new cold blocks, popped from the free heap and
stamped with their first page's time, while ``len(free) >
gc_threshold``: a one-page write would allocate those blocks without a
reclaim. It stops at the first block that would need one, so the only
allocation in a run that can reclaim or over-commit comes before any of
its writes. With WARM the pages go in one loop, one route call per
write and the program step inline, and the write counts and WARM's
epoch pages are added when it ends or raises. It checks for a due
rotation only after the first write, a write that allocated (and so may
have reclaimed) and a tune, since nothing else in the loop erases a hot
block or lowers the threshold.

Scalar views: map_view, rmap_view, valid_count_view, write_ptr_view and
pool_view are memoryviews of map, rmap, valid_count, write_ptr and pool,
made once in __init__ over the same buffers, so a write through either
shows in both. The scalar paths (WARM's host_writes loop, host_read,
WARM's route, and the block bookkeeping of _fill, _allocate and _erase)
index the views, which read and write one element in about half the
time numpy scalar indexing takes, and which read as Python ints. The
vectorized paths use the arrays. No code rebinds these
arrays after __init__, since a rebound array would leave its view on the
old buffer.
A page is valid iff rmap holds its logical page; ``valid`` derives that
mask from rmap rather than keeping a second copy of it.
"""

import heapq

import numpy as np

from .warm import COLD, HOT

FREE, OPEN, CLOSED = 0, 1, 2

WRITE_KINDS = ("host", "gc", "refresh", "demotion")


def _joined(arrays):
    """The arrays (at least one) end to end; the one array itself if
    there is one."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


class Drive:
    def __init__(self, geom, warm=None, initial_pec=0):
        self.geom = geom
        nb, ppb = geom.total_blocks, geom.pages_per_block
        self.pages_per_block = ppb
        self.map = np.full(geom.logical_pages, -1, dtype=np.int64)
        self.rmap = np.full(nb * ppb, -1, dtype=np.int64)
        self.valid_count = np.zeros(nb, dtype=np.int32)
        self.pec = np.full(nb, initial_pec, dtype=np.int64)
        self.program_epoch = np.zeros(nb, dtype=np.float64)
        self.pool = np.zeros(nb, dtype=np.int8)
        self.state = np.zeros(nb, dtype=np.int8)
        self.write_ptr = np.zeros(nb, dtype=np.int32)
        # scalar views, see "Scalar views" above
        self.map_view = memoryview(self.map)
        self.rmap_view = memoryview(self.rmap)
        self.valid_count_view = memoryview(self.valid_count)
        self.write_ptr_view = memoryview(self.write_ptr)
        self.pool_view = memoryview(self.pool)
        self.free = list(range(nb))
        # popped lowest id first, whatever its wear; see rotate_hot_pool
        heapq.heapify(self.free)
        self.open_block = {COLD: None, HOT: None}
        self.warm = warm
        self.now = 0.0
        self.gc_threshold = max(2, -(-nb * 2 // 100))  # ceil(2%)
        self.writes = dict.fromkeys(WRITE_KINDS, 0)
        self.pool_writes = {COLD: 0, HOT: 0}
        self.refresh_writes_by_pool = {COLD: 0, HOT: 0}
        self.erases = 0
        self.reads = 0
        self.pool_blocks = {COLD: 0, HOT: 0}    # blocks not FREE, per pool

    # --- bookkeeping -------------------------------------------------------

    @property
    def valid(self):
        """Per-page validity mask: a fresh array, rmap >= 0."""
        return self.rmap >= 0

    @property
    def write_amplification(self):
        host = self.writes["host"]
        if host == 0:
            return 1.0
        return sum(self.writes.values()) / host

    # --- host interface ----------------------------------------------------

    def host_write(self, lba_page, now):
        self.host_writes(np.array([lba_page], dtype=np.int64),
                         np.array([now], dtype=np.float64))

    def host_writes(self, pages, times):
        """Host-write logical page ``pages[i]`` (an int64 array) at
        ``times[i]`` (a float array), in order; see "Host writes" above."""
        warm = self.warm
        if warm is None:
            done = 0
            while done < pages.size:
                done += self._write_run(pages[done:], times[done:])
            return
        route, open_block = warm.route, self.open_block
        map_, rmap = self.map_view, self.rmap_view
        valid_count, write_ptr = self.valid_count_view, self.write_ptr_view
        ppb = self.pages_per_block
        epoch, tune_at = warm.epoch_host_pages, warm.geom.logical_pages
        check_rotation = True
        written = hot = 0
        try:
            for page, now in zip(pages.tolist(), times.tolist()):
                self.now = now
                pool = route(self, page)
                blk = open_block[pool]
                if blk is None:
                    blk = self._allocate(pool, "host")
                    check_rotation = True
                ptr = write_ptr[blk]
                ppn = blk * ppb + ptr
                write_ptr[blk] = ptr + 1
                if ptr + 1 == ppb:
                    self._close(blk, pool)
                old = map_[page]
                if old >= 0:
                    valid_count[old // ppb] -= 1
                    rmap[old] = -1
                map_[page] = ppn
                rmap[ppn] = page
                valid_count[blk] += 1
                written += 1
                hot += pool  # COLD is 0 and HOT 1
                epoch += 1
                if epoch >= tune_at:
                    warm.tune(self, now)
                    epoch, check_rotation = 0, True
                if check_rotation and (warm.hot_erases_since_rotation
                                       >= warm.rotation_threshold):
                    self.rotate_hot_pool()
                check_rotation = False
        finally:
            self.writes["host"] += written
            self.pool_writes[HOT] += hot
            self.pool_writes[COLD] += written - hot
            warm.epoch_host_pages = epoch

    def _write_run(self, pages, times):
        """Host-write ``pages`` (a non-empty int64 array) in order, page i
        at ``times[i]``, into the cold open block (allocated first, with
        any reclaim, if there is none) and then into as many new cold
        blocks as open without a reclaim, with one last-writer pass and
        one set of scatters; returns how many were taken. For a drive
        without WARM; see "Host writes" above."""
        ppn = _joined(list(self._fill(COLD, "host", pages.size, times)))
        take = ppn.size
        pages = pages[:take]
        # the last write of each page in the run, and where it lands: keys
        # (page, position in the run) sort a page's writes in run order,
        # so the last of each group of equal pages is its last writer
        grouped, order = np.divmod(np.sort(pages * take + np.arange(take)),
                                   take)
        is_last = np.empty(take, dtype=bool)
        is_last[:-1] = grouped[1:] != grouped[:-1]
        is_last[-1] = True
        lba, new = grouped[is_last], ppn[order[is_last]]
        old = self.map[lba]
        old = old[old >= 0]
        self.rmap[old] = -1
        # _fill counted every write valid; an overwritten one is not
        stale = np.concatenate((old, ppn[order[~is_last]]))
        self.valid_count -= np.bincount(stale // self.pages_per_block,
                                        minlength=self.geom.total_blocks)
        self.map[lba] = new
        self.rmap[new] = lba
        return take

    def host_read(self, lba_page, now):
        """Returns (ppn, block age in seconds) or None if never written."""
        ppn = self.map_view[lba_page]
        if ppn < 0:
            return None
        blk = ppn // self.pages_per_block
        self.reads += 1
        return ppn, float(now - self.program_epoch[blk])

    # --- programming path --------------------------------------------------

    def _close(self, blk, pool):
        self.state[blk] = CLOSED
        self.open_block[pool] = None
        if self.warm:
            self.warm.on_block_closed(blk, pool)

    def _allocate(self, pool, kind):
        if kind == "host":  # the reclaim rule: only host writes reclaim
            if pool == HOT and self.warm:
                while (self.pool_blocks[HOT] >= self.warm.hot_budget_blocks
                       and self.warm.hot_closed):
                    self._demote_oldest_hot()
            if len(self.free) <= self.gc_threshold:
                self._collect_garbage()
            # reclaim may itself have opened a block for this pool; reuse
            # it rather than orphaning it half-written
            if self.open_block[pool] is not None:
                return self.open_block[pool]
        if not self.free:
            geom = self.geom
            raise ValueError(
                f"no free blocks: drive over-committed (capacity_bytes "
                f"{geom.capacity_bytes}, {geom.total_blocks} blocks, "
                f"over-provisioning op_fraction {geom.op_fraction}); "
                "give it more capacity or over-provisioning")
        blk = heapq.heappop(self.free)
        self.state[blk] = OPEN
        self.pool_view[blk] = pool
        self.write_ptr_view[blk] = 0
        self.program_epoch[blk] = self.now
        self.open_block[pool] = blk
        self.pool_blocks[pool] += 1
        return blk

    def _erase(self, blk):
        if self.valid_count_view[blk]:
            raise RuntimeError("erasing a block with valid pages")
        pool = self.pool_view[blk]
        self.pec[blk] += 1
        self.state[blk] = FREE
        self.write_ptr_view[blk] = 0
        self.erases += 1
        self.pool_blocks[pool] -= 1
        heapq.heappush(self.free, int(blk))
        if self.warm:
            self.warm.on_block_erased(blk, pool)

    def _fill(self, pool, kind, n, times=None):
        """Program n pages into pool where n one-page writes of ``kind``
        would put them, opening blocks through _allocate; yields the ppns
        taken in each destination block. It counts the writes, adds them
        to their blocks' valid counts and closes each block when full;
        the caller remaps. For a host run, ``times`` holds the pages' write
        times, and each block it opens is stamped with its first page's
        time. Past the run's first page it opens a block only while
        ``len(free) > gc_threshold``, so that no reclaim runs, and stops
        where a one-page write would reclaim."""
        ppb, write_ptr = self.pages_per_block, self.write_ptr_view
        done = 0
        while done < n:
            blk = self.open_block[pool]
            if blk is None:
                if times is not None:
                    if done and len(self.free) <= self.gc_threshold:
                        return
                    self.now = times.item(done)
                blk = self._allocate(pool, kind)
            ptr = write_ptr[blk]
            take = min(n - done, ppb - ptr)
            write_ptr[blk] = ptr + take
            self.valid_count_view[blk] += take
            self.writes[kind] += take
            self.pool_writes[pool] += take
            if kind == "refresh":
                self.refresh_writes_by_pool[pool] += take
            if ptr + take == ppb:
                self._close(blk, pool)
            done += take
            yield np.arange(blk * ppb + ptr, blk * ppb + ptr + take)

    def _relocate(self, blocks, pools, kind):
        """Rewrite the live pages of each closed block in ``blocks`` (block
        ids) into its pool in ``pools``, then erase it, block by block;
        one remap for them all (see "Batched migration" above)."""
        ppb, rmap = self.pages_per_block, self.rmap
        sources, segments = [], []
        try:
            for blk, pool in zip(blocks, pools):
                base = blk * ppb
                src = base + np.flatnonzero(rmap[base:base + ppb] >= 0)
                sources.append(src)
                for seg in self._fill(pool, kind, src.size):
                    segments.append(seg)
                    self.valid_count_view[blk] -= seg.size
                self._erase(blk)
        finally:
            # the pages placed so far, also when an allocation over-commits
            if segments:
                dest = _joined(segments)
                old = _joined(sources)[:dest.size]
                moved = rmap[old]
                rmap[old] = -1
                self.map[moved] = dest
                rmap[dest] = moved

    # --- garbage collection --------------------------------------------------

    def _collect_garbage(self):
        while len(self.free) <= self.gc_threshold:
            victim = self._pick_cold_victim()
            if victim is None or (
                    self.valid_count[victim] >= self.pages_per_block):
                # cold pool has nothing reclaimable; the invalid space
                # must be sitting in hot blocks, so demote one
                if self.warm and self.warm.hot_closed:
                    self._demote_oldest_hot()
                    continue
                break
            self._relocate((victim,), (COLD,), "gc")

    def _pick_cold_victim(self):
        # argmin takes the first minimum, so ties go to the lowest id
        ppb = self.pages_per_block
        key = np.where((self.state == CLOSED) & (self.pool == COLD),
                       self.valid_count, ppb + 1)
        victim = int(np.argmin(key))
        return None if key[victim] == ppb + 1 else victim

    def _demote_oldest_hot(self):
        blk = self.warm.hot_closed[0]
        n_live = int(self.valid_count[blk])
        self._relocate((blk,), (COLD,), "demotion")
        self.warm.demotions += n_live

    def rotate_hot_pool(self):
        """Move the hot pool's live pages onto blocks popped from the free
        heap. The heap gives the lowest free block id, not the least worn
        block, and the blocks this rotation erases go back on it, so the
        next rotation can move the hot data back onto them."""
        hot = list(self.warm.hot_closed)
        self._relocate(hot, (HOT,) * len(hot), "gc")
        self.warm.hot_erases_since_rotation = 0

    # --- refresh --------------------------------------------------------------

    def refresh_sweep(self, now, period_s, include_hot=False):
        """Rewrite-in-place every closed block older than its period.

        period_s is one period for all blocks or one per block (seconds;
        inf means never). Returns blocks refreshed. Hot-pool blocks are
        exempt unless include_hot: their data turns over faster than any
        refresh period, so refreshing them only burns cycles.

        The blocks are chosen up front. That equals checking each block
        at its turn: the pass erases only blocks it has already visited,
        in ascending id order, and its own writes never reclaim, so no
        block still to come changes state, age, wear or valid count.
        They move in one _relocate call, so in one map/rmap remap, each
        into its own pool; a block erased early in the pass can take a
        later block's pages. A pass that over-commits the drive part-way
        raises ValueError and leaves it as one sweep per block would.
        """
        self.now = now
        mask = (self.state == CLOSED) & (self.valid_count > 0)
        mask &= (now - self.program_epoch) >= period_s
        if not include_hot:
            mask &= self.pool == COLD
        blocks = np.flatnonzero(mask)
        self._relocate(blocks.tolist(), self.pool[blocks].tolist(),
                       "refresh")
        return int(blocks.size)

    # --- audit -----------------------------------------------------------------

    def audit(self):
        ppb = self.pages_per_block
        live = np.flatnonzero(self.map >= 0)
        assert np.array_equal(self.rmap[self.map[live]], live), "map/rmap mismatch"
        valid = self.valid.reshape(-1, ppb)
        assert int(valid.sum()) == live.size, "orphan valid pages"
        assert np.array_equal(valid.sum(axis=1), self.valid_count), \
            "valid_count drift"
        assert not valid[self.state == FREE].any()
        open_ids = set(np.flatnonzero(self.state == OPEN).tolist())
        assert open_ids == {b for b in self.open_block.values() if b is not None}, \
            "orphaned open blocks"
        for pool, n in self.pool_blocks.items():
            assert n == np.count_nonzero((self.state != FREE) & (self.pool == pool)), \
                "pool block count drift"
        assert (self.write_ptr[self.state == CLOSED] == ppb).all(), \
            "closed block not full"
        return True
