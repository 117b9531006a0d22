#!/usr/bin/env python3
"""Association-rule mining — the paper's ``dmine`` application, live.

Generates a synthetic retail dataset, serializes it into 128 KB blocks on
the application node's (aged, fragmented) disk, and runs a real Apriori
through the region-management library with the first-in policy.  Two
back-to-back "runs" demonstrate dmine's signature behaviour: run 1 pays
the disk and populates remote memory; run 2 re-finds every block in the
cluster and avoids the disk entirely.

Run:  python examples/association_mining.py
"""

import numpy as np

from repro.core import DodoConfig
from repro.exp.platform import MB, Platform, PlatformParams
from repro.sim import Simulator
from repro.storage.filesystem import FsParams
from repro.workloads import (Apriori, BLOCK_SIZE, DmineParams,
                             decode_block, encode_blocks,
                             generate_transactions)

PARAMS = DmineParams(n_transactions=24000, avg_items=12, n_items=200,
                     n_patterns=12, pattern_prob=0.4, min_support=0.03)


def mine_once(platform, fh, data_len, run_label):
    """One dmine process: fresh library + region cache, mine, detach."""
    sim = platform.sim
    cache = platform.region_cache(policy="first-in",
                                  local_bytes=256 * 1024)
    apriori = Apriori(PARAMS)
    crds = {}

    def scan():
        blocks = []
        for off in range(0, data_len, BLOCK_SIZE):
            if off not in crds:
                crd, err = yield from cache.copen(BLOCK_SIZE, fh.fd, off)
                assert err == 0
                crds[off] = crd
            _, err, blk = yield from cache.cread(crds[off], 0, BLOCK_SIZE)
            assert err == 0
            blocks.append(decode_block(blk))
        return blocks

    def mine():
        t0 = sim.now
        apriori.frequent[1] = apriori.count_pass((yield from scan()), k=1)
        k = 2
        while k <= PARAMS.max_itemset_len and apriori.frequent[k - 1]:
            cands = apriori.gen_candidates(k)
            if not cands:
                break
            apriori.frequent[k] = apriori.count_pass(
                (yield from scan()), cands, k=k)
            k += 1
        elapsed = sim.now - t0
        # leave every region in remote memory for the next run
        yield from cache.detach(persist=True)
        return elapsed

    disk_before = platform.app.disk.stats.count("read.bytes")
    elapsed = sim.run(until=sim.process(mine()))
    disk_read = platform.app.disk.stats.count("read.bytes") - disk_before
    hits = cache.stats
    print(f"{run_label}: {elapsed:7.2f} s virtual, "
          f"disk read {int(disk_read) >> 10:5d} KB, "
          f"remote hits {int(hits.count('cread.remote_hits')):4d}, "
          f"local hits {int(hits.count('cread.local_hits')):4d}")
    return apriori.frequent, elapsed


def main() -> None:
    rng = np.random.default_rng(21)
    txns = generate_transactions(rng, PARAMS)
    data = encode_blocks(txns)
    print(f"dataset: {len(txns)} transactions, {len(data) >> 10} KB in "
          f"{len(data) // BLOCK_SIZE} blocks of 128 KB\n")

    sim = Simulator(seed=3)
    platform = Platform(sim, PlatformParams(
        n_memory_hosts=4, imd_pool_bytes=2 * MB,
        local_cache_bytes=256 * 1024, app_fs_cache_dodo=256 * 1024,
        disk_capacity_bytes=256 * MB,
        fs_params=FsParams(extent_bytes=BLOCK_SIZE, scatter=True)),
        dodo=True, config=DodoConfig(transport="unet"))
    fs = platform.app.fs
    fs.create("retail", size=len(data))
    fh = fs.open("retail", "r+")

    def load():
        yield fs.write(fh, 0, len(data), data)
        yield fs.fsync(fh)

    sim.run(until=sim.process(load()))

    freq1, t1 = mine_once(platform, fh, len(data), "run 1 (cold)")
    freq2, t2 = mine_once(platform, fh, len(data), "run 2 (remote)")
    assert freq1 == freq2

    print(f"\nrun 2 speedup over run 1: {t1 / t2:.2f}x "
          "(regions persisted across runs)")
    top = sorted(freq2.get(3, freq2[2]).items(),
                 key=lambda kv: -kv[1])[:5]
    print("top frequent itemsets:")
    for items, count in top:
        print(f"  {items}: {count} transactions")


if __name__ == "__main__":
    main()
