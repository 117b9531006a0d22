"""``dmine`` — association-rule mining over retail data (Section 5.2.1).

The paper mines 10 million transactions (average size 20 items, maximal
potentially-frequent set size 3 — the Agrawal–Srikant workload) from a
1 GB dataset with a *multi-scan* access pattern and 128 KB reads, run
under the first-in replacement policy.

This module provides the real thing, scaled:

* an IBM-Quest-style transaction generator with embedded frequent
  patterns, serialized into self-contained 128 KB blocks;
* a from-scratch Apriori implementation whose passes scan the dataset
  through the region-management library (or plain FS reads for the
  baseline), decoding and counting actual bytes in functional mode;
* a trace generator for the Figure 7 benchmark, which replays dmine's
  I/O pattern (multi-pass sequential 128 KB reads with per-block compute)
  without the Python-side counting cost.

The dmine dataset lives on an *aged* disk region (scattered extents, see
DESIGN.md): the paper's measured dmine speedups (2.6/3.2) are only
reachable if its baseline reads pay seeks, which a freshly-written
contiguous file would not.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional

import numpy as np

from repro.workloads.app import TraceRequest

BLOCK_SIZE = 128 * 1024
_HEADER = struct.Struct("<I")  # transactions in this block
_TXN_HEADER = struct.Struct("<I")  # items in this transaction
_ITEM = struct.Struct("<I")


@dataclass(frozen=True)
class DmineParams:
    """Workload knobs (paper values, scaled by choosing n_transactions)."""

    n_transactions: int = 20_000
    avg_items: int = 20
    n_items: int = 1000
    #: number of embedded potentially-frequent patterns and their size
    n_patterns: int = 40
    pattern_len: int = 3
    #: probability a transaction contains some embedded pattern
    pattern_prob: float = 0.35
    #: minimum support as a fraction of transactions
    min_support: float = 0.02
    max_itemset_len: int = 3


def generate_transactions(rng: np.random.Generator,
                          params: DmineParams) -> list[list[int]]:
    """Synthetic retail transactions with planted frequent patterns."""
    patterns = [sorted(rng.choice(params.n_items, size=params.pattern_len,
                                  replace=False).tolist())
                for _ in range(params.n_patterns)]
    txns = []
    for _ in range(params.n_transactions):
        size = max(1, int(rng.poisson(params.avg_items)))
        items = set(rng.integers(0, params.n_items,
                                 size=size).tolist())
        if rng.random() < params.pattern_prob:
            items.update(patterns[int(rng.integers(0, len(patterns)))])
        txns.append(sorted(items))
    return txns


def encode_blocks(txns: Iterable[list[int]]) -> bytes:
    """Serialize transactions into self-contained BLOCK_SIZE blocks.

    Each block: u32 transaction count, then [u32 n, n * u32 item] records,
    zero-padded to the block size so every 128 KB read decodes alone.
    """
    blocks = []
    cur = bytearray(_HEADER.size)
    count = 0
    for txn in txns:
        rec = _TXN_HEADER.pack(len(txn)) + b"".join(
            _ITEM.pack(i) for i in txn)
        if len(cur) + len(rec) > BLOCK_SIZE:
            _HEADER.pack_into(cur, 0, count)
            cur.extend(b"\x00" * (BLOCK_SIZE - len(cur)))
            blocks.append(bytes(cur))
            cur = bytearray(_HEADER.size)
            count = 0
        cur.extend(rec)
        count += 1
    if count:
        _HEADER.pack_into(cur, 0, count)
        cur.extend(b"\x00" * (BLOCK_SIZE - len(cur)))
        blocks.append(bytes(cur))
    return b"".join(blocks)


def decode_block(block: bytes) -> list[list[int]]:
    """Inverse of :func:`encode_blocks` for one block."""
    (count,) = _HEADER.unpack_from(block, 0)
    off = _HEADER.size
    txns = []
    for _ in range(count):
        (n,) = _TXN_HEADER.unpack_from(block, off)
        off += _TXN_HEADER.size
        items = list(struct.unpack_from(f"<{n}I", block, off))
        off += n * _ITEM.size
        txns.append(items)
    return txns


class Apriori:
    """Classic Apriori over a block-scan interface.

    Each pass consumes every block once (the multi-scan pattern); the
    caller supplies the scan as an iterator of decoded blocks, which is
    where the I/O system under test plugs in.
    """

    def __init__(self, params: DmineParams):
        self.params = params
        self.min_count = max(1, int(params.min_support
                                    * params.n_transactions))
        #: frequent itemsets by size: {k: {itemset_tuple: count}}
        self.frequent: dict[int, dict[tuple, int]] = {}

    # -- pass logic -------------------------------------------------------------
    def count_pass(self, blocks: Iterable[list[list[int]]],
                   candidates: Optional[set[tuple]] = None,
                   k: int = 1) -> dict[tuple, int]:
        """One scan: count 1-itemsets (k=1) or the given k-candidates."""
        counts: dict[tuple, int] = {}
        for txns in blocks:
            for txn in txns:
                if k == 1:
                    for item in txn:
                        t = (item,)
                        counts[t] = counts.get(t, 0) + 1
                else:
                    relevant = [i for i in txn
                                if (i,) in self.frequent[1]]
                    if len(relevant) < k:
                        continue
                    for combo in combinations(relevant, k):
                        if candidates is not None and combo not in candidates:
                            continue
                        counts[combo] = counts.get(combo, 0) + 1
        return {t: c for t, c in counts.items() if c >= self.min_count}

    def gen_candidates(self, k: int) -> set[tuple]:
        """Join step: (k-1)-frequent sets sharing a (k-2)-prefix, pruned."""
        prev = list(self.frequent[k - 1])
        cands = set()
        for i in range(len(prev)):
            for j in range(i + 1, len(prev)):
                a, b = prev[i], prev[j]
                if a[:-1] == b[:-1]:
                    cand = tuple(sorted(set(a) | set(b)))
                    if len(cand) == k and all(
                            sub in self.frequent[k - 1]
                            for sub in combinations(cand, k - 1)):
                        cands.add(cand)
        return cands

    def run(self, scan_factory) -> dict[int, dict[tuple, int]]:
        """Plain (non-simulated) driver: ``scan_factory()`` returns a
        fresh block iterator per pass.  Used by tests as the reference."""
        self.frequent[1] = self.count_pass(scan_factory(), k=1)
        k = 2
        while k <= self.params.max_itemset_len and self.frequent[k - 1]:
            cands = self.gen_candidates(k)
            if not cands:
                break
            self.frequent[k] = self.count_pass(scan_factory(), cands, k=k)
            k += 1
        return self.frequent


def brute_force_frequent(txns: list[list[int]],
                         params: DmineParams) -> dict[int, dict[tuple, int]]:
    """Reference implementation: direct counting, for correctness tests."""
    min_count = max(1, int(params.min_support * params.n_transactions))
    out: dict[int, dict[tuple, int]] = {}
    for k in range(1, params.max_itemset_len + 1):
        counts: dict[tuple, int] = {}
        for txn in txns:
            for combo in combinations(sorted(set(txn)), k):
                counts[combo] = counts.get(combo, 0) + 1
        out[k] = {t: c for t, c in counts.items() if c >= min_count}
    return out


def dmine_trace(dataset_bytes: int, n_passes: int,
                compute_per_block_s: float = 2.0e-3,
                run_index: int = 0) -> list[TraceRequest]:
    """The Figure 7 dmine I/O trace: ``n_passes`` sequential scans of the
    dataset in 128 KB reads with constant per-block compute.

    ``run_index`` only matters for bookkeeping: dmine keeps its regions
    across runs, so the harness reuses one platform for consecutive runs.
    """
    trace = []
    for _ in range(n_passes):
        for off in range(0, dataset_bytes, BLOCK_SIZE):
            trace.append(TraceRequest(
                kind="read", offset=off,
                length=min(BLOCK_SIZE, dataset_bytes - off),
                compute_s=compute_per_block_s))
    return trace
