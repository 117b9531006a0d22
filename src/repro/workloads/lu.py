"""``lu`` — out-of-core dense LU decomposition (Section 5.2.1).

The paper factors an 8192x8192 double-precision matrix (536 MB) stored in
8 files, working on 64-column slabs: a compute-bound application (only 9%
of its time is I/O) with a *triangle-scan* read pattern — factoring slab
``j`` re-reads every earlier slab — and large requests (12 KB-516 KB,
330 KB average), run under the first-in replacement policy.

Provided here:

* a real out-of-core **left-looking blocked LU** (no pivoting; tests use
  diagonally dominant matrices) that stores column slabs in a backing
  file and moves them through the region-management library or plain FS
  reads, verifying ``L @ U == A`` in functional mode;
* a trace generator for the Figure 7 benchmark: the same triangle-scan
  request stream with per-update compute times derived from the block
  flop counts, calibrated so the baseline spends ~9% of its time in I/O.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.workloads.app import TraceRequest


@dataclass(frozen=True)
class LuParams:
    """Matrix geometry (paper: n=8192, slab_cols=64 => 128 slabs)."""

    n: int = 256
    slab_cols: int = 32

    def __post_init__(self) -> None:
        if self.n % self.slab_cols:
            raise ValueError("n must be a multiple of slab_cols")

    @property
    def n_slabs(self) -> int:
        return self.n // self.slab_cols

    @property
    def slab_bytes(self) -> int:
        return self.n * self.slab_cols * 8

    @property
    def matrix_bytes(self) -> int:
        return self.n * self.n * 8


def make_test_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """A well-conditioned matrix safe for LU without pivoting."""
    a = rng.random((n, n))
    a += np.eye(n) * n  # strongly diagonally dominant
    return a


def lu_factor_slabs(a: np.ndarray, slab_cols: int) -> np.ndarray:
    """In-memory reference: blocked left-looking LU, packed LU form."""
    lu = a.copy()
    n = a.shape[0]
    for j0 in range(0, n, slab_cols):
        j1 = j0 + slab_cols
        # apply updates from all earlier slabs
        for k0 in range(0, j0, slab_cols):
            k1 = k0 + slab_cols
            lkk = np.tril(lu[k0:k1, k0:k1], -1) + np.eye(slab_cols)
            lu[k0:k1, j0:j1] = np.linalg.solve(lkk, lu[k0:k1, j0:j1])
            lu[k1:, j0:j1] -= lu[k1:, k0:k1] @ lu[k0:k1, j0:j1]
        # factor the diagonal block and the panel below it
        for p in range(j0, j1):
            lu[p + 1:, p] /= lu[p, p]
            lu[p + 1:, j0 + (p - j0) + 1:j1] -= np.outer(
                lu[p + 1:, p], lu[p, p + 1:j1])
    return lu


def unpack_lu(lu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a packed in-place LU factorization into (L, U) factors."""
    l = np.tril(lu, -1) + np.eye(lu.shape[0])
    u = np.triu(lu)
    return l, u


class OutOfCoreLU:
    """Slab-at-a-time LU against a backing file through cread/cwrite.

    The matrix lives column-slab-major in one backing file (the paper
    used 8 files; one file with slab-aligned regions exercises the same
    region keys and I/O sizes).  Only two slabs are in application memory
    at once — slab ``j`` being built and slab ``k`` streaming past — so
    memory traffic matches the out-of-core algorithm.
    """

    def __init__(self, platform, params: LuParams, use_dodo: bool,
                 policy: str = "first-in", dataset_name: str = "matrix"):
        self.platform = platform
        self.params = params
        self.use_dodo = use_dodo
        self.fs = platform.app.fs
        if not self.fs.exists(dataset_name):
            self.fs.create(dataset_name, size=params.matrix_bytes)
        self.fh = self.fs.open(dataset_name, "r+")
        self.cache = None
        if use_dodo:
            self.cache = platform.region_cache(policy=policy)
        self._crds: dict[int, int] = {}

    # -- slab I/O ----------------------------------------------------------------
    def _slab_offset(self, j: int) -> int:
        return j * self.params.slab_bytes

    def _crd(self, j: int):
        crd = self._crds.get(j)
        if crd is None:
            crd, err = yield from self.cache.copen(
                self.params.slab_bytes, self.fh.fd, self._slab_offset(j))
            if err != 0:
                raise RuntimeError(f"copen slab {j}: errno {err}")
            self._crds[j] = crd
        return crd

    def read_slab(self, j: int):
        """Process body: slab ``j`` as an (n, slab_cols) array."""
        p = self.params
        if self.use_dodo:
            crd = yield from self._crd(j)
            n, err, data = yield from self.cache.cread(crd, 0, p.slab_bytes)
            if err != 0:
                raise RuntimeError(f"cread slab {j}: errno {err}")
        else:
            n, data = yield self.fs.read(
                self.fh, self._slab_offset(j), p.slab_bytes)
        if data is None:
            return None
        return np.frombuffer(data, dtype=np.float64).reshape(
            p.n, p.slab_cols).copy()

    def write_slab(self, j: int, slab):
        p = self.params
        data = None if slab is None else slab.astype(np.float64).tobytes()
        if self.use_dodo:
            crd = yield from self._crd(j)
            _, err = yield from self.cache.cwrite(crd, 0, p.slab_bytes, data)
            if err != 0:
                raise RuntimeError(f"cwrite slab {j}: errno {err}")
        else:
            yield self.fs.write(self.fh, self._slab_offset(j),
                                p.slab_bytes, data)

    def load_matrix(self, a: np.ndarray):
        """Process body: write the input matrix into the backing file."""
        p = self.params
        for j in range(p.n_slabs):
            yield from self.write_slab(
                j, np.ascontiguousarray(a[:, j * p.slab_cols:
                                          (j + 1) * p.slab_cols]))

    def factor(self):
        """Process body: the triangle-scan factorization.

        Returns the packed LU matrix (functional mode) or None.
        """
        p = self.params
        b = p.slab_cols
        for j in range(p.n_slabs):
            slab_j = yield from self.read_slab(j)
            j0 = j * b
            for k in range(j):  # triangle scan: re-read earlier slabs
                slab_k = yield from self.read_slab(k)
                if slab_j is None or slab_k is None:
                    continue
                k0 = k * b
                lkk = np.tril(slab_k[k0:k0 + b, :], -1) + np.eye(b)
                slab_j[k0:k0 + b, :] = np.linalg.solve(
                    lkk, slab_j[k0:k0 + b, :])
                slab_j[k0 + b:, :] -= slab_k[k0 + b:, :] \
                    @ slab_j[k0:k0 + b, :]
            if slab_j is not None:
                for pcol in range(b):
                    prow = j0 + pcol
                    piv = slab_j[prow, pcol]
                    slab_j[prow + 1:, pcol] /= piv
                    slab_j[prow + 1:, pcol + 1:] -= np.outer(
                        slab_j[prow + 1:, pcol], slab_j[prow, pcol + 1:])
            yield from self.write_slab(j, slab_j)
        return (yield from self.assemble()) \
            if self.platform.config.store_payload else None

    def assemble(self):
        """Process body: read all slabs back into one packed LU matrix."""
        p = self.params
        out = np.empty((p.n, p.n))
        for j in range(p.n_slabs):
            slab = yield from self.read_slab(j)
            out[:, j * p.slab_cols:(j + 1) * p.slab_cols] = slab
        return out


def lu_trace(params: LuParams, flops_per_s: float = 50e6
             ) -> list[TraceRequest]:
    """The Figure 7 lu I/O trace: triangle-scan slab reads with compute
    time from the block flop counts.

    ``flops_per_s`` calibrates the 200 MHz Pentium Pro's dense-kernel
    rate; the default lands the baseline at roughly the paper's 9% I/O
    fraction (see the fig7 benchmark).
    """
    trace = []
    n, b = params.n, params.slab_cols
    sb = params.slab_bytes
    for j in range(params.n_slabs):
        trace.append(TraceRequest("read", j * sb, sb, 0.0))
        j0 = j * b
        for k in range(j):
            k0 = k * b
            # triangular solve (b^2 n) + rank-b update (2 b^2 (n - k0))
            flops = b * b * n + 2.0 * b * b * max(0, n - k0 - b)
            trace.append(TraceRequest("read", k * sb, sb,
                                      flops / flops_per_s))
        panel_flops = 2.0 / 3.0 * b * b * b + 2.0 * b * b * max(0, n - j0)
        trace.append(TraceRequest("write", j * sb, sb,
                                  panel_flops / flops_per_s))
    return trace
