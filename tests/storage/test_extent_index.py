"""Property test: the file system's extent index vs a linear scan.

``File`` keeps its allocated size and each extent's file offset so that
``_disk_runs`` can bisect to the first extent of a range and stop at the
first one past it.  For files grown by ``create`` and ``write`` on every
layout, the lookup must equal a scan over the whole extent list, and the
allocated size must equal the sum of the extent lengths.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.storage import Disk, FileSystem, FsParams

EXTENT = 8192

LAYOUTS = [
    None,  # contiguous: one extent per growth
    FsParams(extent_bytes=EXTENT, extent_gap=50_000),
    FsParams(extent_bytes=EXTENT, scatter=True),
]


def linear_disk_runs(f, offset: int, n: int) -> list[tuple[int, int]]:
    """Reference: visit every extent and clip it to the range."""
    runs = []
    end = offset + n
    for e in f.extents:
        e_end = e.file_off + e.length
        if e_end <= offset or e.file_off >= end:
            continue
        lo = max(offset, e.file_off)
        hi = min(end, e_end)
        runs.append((e.disk_off + (lo - e.file_off), hi - lo))
    return runs


def assert_index_consistent(f) -> None:
    assert f.allocated == sum(e.length for e in f.extents)
    assert f.extent_starts == [e.file_off for e in f.extents]


#: a position in the file: near an extent boundary, or anywhere up to
#: two extents past the allocation (k indexes either choice)
point = st.tuples(st.sampled_from(["boundary", "anywhere"]),
                  st.integers(0, 40),
                  st.sampled_from([-1, 0, 1, EXTENT // 2]))


def locate(f, spec) -> int:
    anchor, k, delta = spec
    if anchor == "boundary":
        boundaries = f.extent_starts + [f.allocated]
        return max(boundaries[k % len(boundaries)] + delta, 0)
    return max(k * (f.allocated + 2 * EXTENT) // 40 + delta, 0)


@given(layout=st.integers(0, len(LAYOUTS) - 1),
       initial=st.integers(0, 5 * EXTENT),
       writes=st.lists(st.tuples(st.integers(0, 12 * EXTENT),
                                 st.integers(1, 3 * EXTENT)), max_size=6),
       probes=st.lists(st.tuples(point, point), min_size=1, max_size=12))
@settings(max_examples=100, deadline=None)
def test_disk_runs_equal_linear_scan(layout, initial, writes, probes):
    sim = Simulator(seed=3)
    fs = FileSystem(sim, Disk(sim), cache_bytes=64 * 1024,
                    params=LAYOUTS[layout])
    f = fs.create("f", size=initial)
    assert_index_consistent(f)
    fh = fs.open("f", "r+")
    for offset, n in writes:
        sim.run(until=fs.write(fh, offset, n))
        assert_index_consistent(f)

    # ranges may start or end on a boundary, straddle several extents,
    # or run past the allocation
    for start, end in probes:
        offset = locate(f, start)
        n = max(locate(f, end) - offset, 0)
        assert fs._disk_runs(f, offset, n) == linear_disk_runs(f, offset, n)
