#!/usr/bin/env python3
"""Quickstart: allocate remote memory and move real bytes through Dodo.

Builds the paper's evaluation platform (scaled down), then uses the raw
``libdodo`` API — mopen / mwrite / mread / msync / mclose — exactly as an
application written against Figure 3's interface would.  Everything runs
inside the discrete-event simulation; application code is a generator
that ``yield from``s the library calls.

Run:  python examples/quickstart.py
"""

from repro.core import DodoConfig
from repro.exp.platform import MB, Platform, PlatformParams
from repro.sim import Simulator


def main() -> None:
    sim = Simulator(seed=1)
    # 4 memory hosts donating 4 MB each; real payload bytes end to end.
    params = PlatformParams(
        n_memory_hosts=4, imd_pool_bytes=4 * MB, local_cache_bytes=1 * MB,
        app_fs_cache_dodo=1 * MB, disk_capacity_bytes=256 * MB)
    # every Dodo setting lives in the config: UDP, real payload bytes
    config = DodoConfig(transport="udp", store_payload=True)
    platform = Platform(sim, params, dodo=True, config=config)
    lib = platform.runtime()

    # Dodo regions are backed by a file: open it first (mopen needs a
    # writable descriptor, as in the paper).
    fs = platform.app.fs
    fs.create("dataset", size=1 * MB)
    fd = fs.open("dataset", "r+").fd

    message = b"idle memory is just a cache between RAM and disk " * 100

    def app():
        desc, err = yield from lib.mopen(len(message), fd, 0)
        print(f"[{sim.now * 1e3:8.3f} ms] mopen   -> descriptor {desc}")
        assert err == 0

        n, err = yield from lib.mwrite(desc, 0, len(message), message)
        print(f"[{sim.now * 1e3:8.3f} ms] mwrite  -> {n} bytes "
              "(remote + backing file, in parallel)")

        n, err, data = yield from lib.mread(desc, 0, len(message))
        print(f"[{sim.now * 1e3:8.3f} ms] mread   -> {n} bytes, "
              f"intact={data == message}")

        ret, err = yield from lib.msync(desc)
        print(f"[{sim.now * 1e3:8.3f} ms] msync   -> backing file durable")

        ret, err = yield from lib.mclose(desc)
        print(f"[{sim.now * 1e3:8.3f} ms] mclose  -> region freed")
        return data == message

    ok = sim.run(until=sim.process(app()))
    host_use = {imd.ws.name: imd.allocator.used_bytes
                for imd in platform.imds}
    print(f"\nround-trip intact: {ok}")
    print(f"remote pools after mclose (all zero): {host_use}")
    print(f"virtual time elapsed: {sim.now * 1e3:.3f} ms, "
          f"events processed: {sim.events_processed}")


if __name__ == "__main__":
    main()
