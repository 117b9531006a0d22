"""All tunables of the Dodo system in one place.

Defaults follow the paper where it gives numbers (15% headroom, 0.3 load
threshold, five-minute idle window, 100 MB imd pools in the evaluation,
80 MB local region cache) and sensible engineering values elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.idleness import IdlePolicy
from repro.net.bulk import BulkParams

MB = 1024 * 1024

#: well-known service ports
CMD_PORT = 6000
IMD_PORT = 6001
RMD_PORT = 6002

#: placement policies accepted by :attr:`DodoConfig.placement`
PLACEMENTS = ("random", "most-free", "round-robin")


@dataclass(frozen=True)
class CacheConfig:
    """The elastic-caching policy block (``DodoConfig.cache``).

    Governs how the imd region pools behave as *caches* rather than
    plain allocators (docs/CACHING.md).  The default ``policy="none"``
    reproduces the original system exactly — no eviction, no heat
    tracking, no migration, byte-identical event streams — so every
    paper experiment is unaffected unless a run opts in.

    Accepted ``policy`` values: ``"none"`` (off) or any name in
    :data:`repro.core.policy.POLICIES` (``"lru"``, ``"mru"``,
    ``"first-in"``, ``"lfu"``, ``"clock"``, ``"cost-aware"``).
    """

    #: donor-side eviction policy: "none" disables the subsystem
    policy: str = "none"
    #: hotspot-aware reclaim: when a donor turns busy, the manager first
    #: migrates its hottest regions to other donors over the bulk fast
    #: path (bounded below) instead of letting reclaim evict them
    migration: bool = False
    #: per-reclaim migration budget — keeps the busy-notification RPC
    #: well inside the rmd's retry window, so the owner's reclaim delay
    #: stays bounded even with migration on
    migrate_max_regions: int = 8
    migrate_max_bytes: int = 4 * MB

    def __post_init__(self):
        """Validate the policy name early (a typo should fail at config
        construction with a clear message, not deep inside a daemon)."""
        from repro.core.policy import POLICIES
        if self.policy != "none" and self.policy not in POLICIES:
            raise ValueError(
                f"unknown cache policy {self.policy!r}; choose from "
                f"{sorted(('none', *POLICIES))}")

    @property
    def enabled(self) -> bool:
        """True when any elastic-caching behavior is switched on."""
        return self.policy != "none"


@dataclass(frozen=True)
class DodoConfig:
    """System-wide configuration shared by daemons and libraries.

    Accepted ``placement`` values: ``"random"``, ``"most-free"``,
    ``"round-robin"``; anything else raises :class:`ValueError` at
    construction.  The ``cache`` block (:class:`CacheConfig`) is
    validated the same way.
    """

    #: transport for all Dodo traffic: "udp" or "unet"
    transport: str = "udp"
    #: carry real bytes through regions (functional mode) or sizes only
    store_payload: bool = True

    # -- central manager -----------------------------------------------------
    #: keep-alive echo interval to client libraries
    keepalive_interval_s: float = 5.0
    #: reclaim a client's regions after this long without an echo
    keepalive_threshold_s: float = 15.0
    #: include the client id in region keys (the paper's planned
    #: multi-client extension, Section 4.3 footnote)
    multi_client_keys: bool = False
    #: region placement over the IWD candidates: "random" (the paper's
    #: behavior — a uniformly random idle host with enough space),
    #: "most-free" (largest free-block hint first) or "round-robin"
    #: (cycle through candidates in IWD order).  The what-if replayer
    #: (repro whatif) exists to compare these.
    placement: str = "random"
    #: elastic-caching policy block: donor-side eviction policy and
    #: hotspot-aware migration (docs/CACHING.md); the default is
    #: completely inert
    cache: CacheConfig = field(default_factory=CacheConfig)

    # -- manager sharding / replication (PR 9) -------------------------------
    #: number of region-directory shards; 1 = the paper's single manager
    shards: int = 1
    #: give each shard a backup manager fed by synchronous log shipping
    replication: bool = False
    #: backup -> primary liveness-probe interval
    repl_heartbeat_s: float = 0.5
    #: consecutive missed probes before the backup promotes itself
    repl_promote_misses: int = 2
    #: modeled CPU cost of one directory operation on a shard manager
    #: (0 = free, the paper's behavior; serve-bench sets it so the
    #: directory is an honest bottleneck that sharding relieves)
    mgr_service_s: float = 0.0
    #: routing attempts a client makes across a shard's replicas before
    #: giving up (bounds retry storms during failover)
    shard_attempts: int = 8
    #: sharded primaries run a periodic anti-entropy scrub at this
    #: interval, freeing imd regions no directory entry references
    #: (two-pass: a region must stay orphaned across consecutive passes
    #: before it is reaped); <= 0 disables
    scrub_interval_s: float = 5.0

    # -- runtime library ----------------------------------------------------------
    #: refraction period: no allocation attempts for this long after a
    #: failed allocation (Section 3.1)
    refraction_period_s: float = 2.0
    #: RPC timeout/retries for control operations
    rpc_timeout_s: float = 0.25
    rpc_retries: int = 6
    #: manager->imd probing is less patient: a dead host must not eat the
    #: whole client window before the manager tries the next candidate
    imd_rpc_retries: int = 2
    #: exponential backoff base between RPC retries (0 = fixed-interval
    #: retries, the paper's behavior; chaos runs enable it so retry storms
    #: do not hammer restarting daemons)
    rpc_backoff_s: float = 0.0
    #: jitter fraction stretching each backoff (drawn from the seeded
    #: ``rpc.backoff`` stream; only used when ``rpc_backoff_s`` > 0)
    rpc_backoff_jitter: float = 0.25

    # -- idle memory daemon ---------------------------------------------------------
    #: cap on the pool an imd will pin on one host (the evaluation used
    #: fixed 100 MB pools on 128 MB nodes)
    max_pool_bytes: int = 100 * MB
    #: reserve this fraction of installed memory for near-future file
    #: cache use when sizing the pool (Section 3.1)
    headroom_fraction: float = 0.15
    #: period of the fragmentation-coalescing sweep (Section 4.2)
    coalesce_interval_s: float = 30.0
    #: receive buffer (and thus bulk window) for data transfers
    data_recvbuf_bytes: int = 256 * 1024
    #: imd re-registration heartbeat: > 0 makes each imd periodically
    #: re-announce itself to the central manager, which repopulates the
    #: IWD after a manager restart (detected via the incarnation counter
    #: in the reply).  0 disables it — registration happens once, the
    #: paper's behavior on a manager that never restarts.
    imd_reregister_s: float = 0.0

    # -- resource monitor ---------------------------------------------------------
    idle_policy: IdlePolicy = field(default_factory=IdlePolicy)
    #: dedicated (Beowulf) clusters recruit on load alone, ignoring the
    #: console and the five-minute wait (Section 3)
    dedicated: bool = False

    # -- bulk transfer ---------------------------------------------------------------
    #: bulk-transfer parameters (timeouts, retries, linger); the fast
    #: paths are switched on the simulator, ``Simulator(fastpath=)``
    #: (docs/PERFORMANCE.md)
    bulk: BulkParams = field(default_factory=BulkParams)

    def __post_init__(self):
        """Reject unknown placement names at construction time — the
        CLI turns this into a one-line ``repro: ...`` error (exit 2)."""
        if self.placement not in PLACEMENTS:
            raise ValueError(
                f"unknown placement {self.placement!r}; choose from "
                f"{sorted(PLACEMENTS)}")
