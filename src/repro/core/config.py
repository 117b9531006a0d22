"""All tunables of the Dodo system in one place.

:class:`DodoConfig` holds the settings some caller sets; the fixed
timings and budgets of the control plane are the named constants below.
Defaults follow the paper where it gives numbers (0.3 load threshold,
five-minute idle window, 100 MB imd pools in the evaluation, 80 MB local
region cache) and sensible engineering values elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.idleness import IdlePolicy

MB = 1024 * 1024

#: well-known service ports
CMD_PORT = 6000
IMD_PORT = 6001
RMD_PORT = 6002

#: keep-alive echo interval from the central manager to client
#: libraries; a client silent for the threshold has its regions
#: reclaimed (Section 3.1 fault handling)
KEEPALIVE_INTERVAL_S = 5.0
KEEPALIVE_THRESHOLD_S = 15.0
#: backup -> primary liveness-probe interval, and the consecutive missed
#: probes after which the backup promotes itself
REPL_HEARTBEAT_S = 0.5
REPL_PROMOTE_MISSES = 2
#: routing attempts a client or imd makes across a shard's replicas
#: before giving up (bounds retry storms during failover)
SHARD_ATTEMPTS = 8
#: RPC timeout and retries for control operations
RPC_TIMEOUT_S = 0.25
RPC_RETRIES = 6
#: manager->imd probing is less patient: a dead host must not eat the
#: whole client window before the manager tries the next candidate
IMD_RPC_RETRIES = 2
#: period of the imd's fragmentation-coalescing sweep (Section 4.2)
COALESCE_INTERVAL_S = 30.0
#: regions one hotspot-aware reclaim may migrate, beside the byte budget
#: :attr:`CacheConfig.migrate_max_bytes`: together they keep the
#: busy-notification RPC well inside the rmd's retry window
MIGRATE_MAX_REGIONS = 8

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
    #: per-reclaim migration byte budget (with
    #: :data:`MIGRATE_MAX_REGIONS`) — keeps the busy-notification RPC
    #: well inside the rmd's retry window, so the owner's reclaim delay
    #: stays bounded even with migration on
    migrate_max_bytes: int = 4 * MB

    def __post_init__(self):
        """Validate early (a typo should fail at config construction
        with a clear message, not deep inside a daemon): the policy name
        must exist, and migration, which orders regions by the policy's
        heat, needs a policy."""
        from repro.core.policy import POLICIES
        if self.policy != "none" and self.policy not in POLICIES:
            raise ValueError(
                f"unknown cache policy {self.policy!r}; choose from "
                f"{sorted(('none', *POLICIES))}")
        if self.migration and self.policy == "none":
            raise ValueError(
                "cache migration needs an eviction policy for heat "
                "tracking (policy='none' disables the cache subsystem "
                "entirely)")

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
    #: modeled CPU cost of one directory operation on a shard manager
    #: (0 = free, the paper's behavior; serve-bench sets it so the
    #: directory is an honest bottleneck that sharding relieves)
    mgr_service_s: float = 0.0
    #: sharded primaries run a periodic anti-entropy scrub at this
    #: interval, freeing imd regions no directory entry references
    #: (two-pass: a region must stay orphaned across consecutive passes
    #: before it is reaped); <= 0 disables
    scrub_interval_s: float = 5.0

    # -- runtime library ----------------------------------------------------------
    #: refraction period: no allocation attempts for this long after a
    #: failed allocation (Section 3.1)
    refraction_period_s: float = 2.0
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

    def __post_init__(self):
        """Reject unknown placement names at construction time — the
        CLI turns this into a one-line ``repro: ...`` error (exit 2)."""
        if self.placement not in PLACEMENTS:
            raise ValueError(
                f"unknown placement {self.placement!r}; choose from "
                f"{sorted(PLACEMENTS)}")
