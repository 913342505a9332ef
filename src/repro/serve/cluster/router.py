"""Pluggable request-routing policies for the serving cluster.

A :class:`Router` places each arriving request on one replica of the
cluster.  Policies are registered by name in :data:`ROUTER_POLICIES`
(so campaigns can sweep ``router=``) and share one hard guarantee,
enforced in the base class rather than per policy: **a request is never
routed to a despawned replica** — only replicas currently accepting
work (``RUNNING`` or ``STARTING``) are candidates.

The four shipped policies cover the llm-d router scenarios the ROADMAP
names:

* ``round-robin`` — cycle through accepting replicas; the baseline,
* ``least-loaded`` — minimum queue depth plus running batch,
* ``session-affinity`` — deterministic hash of the session id, so one
  session sticks to one replica while the replica set is stable,
* ``prefix-cache-aware`` — prefer a replica whose prefix registry
  already holds the request's session prefix (its prefill skips the
  shared prefix), falling back to least-loaded; a load guard stops a
  hot prefix from melting one replica.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ConfigError
from repro.serve.arrivals import Request
from repro.serve.cluster.replica import Replica

#: Registry of router policies: name -> Router subclass.  Campaigns
#: sweep this by name (``router=`` axis); :func:`make_router` builds an
#: instance.
ROUTER_POLICIES: dict[str, type["Router"]] = {}

#: Default policy used when no router is named.
DEFAULT_ROUTER_POLICY = "round-robin"

#: Load-guard of the prefix-cache-aware policy: a cache-hit replica is
#: only preferred while its load exceeds the least-loaded candidate's
#: by at most this many requests.  Beyond that, losing the prefix hit
#: is cheaper than the queueing delay of a hot replica.
PREFIX_HIT_LOAD_SLACK = 4

#: Knuth multiplicative-hash constant (2^32 / golden ratio): spreads
#: consecutive session ids across replicas deterministically, with no
#: dependence on ``PYTHONHASHSEED``.
SESSION_HASH_MULTIPLIER = 2654435761


def register_router(name: str):
    """Class decorator adding a policy to :data:`ROUTER_POLICIES`."""

    def wrap(cls: type["Router"]) -> type["Router"]:
        cls.name = name
        ROUTER_POLICIES[name] = cls
        return cls

    return wrap


def make_router(name: str) -> "Router":
    """Instantiate the policy registered under ``name``."""
    try:
        cls = ROUTER_POLICIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown router policy {name!r}; known: {sorted(ROUTER_POLICIES)}"
        ) from None
    return cls()


class Router:
    """Base router: filters out despawned replicas, delegates the pick.

    Subclasses implement ``_pick`` over the non-empty candidate list;
    :meth:`route` owns the safety invariant that only accepting
    replicas are ever returned.
    """

    #: Registry name, set by :func:`register_router`.
    name = "base"

    def route(self, request: Request, replicas: Sequence[Replica]) -> Replica:
        """The replica ``request`` should queue on.

        Raises :class:`ConfigError` when no replica is accepting work
        (cannot happen in a cluster honouring ``min_replicas >= 1``).
        """
        candidates = [r for r in replicas if r.accepting]
        if not candidates:
            raise ConfigError("no replica is accepting requests")
        chosen = self._pick(request, candidates)
        if not chosen.accepting:  # pragma: no cover - defensive
            raise ConfigError("router picked a despawned replica")
        return chosen

    def _pick(self, request: Request, candidates: list[Replica]) -> Replica:
        raise NotImplementedError


def _load_keys(candidates: list[Replica]) -> list[tuple[int, int, Replica]]:
    """``(load, index, replica)`` per candidate, each load read once.

    Indices are unique, so ``min`` over these keys never compares
    replicas and picks the smallest load, ties to the lowest index.
    """
    return [(r.load, r.index, r) for r in candidates]


def _least_loaded(candidates: list[Replica]) -> Replica:
    """The candidate with the smallest load, ties to the lowest index."""
    return min(_load_keys(candidates))[2]


@register_router("round-robin")
class RoundRobinRouter(Router):
    """Cycle through the accepting replicas in index order."""

    def __init__(self) -> None:
        self._next = 0

    def _pick(self, request: Request, candidates: list[Replica]) -> Replica:
        chosen = candidates[self._next % len(candidates)]
        self._next += 1
        return chosen


@register_router("least-loaded")
class LeastLoadedRouter(Router):
    """Route to the replica with the fewest queued + running requests."""

    def _pick(self, request: Request, candidates: list[Replica]) -> Replica:
        return _least_loaded(candidates)


@register_router("session-affinity")
class SessionAffinityRouter(Router):
    """Hash the session id onto the accepting replicas.

    One session sticks to one replica for as long as the accepting set
    is stable (an autoscaling event reshuffles the mapping, exactly as
    consistent-hash-free LB tiers do).  Session-less requests fall back
    to least-loaded.
    """

    def _pick(self, request: Request, candidates: list[Replica]) -> Replica:
        if request.session is None:
            return _least_loaded(candidates)
        mixed = (request.session * SESSION_HASH_MULTIPLIER) & 0xFFFFFFFF
        return candidates[mixed % len(candidates)]


@register_router("prefix-cache-aware")
class PrefixCacheAwareRouter(Router):
    """Prefer the replica already holding the session's prompt prefix.

    Among candidates whose prefix registry contains the request's
    session, the least-loaded wins — but only while its load stays
    within :data:`PREFIX_HIT_LOAD_SLACK` of the overall least-loaded
    candidate.  Everything else (no session, no hit, hot hit replica)
    degrades to least-loaded, which then warms that replica's registry
    for the session's next request.
    """

    def _pick(self, request: Request, candidates: list[Replica]) -> Replica:
        keys = _load_keys(candidates)
        coldest = min(keys)
        if request.session is None or request.prefix_tokens <= 0:
            return coldest[2]
        hits = [key for key in keys if key[2].has_prefix(request.session)]
        if not hits:
            return coldest[2]
        best_hit = min(hits)
        if best_hit[0] - coldest[0] > PREFIX_HIT_LOAD_SLACK:
            return coldest[2]
        return best_hit[2]
