"""Campaign-side stream planning and batched multi-config evaluation.

The parent-process half of the sweep fast path
(:mod:`repro.serve.streams` is the worker half):

* :func:`stream_spec_for_item` inspects a planned workpackage's
  substituted serve operation and recovers the
  :class:`~repro.serve.streams.ArrivalStreamSpec` it will consume —
  mirroring exactly how ``llm_serve`` / ``llm_serve_cluster`` build
  their generators, so the parent can know a stream without running
  anything.
* :func:`plan_streams` generates each distinct stream family **once**
  (at the longest request count any item needs) and freezes it; the
  runner hands the result to ``executor.provide_streams`` and the pool
  initializer ships it to every worker.
* :func:`group_stream_batches` partitions work items into batches that
  share one arrival stream, and :func:`run_batches` dispatches them
  through an executor's batched seam (falling back to per-item
  execution on executors without one) — K configurations, one stream
  materialization, one worker dispatch per batch.
"""

from __future__ import annotations

import shlex

from repro.errors import ConfigError, JubeError
from repro.jube.parameters import substitute
from repro.jube.runner import WorkItem, WorkResult
from repro.obs.metrics import get_metrics
from repro.serve.streams import (
    KIND_POISSON,
    KIND_SESSION,
    ArrivalStreamSpec,
    FrozenStream,
)

#: Operations whose arrival streams the campaign layer can pre-generate.
SERVE_OPERATIONS = ("llm_serve", "llm_serve_cluster")

#: Default number of configurations per batched worker dispatch.
DEFAULT_BATCH_SIZE = 16

#: Counter of work items stream planning skipped as malformed.
STREAM_PLAN_SKIPPED_COUNTER = "campaign_stream_plan_skipped_total"

#: What planning a malformed item raises: an unresolved or cyclic
#: substitution (``JubeError``), an unparseable token or number
#: (``ValueError``), a missing ``--rate`` (``KeyError``), an empty
#: command (``IndexError``) or an invalid stream spec (``ConfigError``).
#: Anything else is a bug and propagates.
_PLAN_ERRORS = (JubeError, ValueError, KeyError, IndexError, ConfigError)


def parse_operation(command: str) -> tuple[str, dict[str, str]]:
    """Split a substituted ``opname --key value ...`` command.

    The same grammar :meth:`OperationRegistry.dispatch` uses; bare
    ``--flag`` tokens become ``"true"``.
    """
    tokens = shlex.split(command)
    name, rest = tokens[0], tokens[1:]
    args: dict[str, str] = {}
    i = 0
    while i < len(rest):
        token = rest[i]
        if not token.startswith("--"):
            raise ValueError(f"unexpected token {token!r} in {command!r}")
        key = token[2:]
        if i + 1 < len(rest) and not rest[i + 1].startswith("--"):
            args[key] = rest[i + 1]
            i += 2
        else:
            args[key] = "true"
            i += 1
    return name, args


def _spec_from_args(name: str, args: dict[str, str]) -> ArrivalStreamSpec:
    """The stream spec a serve operation builds from these arguments.

    Field for field the same defaults the registry operations apply;
    the session process deliberately carries no length spread (the
    operation never passes one, keeping shared prefixes exact).
    """
    sessions = int(args.get("sessions", "0")) if name == "llm_serve_cluster" else 0
    if sessions > 0:
        return ArrivalStreamSpec(
            kind=KIND_SESSION,
            rate_per_s=float(args["rate"]),
            requests=int(args.get("requests", "32")),
            prompt_tokens=int(args.get("prompt-tokens", "512")),
            generate_tokens=int(args.get("generate-tokens", "128")),
            length_spread=0.0,
            seed=int(args.get("seed", "0")),
            sessions=sessions,
            prefix_tokens=int(args.get("prefix-tokens", "384")),
        )
    return ArrivalStreamSpec(
        kind=KIND_POISSON,
        rate_per_s=float(args["rate"]),
        requests=int(args.get("requests", "32")),
        prompt_tokens=int(args.get("prompt-tokens", "512")),
        generate_tokens=int(args.get("generate-tokens", "128")),
        length_spread=float(args.get("spread", "0")),
        seed=int(args.get("seed", "0")),
    )


def stream_spec_for_item(item: WorkItem) -> ArrivalStreamSpec | None:
    """The arrival stream a planned workpackage will consume, or None.

    Returns None for items with no serve operation, and for operations
    that fail to plan with one of the errors a malformed item raises
    (execution will surface the real error): stream planning is an
    optimization and must not fail a campaign.  Each such skip counts
    on :data:`STREAM_PLAN_SKIPPED_COUNTER`, once per inspection.
    """
    for template in item.step.operations:
        try:
            name, args = parse_operation(substitute(template, item.parameters))
            if name in SERVE_OPERATIONS:
                return _spec_from_args(name, args)
        except _PLAN_ERRORS:
            get_metrics().counter(
                STREAM_PLAN_SKIPPED_COUNTER,
                "work items stream planning skipped as malformed",
            ).inc(step=item.step.name)
            return None
    return None


def plan_streams(items: list[WorkItem]) -> dict[tuple, FrozenStream]:
    """Generate each distinct stream family once, frozen for shipping.

    Of all items sharing a family, the longest request count wins, so
    the shipped stream covers every full run and every screening
    prefix of that family.
    """
    longest: dict[tuple, ArrivalStreamSpec] = {}
    for item in items:
        spec = stream_spec_for_item(item)
        if spec is None:
            continue
        held = longest.get(spec.family)
        if held is None or held.requests < spec.requests:
            longest[spec.family] = spec
    return {
        family: FrozenStream(spec.generator().generate())
        for family, spec in longest.items()
    }


def group_stream_batches(
    items: list[WorkItem], batch_size: int = DEFAULT_BATCH_SIZE
) -> list[list[WorkItem]]:
    """Partition items into stream-sharing batches of ``batch_size``.

    Items of the same stream family land in the same batches (so one
    worker dispatch materializes the stream once for all of them);
    items with no recognizable stream are batched together at the end.
    Order within a family follows input order, keeping results
    deterministic.
    """
    by_family: dict[object, list[WorkItem]] = {}
    for item in items:
        spec = stream_spec_for_item(item)
        family = spec.family if spec is not None else None
        by_family.setdefault(family, []).append(item)
    batches: list[list[WorkItem]] = []
    for family in sorted(by_family, key=lambda f: (f is None, str(f))):
        members = by_family[family]
        for start in range(0, len(members), batch_size):
            batches.append(members[start:start + batch_size])
    return batches


def run_batches(
    executor, batches: list[list[WorkItem]]
) -> list[list[WorkResult]]:
    """Dispatch batches through the executor's batched seam.

    Executors without ``run_item_batches`` (custom ones plugged into
    the campaign seam) degrade to one ``run_items`` call per batch —
    same results, just without the single-dispatch amortization.
    """
    if hasattr(executor, "run_item_batches"):
        return executor.run_item_batches(batches)
    return [executor.run_items(list(batch)) for batch in batches]
