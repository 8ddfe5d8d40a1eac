"""Job model: specs, states, and result canonicalisation.

A **job** is one campaign submitted to the service: a workload + fault
configuration (:class:`JobSpec`) plus queue bookkeeping (tenant,
priority, lease, its share and the digest of its result set).  Specs
are validated at the API boundary and hashed canonically, so
re-submitting the same campaign is detectable (and its share reusable)
before a single instruction is simulated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..telemetry.campaign import canonical_json_bytes, digest_bytes

JOB_STATES = ("queued", "leased", "done", "failed", "cancelled")
TERMINAL_STATES = ("done", "failed", "cancelled")

SCALES = ("tiny", "small", "medium", "paper")

#: Per-experiment result fields that depend on the host rather than
#: the (seed-deterministic) simulation: wall-clock time and its phase
#: attribution.  Everything else — outcome, instructions, ticks,
#: injection site, divergence, propagation — is identical across
#: machines for the same seed, which is what makes result sets
#: content-addressable.
NONDETERMINISTIC_RESULT_FIELDS = ("wall_seconds", "phases")


def canonical_results(results: list[dict]) -> list[dict]:
    """Strip host-dependent fields from campaign result records so the
    same seed produces byte-identical canonical JSON on any machine —
    the form ``result_digest`` hashes and ``/results`` serves."""
    canonical = []
    for entry in results:
        canonical.append({key: value for key, value in entry.items()
                          if key not in NONDETERMINISTIC_RESULT_FIELDS})
    return canonical


class JobSpecError(ValueError):
    """A submitted job description failed validation."""


def is_integer(value) -> bool:
    """An ``int`` that is not a ``bool``: Python's ``True`` is an
    ``int``, but JSON ``true`` must not pass for 1."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class JobSpec:
    """What to run: the campaign parameters of one job."""

    workload: str
    scale: str = "tiny"
    experiments: int = 20
    seed: int = 0
    location: str | None = None
    workers: int = 1
    #: publish the campaign with span tracing on; the dispatcher then
    #: roots the job's span tree under its originating HTTP request.
    trace: bool = False

    _FIELDS = ("workload", "scale", "experiments", "seed", "location",
               "workers", "trace")

    @classmethod
    def from_dict(cls, payload: dict) -> "JobSpec":
        if not isinstance(payload, dict):
            raise JobSpecError("job spec must be a JSON object")
        unknown = sorted(set(payload) - set(cls._FIELDS))
        if unknown:
            raise JobSpecError(
                f"unknown job spec field(s): {', '.join(unknown)}")
        if "workload" not in payload:
            raise JobSpecError("job spec needs a 'workload'")
        spec = cls(workload=payload["workload"])
        for name in cls._FIELDS[1:]:
            if name in payload and payload[name] is not None:
                setattr(spec, name, payload[name])
        spec.validate()
        return spec

    def validate(self) -> None:
        from ..workloads import WORKLOAD_NAMES
        if self.workload not in WORKLOAD_NAMES:
            raise JobSpecError(
                f"unknown workload '{self.workload}' "
                f"(known: {', '.join(WORKLOAD_NAMES)})")
        if self.scale not in SCALES:
            raise JobSpecError(f"unknown scale '{self.scale}' "
                               f"(known: {', '.join(SCALES)})")
        if not is_integer(self.experiments) \
                or not 1 <= self.experiments <= 100_000:
            raise JobSpecError("experiments must be an integer in "
                               "[1, 100000]")
        if not is_integer(self.seed):
            raise JobSpecError("seed must be an integer")
        if self.location is not None \
                and not isinstance(self.location, str):
            raise JobSpecError("location must be a string or null")
        if self.location is not None:
            from ..core import LocationKind
            try:
                LocationKind(self.location)
            except ValueError:
                raise JobSpecError(
                    f"unknown fault location '{self.location}'") \
                    from None
        if not is_integer(self.workers) \
                or not 0 <= self.workers <= 64:
            raise JobSpecError("workers must be an integer in [0, 64] "
                               "(0/1 = run in the dispatcher process)")
        if not isinstance(self.trace, bool):
            raise JobSpecError("trace must be a boolean")

    def as_dict(self) -> dict:
        return {"workload": self.workload, "scale": self.scale,
                "experiments": self.experiments, "seed": self.seed,
                "location": self.location, "workers": self.workers,
                "trace": self.trace}

    def canonical(self) -> bytes:
        return canonical_json_bytes(self.as_dict())

    def digest(self) -> str:
        return digest_bytes(self.canonical())


@dataclass
class Job:
    """One queue row: a spec plus its lifecycle bookkeeping."""

    id: str
    tenant: str
    priority: int
    state: str
    spec: JobSpec
    spec_digest: str
    submitted: float
    started: float | None = None
    finished: float | None = None
    lease_owner: str | None = None
    lease_expires: float | None = None
    attempts: int = 0
    result_digest: str | None = None
    error: str | None = None
    share_dir: str | None = None
    reused_from: str | None = None
    request_id: str | None = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def as_dict(self) -> dict:
        return {
            "id": self.id, "tenant": self.tenant,
            "priority": self.priority, "state": self.state,
            "spec": self.spec.as_dict(),
            "spec_digest": self.spec_digest,
            "submitted": self.submitted, "started": self.started,
            "finished": self.finished,
            "lease_owner": self.lease_owner,
            "lease_expires": self.lease_expires,
            "attempts": self.attempts,
            "result_digest": self.result_digest,
            "error": self.error, "share_dir": self.share_dir,
            "reused_from": self.reused_from,
            "request_id": self.request_id,
        }

    @classmethod
    def from_row(cls, row) -> "Job":
        spec = json.loads(row["spec"])
        # Rows stored while specs had a ``backend`` field carry it;
        # every job runs on the shared-dir protocol, so drop it.
        spec.pop("backend", None)
        # Rows stored while booleans passed for integers read as 1/0.
        for name in ("experiments", "seed", "workers"):
            if isinstance(spec.get(name), bool):
                spec[name] = int(spec[name])
        return cls(
            id=row["id"], tenant=row["tenant"],
            priority=row["priority"], state=row["state"],
            spec=JobSpec.from_dict(spec),
            spec_digest=row["spec_digest"],
            submitted=row["submitted"], started=row["started"],
            finished=row["finished"], lease_owner=row["lease_owner"],
            lease_expires=row["lease_expires"],
            attempts=row["attempts"],
            result_digest=row["result_digest"],
            error=row["error"], share_dir=row["share_dir"],
            reused_from=row["reused_from"],
            request_id=row["request_id"]
            if "request_id" in row.keys() else None)
