"""Deterministic fault plans: which failures to inject, where, how often.

A :class:`FaultPlan` names a set of fault kinds and, for each, exactly how
many eligible events fire (``count``) after how many are let through
(``skip``).  Firing decisions are *counted*, never random: the same plan
against the same event sequence injects the same faults, which is what lets
the chaos suite assert byte-identical results under injected failures.

The four fault kinds and their injection sites:

========================  ==================================================
``worker_crash``          the process-pool worker entry point of
                          :mod:`repro.api.batch` hard-exits before executing
                          (the pool raises ``BrokenProcessPool`` at home)
``store_corrupt``         the :class:`~repro.service.store.ResultStore` read
                          path scribbles over the entry file before parsing
                          it (exercising quarantine-on-corruption)
``slow_execute``          the request execution path stalls for ``delay``
                          seconds before running (exercising job timeouts)
``conn_reset``            the :class:`~repro.service.client.ServiceClient`
                          transport raises ``ConnectionResetError`` before
                          the HTTP round trip (exercising client retries)
========================  ==================================================

Fault counters are per *plan scope*.  Without a ``state_dir`` each process
counts its own eligible events — right for "every pool execution crashes".
With a ``state_dir`` the plan claims one marker file per eligible event
(``O_CREAT | O_EXCL``, so exactly one claimant wins each ticket number), and
the skip/count window applies to the cross-process ticket order — right for
"the first pool execution crashes, service-wide, even though the respawned
worker is a fresh process".
"""

from __future__ import annotations

import json
import os
import threading
import tomllib
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigurationError

__all__ = [
    "FAULT_KINDS",
    "PLAN_ENV",
    "FaultPlan",
    "FaultSpec",
    "active_plan",
    "clear_fault_plan",
    "load_fault_plan",
    "set_fault_plan",
]

#: The fault kinds a plan may name (one injection site each, see above).
FAULT_KINDS = ("worker_crash", "store_corrupt", "slow_execute", "conn_reset")

#: Environment variable carrying the active plan into worker processes:
#: either inline JSON (``{"faults": ...}``) or ``@/path/to/plan.toml``.
PLAN_ENV = "REPRO_FAULT_PLAN"

#: Default stall of a ``slow_execute`` fault (seconds).
DEFAULT_DELAY = 0.05


@dataclass(frozen=True)
class FaultSpec:
    """One fault kind's firing window.

    Of the eligible events at this fault's injection site, events
    ``skip .. skip + count - 1`` (0-based, in plan-scope order) fire; all
    others pass through untouched.  ``delay`` is the stall applied by
    ``slow_execute`` (ignored by the other kinds).  ``seed`` is recorded so
    distinct plans hash/compare differently; firing itself is counter-based
    and needs no randomness.
    """

    kind: str
    count: int = 1
    skip: int = 0
    delay: float = DEFAULT_DELAY
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.count < 1:
            raise ConfigurationError("a fault spec needs count >= 1")
        if self.skip < 0:
            raise ConfigurationError("a fault spec needs skip >= 0")
        if self.delay < 0:
            raise ConfigurationError("a fault spec needs delay >= 0")


class FaultPlan:
    """A set of fault specs plus the (optional) cross-process trigger state."""

    def __init__(
        self,
        specs: tuple[FaultSpec, ...] | list[FaultSpec] = (),
        *,
        state_dir: str | os.PathLike | None = None,
    ) -> None:
        by_kind: dict[str, FaultSpec] = {}
        for spec in specs:
            if spec.kind in by_kind:
                raise ConfigurationError(f"duplicate fault spec for {spec.kind!r}")
            by_kind[spec.kind] = spec
        self._specs = by_kind
        self.state_dir = None if state_dir is None else Path(state_dir)
        if self.state_dir is not None:
            self.state_dir.mkdir(parents=True, exist_ok=True)
        self._local_seen: dict[str, int] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def spec(self, kind: str) -> FaultSpec | None:
        """The spec for ``kind``, or ``None`` if this plan never injects it."""
        return self._specs.get(kind)

    def specs(self) -> tuple[FaultSpec, ...]:
        """Every spec of this plan, in kind order."""
        return tuple(self._specs[kind] for kind in FAULT_KINDS if kind in self._specs)

    def should_fire(self, kind: str) -> bool:
        """Record one eligible event for ``kind``; whether it must fail.

        Thread-safe; with a ``state_dir`` also process-safe (the event claims
        a cross-process ticket, so respawned workers share the budget).
        """
        spec = self._specs.get(kind)
        if spec is None:
            return False
        ticket = self._claim_ticket(kind, spec)
        return ticket is not None and spec.skip <= ticket < spec.skip + spec.count

    def _claim_ticket(self, kind: str, spec: FaultSpec) -> int | None:
        if self.state_dir is None:
            with self._lock:
                ticket = self._local_seen.get(kind, 0)
                self._local_seen[kind] = ticket + 1
            return ticket
        # Cross-process ticketing: the n-th marker file a process manages to
        # create exclusively is its ticket n.  Past the firing window no
        # ticket is needed — every later event passes through anyway.
        for ticket in range(spec.skip + spec.count):
            try:
                handle = os.open(
                    self.state_dir / f"{kind}.tick{ticket}",
                    os.O_CREAT | os.O_EXCL | os.O_WRONLY,
                )
            except FileExistsError:
                continue
            os.close(handle)
            return ticket
        return None

    # ------------------------------------------------------------------ #
    def to_document(self) -> dict:
        """JSON-ready form of this plan (the :data:`PLAN_ENV` payload)."""
        return {
            "state_dir": None if self.state_dir is None else str(self.state_dir),
            "faults": {
                spec.kind: {
                    "count": spec.count,
                    "skip": spec.skip,
                    "delay": spec.delay,
                    "seed": spec.seed,
                }
                for spec in self.specs()
            },
        }

    @classmethod
    def from_document(cls, document: dict) -> "FaultPlan":
        """Build a plan from its JSON/TOML document form."""
        if not isinstance(document, dict):
            raise ConfigurationError("a fault plan document must be an object")
        unknown = set(document) - {"state_dir", "faults"}
        if unknown:
            raise ConfigurationError(f"unknown fault plan field(s): {sorted(unknown)}")
        faults = document.get("faults", {})
        if not isinstance(faults, dict):
            raise ConfigurationError("'faults' must map fault kinds to spec objects")
        specs = []
        for kind, body in faults.items():
            if not isinstance(body, dict):
                raise ConfigurationError(f"fault spec for {kind!r} must be an object")
            extra = set(body) - {"count", "skip", "delay", "seed"}
            if extra:
                raise ConfigurationError(
                    f"unknown field(s) in fault spec {kind!r}: {sorted(extra)}"
                )
            specs.append(FaultSpec(kind=kind, **body))
        return cls(specs, state_dir=document.get("state_dir"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = ",".join(spec.kind for spec in self.specs())
        return f"FaultPlan([{kinds}], state_dir={self.state_dir})"


# --------------------------------------------------------------------------- #
# plan loading and the process-wide active plan
# --------------------------------------------------------------------------- #
def load_fault_plan(source: str) -> FaultPlan:
    """Load a plan from inline JSON or an ``@``-prefixed TOML/JSON file path."""
    text = source.strip()
    if text.startswith("@"):
        path = Path(text[1:])
        try:
            raw = path.read_text()
        except OSError as error:
            raise ConfigurationError(f"cannot read fault plan {path}: {error}") from None
        kind, parse = ("JSON", json.loads) if path.suffix == ".json" else ("TOML", tomllib.loads)
        try:
            document = parse(raw)
        except ValueError as error:
            raise ConfigurationError(f"invalid {kind} in fault plan {path}: {error}") from None
        return FaultPlan.from_document(document)
    try:
        document = json.loads(text)
    except ValueError as error:
        raise ConfigurationError(f"bad inline fault plan JSON: {error}") from None
    return FaultPlan.from_document(document)


#: The process's active plan; ``_loaded`` marks whether :data:`PLAN_ENV` has
#: been consulted (once per process — worker processes inherit the env var
#: and load their own copy, sharing state through the plan's ``state_dir``).
_plan: FaultPlan | None = None
_loaded = False


def active_plan() -> FaultPlan | None:
    """The plan injecting faults in this process, or ``None`` (the default)."""
    global _plan, _loaded
    if not _loaded:
        _loaded = True
        raw = os.environ.get(PLAN_ENV)
        if raw:
            _plan = load_fault_plan(raw)
    return _plan


def set_fault_plan(plan: FaultPlan | None, *, install_env: bool = True) -> None:
    """Activate ``plan`` in this process (``None`` disables injection).

    With ``install_env`` (the default) the plan is also serialized into
    :data:`PLAN_ENV`, so worker processes spawned *after* this call load the
    same plan — required for ``worker_crash``, which fires inside pool
    workers.  Pair with a cross-process ``state_dir`` when the trigger budget
    must be shared across those workers.
    """
    global _plan, _loaded
    _plan = plan
    _loaded = True
    if install_env:
        if plan is None:
            os.environ.pop(PLAN_ENV, None)
        else:
            os.environ[PLAN_ENV] = json.dumps(plan.to_document())


def clear_fault_plan() -> None:
    """Drop the active plan and the env override; re-reads env on next use."""
    global _plan, _loaded
    _plan = None
    _loaded = False
    os.environ.pop(PLAN_ENV, None)
