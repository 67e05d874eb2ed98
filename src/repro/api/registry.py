"""The machine-model registry: names to machine factories.

Every machine model of the paper (and any user-defined variant) is published
here under a short name; :meth:`repro.api.machine.Machine.named` resolves a
name through this registry.  A *factory* is a callable accepting keyword
options (``memory_latency=70``, ``scheduler="roundrobin"``, ...) and returning
a :class:`~repro.api.machine.Machine`, which answers the uniform ``run`` /
``run_group`` / ``run_queue`` calls.

Registering a new machine variant is one call::

    from repro.api import Machine, register_model
    from repro.core import MachineConfig

    register_model(
        "multithreaded-fair",
        lambda **options: Machine.from_config(
            MachineConfig.multithreaded(2, scheduler="roundrobin", **options)
        ),
        description="2-context machine with the round-robin scheduler",
    )
    result = Machine.named("multithreaded-fair").run(program)
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = [
    "ModelEntry",
    "model_descriptions",
    "model_names",
    "register_model",
    "resolve_model",
    "unregister_model",
]

#: A machine-model factory: keyword options in, :class:`Machine` out.
ModelFactory = Callable[..., object]


@dataclass(frozen=True)
class ModelEntry:
    """One registered machine model."""

    name: str
    factory: ModelFactory
    description: str = ""


_REGISTRY: dict[str, ModelEntry] = {}


def register_model(
    name: str,
    factory: ModelFactory,
    *,
    description: str = "",
    overwrite: bool = False,
) -> None:
    """Publish a machine-model factory under ``name``.

    Raises :class:`~repro.errors.ConfigurationError` if the name is already
    taken, unless ``overwrite=True``.
    """
    if not name:
        raise ConfigurationError("machine-model names must be non-empty")
    if name in _REGISTRY and not overwrite:
        raise ConfigurationError(
            f"machine model {name!r} is already registered; "
            "pass overwrite=True to replace it"
        )
    _REGISTRY[name] = ModelEntry(name=name, factory=factory, description=description)


def unregister_model(name: str) -> None:
    """Remove one registered model (no-op if the name is unknown)."""
    _REGISTRY.pop(name, None)


def resolve_model(name: str) -> ModelEntry:
    """Look up one registered model by name."""
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown machine model {name!r}; registered models: "
            + ", ".join(sorted(_REGISTRY))
        ) from exc


def model_names() -> list[str]:
    """All registered model names, sorted."""
    return sorted(_REGISTRY)


def model_descriptions() -> dict[str, str]:
    """Mapping of registered model names to their one-line descriptions."""
    return {name: _REGISTRY[name].description for name in sorted(_REGISTRY)}
