"""Name-keyed registry of collective backends.

A :class:`repro.registry.Registry` binding:
:class:`repro.ml.training.TrainingConfig` resolves its ``system`` string
here and the harness enumerates sweep series from here, so adding a
backend never requires touching the training loop again.
"""

from __future__ import annotations

from repro.collectives.base import CollectiveBackend
from repro.registry import Registry

__all__ = ["UnknownBackendError", "available_backends", "get_backend",
           "register_backend", "unregister_backend"]


class UnknownBackendError(ValueError):
    """Raised when a backend name is not in the registry.

    Subclasses :class:`ValueError` so pre-refactor callers that caught
    the training layer's ``ValueError`` keep working unchanged.
    """


_BACKENDS: Registry[CollectiveBackend] = Registry(
    "collective backend", UnknownBackendError)

register_backend = _BACKENDS.register
unregister_backend = _BACKENDS.unregister
get_backend = _BACKENDS.get
available_backends = _BACKENDS.names
