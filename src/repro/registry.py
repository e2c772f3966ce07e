"""The one name-keyed plugin registry type.

Collective backends, network functions and traffic scenarios each bind
one :class:`Registry` as the single source of truth for which plugins
exist; error messages report whatever is registered *right now*.
Lookups are case-insensitive; canonical keys are lowercase.
"""

from __future__ import annotations

from typing import Dict, Generic, Protocol, Tuple, Type, TypeVar

__all__ = ["Named", "Registry"]


class Named(Protocol):
    """Anything with a settable ``name`` — what a registry stores."""

    name: str


T = TypeVar("T", bound=Named)


class Registry(Generic[T]):
    """Plugins of one ``kind`` keyed by their lowercased ``name``.

    ``kind`` labels the plugins in error messages; failed lookups raise
    ``error`` (a :class:`ValueError` subclass).
    """

    def __init__(self, kind: str, error: Type[ValueError]) -> None:
        self.kind = kind
        self.error = error
        self._items: Dict[str, T] = {}

    def register(self, item: T, replace: bool = False) -> T:
        """Add ``item`` under ``item.name`` (lowercased).

        Registering a name twice is an error unless ``replace=True`` —
        silent shadowing would make a result's provenance ambiguous.
        Returns the item so calls can be used as expressions.
        """
        name = str(item.name).strip().lower()
        if not name:
            raise ValueError(f"{self.kind} must have a non-empty name")
        if name in self._items and not replace:
            raise ValueError(
                f"{self.kind} {name!r} is already registered; pass "
                "replace=True to override it"
            )
        item.name = name
        self._items[name] = item
        return item

    def unregister(self, name: str) -> T:
        """Remove and return an item (mainly for tests' variants)."""
        try:
            return self._items.pop(str(name).strip().lower())
        except KeyError:
            raise self._unknown(name) from None

    def get(self, name: str) -> T:
        """Resolve an item by name, case-insensitively."""
        try:
            return self._items[str(name).strip().lower()]
        except KeyError:
            raise self._unknown(name) from None

    def names(self) -> Tuple[str, ...]:
        """Canonical names of every registered item, sorted."""
        return tuple(sorted(self._items))

    def _unknown(self, name: str) -> ValueError:
        return self.error(
            f"unknown {self.kind} {name!r}; available: "
            f"{', '.join(self.names())}"
        )
