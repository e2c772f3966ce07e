"""Name-keyed registry of network functions.

A :class:`repro.registry.Registry` binding: chain specs resolve their
NF names here and the harness enumerates placements from here.
"""

from __future__ import annotations

from repro.nf.base import NF
from repro.registry import Registry

__all__ = ["UnknownNFError", "available_nfs", "get_nf", "register_nf",
           "unregister_nf"]


class UnknownNFError(ValueError):
    """Raised when an NF name is not in the registry."""


_NFS: Registry[NF] = Registry("NF", UnknownNFError)

register_nf = _NFS.register
unregister_nf = _NFS.unregister
get_nf = _NFS.get
available_nfs = _NFS.names
