"""The two GNN framework implementations under test.

* :mod:`repro.frameworks.dglite` — models DGL v0.8.2: graph-centric
  ``DGLiteGraph``, fused g-SpMM/g-SDDMM kernels for all conv layers,
  native (C++-rate) samplers, GPU- and UVA-based neighborhood sampling,
  asynchronous pre-fetching.
* :mod:`repro.frameworks.pyglite` — models PyG v2.0.4: tensor-first
  ``Data`` objects, gather/scatter ``MessagePassing`` with a fused path
  for only part of the layer zoo, Python-rate samplers requiring CSC.

Both sit on the same substrate (autograd tensors + sparse kernels +
simulated machine); their behavioural differences come exclusively from
their :class:`~repro.frameworks.profiles.FrameworkProfile` and from which
kernel *paths* their layer implementations take.
"""

from repro.errors import UnknownFrameworkError
from repro.frameworks.base import Framework, FrameworkBatch, FrameworkGraph
from repro.frameworks.profiles import (
    DGLITE_PROFILE,
    FrameworkProfile,
    PROFILES,
    PYGLITE_PROFILE,
    SamplerCosts,
)


def get_framework(name: str) -> Framework:
    """Instantiate a framework by name ("dglite" or "pyglite")."""
    from repro.frameworks.dglite import DGLite
    from repro.frameworks.pyglite import PyGLite

    key = name.lower()
    if key in ("dglite", "dgl"):
        return DGLite()
    if key in ("pyglite", "pyg"):
        return PyGLite()
    raise UnknownFrameworkError(
        f"unknown framework {name!r} (expected 'dglite' or 'pyglite')")


__all__ = [
    "DGLITE_PROFILE",
    "Framework",
    "FrameworkBatch",
    "FrameworkGraph",
    "FrameworkProfile",
    "PROFILES",
    "PYGLITE_PROFILE",
    "SamplerCosts",
    "get_framework",
]
