"""PyGLite — the PyG-modelled framework.

Design choices mirrored from PyG v2.0.4:

* tensor-first ``Data(edge_index)`` objects — cheap construction, fast
  data loader (Observation 1);
* ``MessagePassing`` lowering: a fused ``matmul`` (torch-sparse) path for
  GCNConv / GCN2Conv / SAGEConv / TAGConv / SGConv, and an *unfused*
  gather-and-scatter path for ChebConv / GATConv / GATv2Conv, which
  materializes per-edge message buffers and OOMs on large graphs
  (Observation 3);
* Python-rate samplers that require a one-time CSR -> CSC conversion
  (Observation 2); no GPU/UVA sampling support.  The same shared
  vectorized engine (:mod:`repro.sampling.relabel`) runs the draws for
  both frameworks; PyG's Python-rate penalty is charged via
  :data:`~repro.frameworks.profiles.PYGLITE_PROFILE` sampler costs so the
  modeled gap stays independent of our own implementation speed.
"""

from repro.frameworks.base import Framework
from repro.frameworks.profiles import PYGLITE_PROFILE
from repro.frameworks.pyglite import nn


class PyGLite(Framework):
    """The PyG-modelled framework instance."""

    name = "pyglite"
    profile = PYGLITE_PROFILE

    _CONVS = {
        "gcn": nn.GCNConv,
        "gcn2": nn.GCN2Conv,
        "cheb": nn.ChebConv,
        "sage": nn.SAGEConv,
        "gat": nn.GATConv,
        "gatv2": nn.GATv2Conv,
        "tag": nn.TAGConv,
        "sg": nn.SGConv,
        # Extension layers (beyond the paper's Figure 5 eight).
        "appnp": nn.APPNPConv,
        "gin": nn.GINConv,
        "graph": nn.GraphConv,
    }


__all__ = ["PyGLite", "nn"]
