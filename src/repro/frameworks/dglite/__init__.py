"""DGLite — the DGL-modelled framework.

Design choices mirrored from DGL v0.8.2:

* graph-centric programming: layers receive a graph (adjacency) object and
  invoke fused ``update_all``-style kernels (g-SpMM / g-SDDMM) for *every*
  conv layer — no per-edge feature materialization anywhere;
* samplers run at native C++/OpenMP rates, with GPU-based and UVA-based
  neighborhood sampling available for GraphSAGE.  The shared vectorized
  sampling engine (:mod:`repro.sampling.relabel`) executes the actual
  draws; DGL's native-rate advantage is charged via
  :data:`~repro.frameworks.profiles.DGLITE_PROFILE` sampler costs, not by
  running slower Python on our side;
* heavier graph-object construction (the DGLGraph abstraction) and higher
  per-op dispatch overhead than PyGLite.
"""

from repro.frameworks.base import Framework
from repro.frameworks.profiles import DGLITE_PROFILE
from repro.frameworks.dglite import nn


class DGLite(Framework):
    """The DGL-modelled framework instance."""

    name = "dglite"
    profile = DGLITE_PROFILE

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


__all__ = ["DGLite", "nn"]
