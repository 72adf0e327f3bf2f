"""From-scratch neural-network substrate (NumPy reverse-mode autograd).

The READYS paper implements its agent with PyTorch; this environment has no
PyTorch, so :mod:`repro.nn` provides the minimal equivalent stack used by the
agent: a reverse-mode autograd :class:`~repro.nn.tensor.Tensor`, dense and
graph-convolution layers, standard initialisers and optimisers, and ``.npz``
checkpointing.  The numerical semantics (Kipf–Welling GCN propagation, Adam
updates, entropy-regularised actor-critic losses) match the PyTorch reference.
"""

from repro.nn.tensor import (
    AnomalyError,
    Tensor,
    detect_anomaly,
    is_anomaly_enabled,
    is_grad_enabled,
    no_grad,
)
from repro.nn import functional
from repro.nn.layers import (
    Module,
    Parameter,
    Linear,
    ReLU,
    Tanh,
    Sequential,
    MLP,
    GCNConv,
    GCNStack,
    gcn_normalize_adjacency,
)
from repro.nn.optim import Optimizer, SGD, Adam, RMSprop, clip_grad_norm
from repro.nn.serialization import save_state_dict, load_state_dict
from repro.nn.sparse import (
    sparse_matmul,
    gcn_normalize_adjacency_sparse,
    edges_to_sparse_adjacency,
    block_diag_adjacency_sparse,
)
from repro.nn.compile import TrainingCompiler
from repro.nn import init

__all__ = [
    "AnomalyError",
    "Tensor",
    "detect_anomaly",
    "is_anomaly_enabled",
    "no_grad",
    "is_grad_enabled",
    "functional",
    "Module",
    "Parameter",
    "Linear",
    "ReLU",
    "Tanh",
    "Sequential",
    "MLP",
    "GCNConv",
    "GCNStack",
    "gcn_normalize_adjacency",
    "Optimizer",
    "SGD",
    "Adam",
    "RMSprop",
    "clip_grad_norm",
    "save_state_dict",
    "load_state_dict",
    "sparse_matmul",
    "gcn_normalize_adjacency_sparse",
    "edges_to_sparse_adjacency",
    "block_diag_adjacency_sparse",
    "TrainingCompiler",
    "init",
]
