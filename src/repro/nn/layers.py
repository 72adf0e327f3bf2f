"""Neural-network modules: Linear, GCNConv, Sequential, MLP.

The module system mirrors the small subset of ``torch.nn`` the READYS agent
needs: named parameters, recursive state dicts, and composition.  GCNConv
implements the Kipf–Welling propagation rule used in the paper (§III-B):

.. math::

    H^{(l+1)} = \\varphi\\big(\\tilde D^{-1/2} \\tilde A \\tilde D^{-1/2}
                H^{(l)} W^{(l)}\\big)

where :math:`\\tilde A` is the adjacency matrix of the (windowed) DAG with
self-connections added.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.nn import init as nn_init
from repro.nn.tensor import Tensor
from repro.utils.seeding import SeedLike, as_generator


class Parameter(Tensor):
    """A trainable tensor (always ``requires_grad=True``)."""

    def __init__(self, data, name: str = "") -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class with parameter registration and state-dict support.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; both are discovered automatically (like ``torch.nn.Module``).
    Private (``_``-prefixed) attributes are not discovered, so a module may
    keep its own bindings of its parameters there.
    """

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    # -- parameter discovery ------------------------------------------- #

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs, depth-first."""
        for attr, value in vars(self).items():
            if attr.startswith("_"):
                continue
            name = f"{prefix}{attr}"
            if isinstance(value, Parameter):
                yield name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{name}.{i}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{name}.{i}.")

    def parameters(self) -> List[Parameter]:
        """All trainable parameters of this module (recursively)."""
        return [p for _, p in self.named_parameters()]

    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for p in self.parameters():
            p.zero_grad()

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(p.size for p in self.parameters())

    # -- state dict ----------------------------------------------------- #

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of all parameter arrays keyed by dotted name."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter arrays produced by :meth:`state_dict`.

        Raises ``KeyError`` on missing entries and ``ValueError`` on shape
        mismatch — silent partial loads would corrupt transfer experiments.
        """
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        if missing:
            raise KeyError(f"state dict missing parameters: {sorted(missing)}")
        for name, p in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != p.data.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: "
                    f"checkpoint {value.shape} vs model {p.data.shape}"
                )
            p.data = value.copy()


class Linear(Module):
    """Fully connected layer ``y = x W + b`` (the paper's FC blocks)."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        bias: bool = True,
        rng: SeedLike = None,
        init_scheme: str = "xavier_uniform",
    ) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError("in_features and out_features must be positive")
        self.in_features = in_features
        self.out_features = out_features
        scheme = nn_init.get_scheme(init_scheme)
        self.weight = Parameter(scheme(in_features, out_features, as_generator(rng)))
        self.bias = Parameter(nn_init.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features})"


class ReLU(Module):
    """Elementwise ReLU as a composable module."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()

    def __repr__(self) -> str:
        return "ReLU()"


class Tanh(Module):
    """Elementwise Tanh as a composable module."""

    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()

    def __repr__(self) -> str:
        return "Tanh()"


class Sequential(Module):
    """Feed-forward composition of modules."""

    def __init__(self, *modules: Module) -> None:
        self.layers = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __getitem__(self, idx: int) -> Module:
        return self.layers[idx]

    def __len__(self) -> int:
        return len(self.layers)

    def __repr__(self) -> str:
        inner = ", ".join(repr(m) for m in self.layers)
        return f"Sequential({inner})"


class MLP(Module):
    """Multi-layer perceptron with ReLU hidden activations."""

    def __init__(
        self,
        sizes: Iterable[int],
        *,
        rng: SeedLike = None,
        final_activation: bool = False,
    ) -> None:
        sizes = list(sizes)
        if len(sizes) < 2:
            raise ValueError("MLP needs at least input and output sizes")
        rng = as_generator(rng)
        modules: List[Module] = []
        for i, (a, b) in enumerate(zip(sizes[:-1], sizes[1:])):
            modules.append(Linear(a, b, rng=rng, init_scheme="kaiming_uniform"))
            last = i == len(sizes) - 2
            if not last or final_activation:
                modules.append(ReLU())
        self.net = Sequential(*modules)

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)


def gcn_normalize_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """Symmetric GCN normalisation ``D̃^{-1/2} Ã D̃^{-1/2}`` with self-loops.

    ``adjacency`` is a dense 0/1 matrix where ``A[i, j] = 1`` iff there is an
    edge i→j.  For GCN message passing on a DAG we symmetrise (information
    must flow from descendants back to the ready tasks, which is how window
    context reaches the actionable nodes) and add self-loops, exactly as in
    Kipf & Welling and in the READYS reference implementation.
    """
    a = np.asarray(adjacency, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency must be square, got shape {a.shape}")
    n = a.shape[0]
    a_tilde = np.where((a + a.T) > 0, 1.0, 0.0)
    a_tilde[np.diag_indices(n)] = 1.0
    deg = a_tilde.sum(axis=1)
    inv_sqrt = 1.0 / np.sqrt(deg)
    # D^-1/2 A D^-1/2 as two broadcasts (no diag-matrix materialisation).
    return a_tilde * inv_sqrt[:, None] * inv_sqrt[None, :]


def block_diag_adjacency(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Dense block-diagonal matrix from per-graph (normalised) adjacencies.

    Stacking K window sub-DAGs into one disconnected graph lets a single
    :class:`GCNStack` call process the whole batch: messages cannot cross the
    zero off-diagonal blocks, so each block's rows are exactly what K separate
    forwards would produce.  For batches of small sparse windows prefer
    :func:`repro.nn.sparse.block_diag_adjacency_sparse` — the dense form costs
    O((Σmᵢ)²) per layer.
    """
    mats = [np.asarray(b, dtype=np.float64) for b in blocks]
    if not mats:
        raise ValueError("need at least one adjacency block")
    for m in mats:
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"adjacency blocks must be square, got shape {m.shape}")
    total = sum(m.shape[0] for m in mats)
    out = np.zeros((total, total), dtype=np.float64)
    offset = 0
    for m in mats:
        n = m.shape[0]
        out[offset: offset + n, offset: offset + n] = m
        offset += n
    return out


class GCNConv(Module):
    """One graph-convolution layer: ``H' = φ(Â H W + b)``.

    ``Â`` (the normalised adjacency) is an episode-level constant computed by
    :func:`gcn_normalize_adjacency`; it is passed to :meth:`forward` per call
    because the windowed sub-DAG changes at every scheduling decision.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        bias: bool = True,
        rng: SeedLike = None,
    ) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError("in_features and out_features must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            nn_init.kaiming_uniform(in_features, out_features, as_generator(rng))
        )
        self.bias = Parameter(nn_init.zeros(out_features)) if bias else None

    def forward(self, h: Tensor, norm_adj) -> Tensor:
        if h.shape[0] != norm_adj.shape[0]:
            raise ValueError(
                f"feature rows {h.shape[0]} != adjacency size {norm_adj.shape[0]}"
            )
        hw = h @ self.weight
        if isinstance(norm_adj, np.ndarray):
            out = Tensor(norm_adj) @ hw
        else:  # scipy sparse matrix (see repro.nn.sparse)
            from repro.nn.sparse import sparse_matmul

            out = sparse_matmul(norm_adj, hw)
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return f"GCNConv({self.in_features}, {self.out_features})"


class GCNStack(Module):
    """Stack of :class:`GCNConv` layers with ReLU between them (Fig. 2).

    The paper uses ``g`` layers where empirically ``g = w`` (window size)
    suffices for information to flow from depth-w descendants to the ready
    tasks.
    """

    def __init__(
        self,
        in_features: int,
        hidden_features: int,
        num_layers: int,
        *,
        rng: SeedLike = None,
    ) -> None:
        if num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {num_layers}")
        rng = as_generator(rng)
        dims = [in_features] + [hidden_features] * num_layers
        self.convs = [
            GCNConv(a, b, rng=rng) for a, b in zip(dims[:-1], dims[1:])
        ]

    @property
    def num_layers(self) -> int:
        return len(self.convs)

    def forward(self, h: Tensor, norm_adj: np.ndarray) -> Tensor:
        for i, conv in enumerate(self.convs):
            h = conv(h, norm_adj)
            if i < len(self.convs) - 1:
                h = h.relu()
        return h.relu()
