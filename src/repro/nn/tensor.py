"""Reverse-mode automatic differentiation on NumPy arrays.

This is the substrate that replaces ``torch.Tensor`` for the READYS agent:
the library's autograd (imitation learning, gradcheck, anomaly mode), the
path of the training updates the array step does not take, and the oracle
the tape-free forward (:mod:`repro.nn.array_forward`) and the array
training step (:func:`repro.nn.compile.array_step`) are tested against.
Neither of those runs through it.
Design notes (per the hpc-parallel guides: vectorise, avoid copies):

* every op records a backward closure over the *parent* tensors; gradients
  are accumulated in ``.grad`` (a plain ndarray) during :meth:`Tensor.backward`
  via a topological sweep;
* broadcasting is supported everywhere through :func:`_unbroadcast`, which
  sums gradients over broadcast axes;
* a global ``no_grad`` switch disables graph recording.

Only the operations required by the agent and its tests are implemented, but
each is implemented completely (forward + backward + broadcasting).

Correctness sanitizers (the runtime half of :mod:`repro.analysis`):

* **version counters** — every tensor carries a version counter shared with
  its detached views; assigning through the ``data`` property (including the
  ``t.data += …`` idiom) bumps it, and :meth:`Tensor.bump_version` records
  other sanctioned buffer writes.  Ops snapshot their parents' versions
  when they build the graph; :meth:`Tensor.backward` validates the whole graph *before*
  running any closure and raises naming the offending tensor and op if a
  captured buffer changed — the PyTorch version-counter semantics, rebuilt
  on NumPy;
* **anomaly mode** — inside :func:`detect_anomaly`, every op records its
  provenance on the tensors it produces, forward outputs are checked for
  NaN/Inf as they are created, and the backward sweep checks every gradient
  it propagates, raising :class:`AnomalyError` that names the producing op.
"""

from __future__ import annotations

import contextlib
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, list, tuple]

_GRAD_ENABLED = True

def is_grad_enabled() -> bool:
    """Whether autograd graph recording is currently active."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording (inference mode)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over axes that were added or broadcast to reach ``grad.shape``.

    Inverse of NumPy broadcasting for gradient accumulation: if the forward op
    broadcast an operand of ``shape`` up to ``grad.shape``, the operand's
    gradient is the sum of ``grad`` over the broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Remove leading axes that were prepended by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes where the original dimension was 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: ArrayLike) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    return arr


class AnomalyError(RuntimeError):
    """A NaN/Inf appeared in forward data or backward grads (anomaly mode)."""


_ANOMALY_ENABLED = False


def is_anomaly_enabled() -> bool:
    """Whether :func:`detect_anomaly` is currently active."""
    return _ANOMALY_ENABLED


@contextlib.contextmanager
def detect_anomaly():
    """Context manager that hunts NaN/Inf through the autograd graph.

    While active, each op stamps its name onto the tensor it produces, checks
    its forward output for non-finite values, and :meth:`Tensor.backward`
    checks every gradient as it flows; the first anomaly raises
    :class:`AnomalyError` naming the producing op and its inputs.  Debug
    tooling — every array is fully scanned per op, so keep it out of
    production training loops (mirrors ``torch.autograd.detect_anomaly``).
    """
    global _ANOMALY_ENABLED
    prev = _ANOMALY_ENABLED
    _ANOMALY_ENABLED = True
    try:
        yield
    finally:
        _ANOMALY_ENABLED = prev


def _op_from_backward(backward: Optional[Callable]) -> str:
    """Op name from a backward closure's qualname.

    Every op defines its closure as ``<op>.<locals>.backward`` (e.g.
    ``Tensor.exp.<locals>.backward`` or ``segment_sum.<locals>.backward``),
    so the producing op can be recovered without any per-op bookkeeping.
    """
    if backward is None:
        return ""
    qualname = getattr(backward, "__qualname__", "")
    return qualname.split(".<locals>")[0].rsplit(".", 1)[-1]


class Tensor:
    """A NumPy array with reverse-mode autograd.

    Parameters
    ----------
    data:
        Array-like payload; stored as ``float64``.
    requires_grad:
        Whether gradients should be accumulated into this tensor.
    """

    __slots__ = (
        "_data", "grad", "requires_grad", "_backward", "_parents", "name",
        "_grad_owned", "_version", "_parent_versions", "_op",
    )

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        *,
        _parents: Tuple["Tensor", ...] = (),
        _backward: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
    ) -> None:
        self._data = _as_array(data)
        # Single-element list so detached views share the counter with their
        # base (they alias the same buffer) — PyTorch's _version semantics.
        self._version: List[int] = [0]
        self._parent_versions: Optional[Tuple[int, ...]] = None
        self._op = ""
        self.grad: Optional[np.ndarray] = None
        self._grad_owned = False
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward
        self.name = name

    # ------------------------------------------------------------------ #
    # payload access & version counting
    # ------------------------------------------------------------------ #

    @property
    def data(self) -> np.ndarray:
        """The underlying float64 array."""
        return self._data

    @data.setter
    def data(self, value: ArrayLike) -> None:
        # Assignment through the property is the *sanctioned* write path —
        # it covers both rebinds (``t.data = arr``) and the augmented
        # in-place idiom (``t.data -= g`` binds the mutated buffer back).
        # Each write bumps the version counter so backward can detect
        # mutation of captured buffers.
        self._data = value if isinstance(value, np.ndarray) else _as_array(value)
        self._version[0] += 1

    def bump_version(self) -> None:
        """Record a sanctioned in-place write that bypassed the ``data`` setter.

        nn-internal code that mutates the buffer through a borrowed reference
        (e.g. a cached view) must call this so stale backward closures still
        fail loudly instead of silently using corrupted values.
        """
        self._version[0] += 1

    @property
    def version(self) -> int:
        """Number of sanctioned writes to this tensor's buffer so far."""
        return self._version[0]

    def op_name(self) -> str:
        """Name of the op that produced this tensor ('' for leaves)."""
        return self._op or _op_from_backward(self._backward)

    def _describe(self) -> str:
        if self.name:
            return f"tensor '{self.name}'"
        op = self.op_name()
        if op:
            return f"output of op '{op}' (shape {self.shape})"
        return f"leaf tensor of shape {self.shape}"

    def _check_versions(self) -> None:
        """Raise if any buffer captured for this node's backward was mutated."""
        if self._parent_versions is None:
            return
        if self._version[0] != 0:
            raise RuntimeError(
                f"autograd sanitizer: the {self._describe()} was modified in "
                f"place {self._version[0]} time(s) after the op produced it; "
                f"its backward closure would read corrupted values. Clone the "
                f"tensor before mutating, or mutate after backward()."
            )
        for parent, captured in zip(self._parents, self._parent_versions):
            if parent._version[0] != captured:
                raise RuntimeError(
                    f"autograd sanitizer: the {parent._describe()}, captured "
                    f"by the backward of op '{self.op_name()}', was modified "
                    f"in place (version {parent._version[0]}, captured at "
                    f"version {captured}). Clone the tensor before mutating, "
                    f"or mutate after backward()."
                )

    # ------------------------------------------------------------------ #
    # basic protocol
    # ------------------------------------------------------------------ #

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4)}{grad_flag})"

    def item(self) -> float:
        """Return the scalar payload of a 1-element tensor."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._raise_item()

    @staticmethod
    def _raise_item() -> float:
        raise ValueError("item() requires a tensor with exactly one element")

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy; treat as read-only)."""
        return self.data

    def detach(self) -> "Tensor":
        """A view of this tensor cut off from the autograd graph.

        The view aliases the same buffer, so it shares this tensor's version
        counter: writes through either handle are seen by both.
        """
        out = Tensor(self._data, requires_grad=False)
        out._version = self._version
        return out

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None
        self._grad_owned = False

    # ------------------------------------------------------------------ #
    # graph construction helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def _lift(value: Union["Tensor", ArrayLike]) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def _make(
        self,
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        if not requires:
            out = Tensor(data)
        else:
            out = Tensor(data, requires_grad=True, _parents=parents, _backward=backward)
            out._parent_versions = tuple(p._version[0] for p in parents)
        if _ANOMALY_ENABLED:
            out._op = op = _op_from_backward(backward)
            if not np.all(np.isfinite(out._data)):
                inputs = ", ".join(p._describe() for p in parents) or "no inputs"
                raise AnomalyError(
                    f"detect_anomaly: op '{op}' produced non-finite values in "
                    f"its forward output (shape {out.shape}); inputs: {inputs}"
                )
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        # Copy-on-write: the first contribution is stored by reference (it is
        # almost always a freshly allocated array a backward closure will
        # never touch again — copying it doubled the allocation traffic of a
        # batched update); a second contribution allocates the sum instead of
        # mutating, so an aliased first array can never be corrupted.
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.asarray(grad, dtype=np.float64)
            self._grad_owned = False
        elif self._grad_owned:
            self.grad += grad
        else:
            self.grad = self.grad + grad
            self._grad_owned = True

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #

    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._lift(other)
        out_data = self.data + other.data

        def backward(g: np.ndarray) -> None:
            self._accumulate(_unbroadcast(g, self.shape))
            other._accumulate(_unbroadcast(g, other.shape))

        return self._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(g: np.ndarray) -> None:
            self._accumulate(-g)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._lift(other)
        out_data = self.data - other.data

        def backward(g: np.ndarray) -> None:
            self._accumulate(_unbroadcast(g, self.shape))
            other._accumulate(_unbroadcast(-g, other.shape))

        return self._make(out_data, (self, other), backward)

    def __rsub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self._lift(other).__sub__(self)

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._lift(other)
        out_data = self.data * other.data

        def backward(g: np.ndarray) -> None:
            self._accumulate(_unbroadcast(g * other.data, self.shape))
            other._accumulate(_unbroadcast(g * self.data, other.shape))

        return self._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._lift(other)
        out_data = self.data / other.data

        def backward(g: np.ndarray) -> None:
            self._accumulate(_unbroadcast(g / other.data, self.shape))
            other._accumulate(
                _unbroadcast(-g * self.data / (other.data**2), other.shape)
            )

        return self._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self._lift(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * exponent * self.data ** (exponent - 1))

        return self._make(out_data, (self,), backward)

    def __matmul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._lift(other)
        if self.ndim not in (1, 2) or other.ndim not in (1, 2):
            raise ValueError("matmul supports 1-D and 2-D operands only")
        out_data = self.data @ other.data

        def backward(g: np.ndarray) -> None:
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:  # dot product, g scalar
                self._accumulate(g * b)
                other._accumulate(g * a)
            elif a.ndim == 2 and b.ndim == 2:
                self._accumulate(g @ b.T)
                other._accumulate(a.T @ g)
            elif a.ndim == 1:  # (k,) @ (k, n) -> (n,)
                self._accumulate(g @ b.T)
                other._accumulate(np.outer(a, g))
            else:  # (m, k) @ (k,) -> (m,)
                self._accumulate(np.outer(g, b))
                other._accumulate(a.T @ g)

        return self._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------ #
    # elementwise non-linearities
    # ------------------------------------------------------------------ #

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * out_data)

        return self._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g / self.data)

        return self._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = np.where(mask, self.data, 0.0)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * mask)

        return self._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * (1.0 - out_data**2))

        return self._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * out_data * (1.0 - out_data))

        return self._make(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        out_data = np.abs(self.data)

        def backward(g: np.ndarray) -> None:
            self._accumulate(g * sign)

        return self._make(out_data, (self,), backward)

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #

    def sum(
        self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False
    ) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> None:
            grad = np.asarray(g)
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else axis
                for ax in sorted(a % self.ndim for a in axes):
                    grad = np.expand_dims(grad, ax)
            self._accumulate(np.broadcast_to(grad, self.shape))

        return self._make(out_data, (self,), backward)

    def mean(
        self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False
    ) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = (axis,) if isinstance(axis, int) else axis
            count = 1
            for ax in axes:
                count *= self.shape[ax % self.ndim]
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def max(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> None:
            grad = np.asarray(g)
            out_full = out_data
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
                out_full = np.expand_dims(out_data, axis)
            # Split gradient equally among ties (matches subgradient choice).
            mask = self.data == out_full
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(np.where(mask, grad / counts, 0.0))

        return self._make(out_data, (self,), backward)

    def min(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------ #
    # shape ops
    # ------------------------------------------------------------------ #

    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original = self.shape

        def backward(g: np.ndarray) -> None:
            self._accumulate(np.asarray(g).reshape(original))

        return self._make(out_data, (self,), backward)

    def flatten(self) -> "Tensor":
        return self.reshape(-1)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def transpose(self) -> "Tensor":
        out_data = self.data.T

        def backward(g: np.ndarray) -> None:
            self._accumulate(np.asarray(g).T)

        return self._make(out_data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]
        # Decided once at forward time: a duplicate-free 1-D integer gather
        # (row selections, permutations) can scatter its gradient by direct
        # assignment, bypassing the much slower np.add.at buffering.
        no_duplicates = (
            isinstance(index, np.ndarray)
            and index.ndim == 1
            and index.dtype.kind in "iu"
            and np.unique(index).size == index.size
        )

        def backward(g: np.ndarray) -> None:
            grad = np.zeros_like(self.data)
            if no_duplicates:
                grad[index] = g
            else:
                np.add.at(grad, index, g)
            self._accumulate(grad)

        if out_data.base is not None:  # basic slicing returned a view
            out_data = np.array(out_data, copy=True)
        return self._make(out_data, (self,), backward)

    @staticmethod
    def concatenate(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._lift(t) for t in tensors]
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(g: np.ndarray) -> None:
            g = np.asarray(g)
            for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                t._accumulate(g[tuple(sl)])

        ref = tensors[0]
        return ref._make(out_data, tuple(tensors), backward)

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [Tensor._lift(t) for t in tensors]
        out_data = np.stack([t.data for t in tensors], axis=axis)

        def backward(g: np.ndarray) -> None:
            g = np.asarray(g)
            for i, t in enumerate(tensors):
                t._accumulate(np.take(g, i, axis=axis))

        ref = tensors[0]
        return ref._make(out_data, tuple(tensors), backward)

    # ------------------------------------------------------------------ #
    # backward pass
    # ------------------------------------------------------------------ #

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        ``grad`` defaults to 1 for scalar outputs (the usual loss case).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor without grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = np.broadcast_to(_as_array(grad), self.shape)

        topo: List[Tensor] = []
        visited = set()

        def visit(node: Tensor) -> None:
            stack = [(node, iter(node._parents))]
            visited.add(id(node))
            while stack:
                current, parents = stack[-1]
                advanced = False
                for parent in parents:
                    if id(parent) not in visited and parent.requires_grad:
                        visited.add(id(parent))
                        stack.append((parent, iter(parent._parents)))
                        advanced = True
                        break
                if not advanced:
                    topo.append(current)
                    stack.pop()

        visit(self)
        # Validate every captured buffer *before* running any closure: a
        # single corrupted tensor fails the whole pass up front (no partial
        # gradient state), and the error names the tensor and the op.
        for node in topo:
            node._check_versions()
        anomaly = _ANOMALY_ENABLED
        if anomaly and not np.all(np.isfinite(grad)):
            raise AnomalyError(
                f"detect_anomaly: non-finite seed gradient passed to "
                f"backward() of the {self._describe()}"
            )
        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                if anomaly and not np.all(np.isfinite(node.grad)):
                    raise AnomalyError(
                        f"detect_anomaly: non-finite gradient flowing into "
                        f"the backward of the {node._describe()}"
                    )
                node._backward(node.grad)
                if anomaly:
                    for parent in node._parents:
                        if parent.grad is not None and not np.all(
                            np.isfinite(parent.grad)
                        ):
                            raise AnomalyError(
                                f"detect_anomaly: backward of op "
                                f"'{node.op_name()}' produced a non-finite "
                                f"gradient for the {parent._describe()}"
                            )
