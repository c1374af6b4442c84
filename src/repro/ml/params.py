"""Named parameter containers.

A :class:`ParamSet` is an ordered mapping from parameter names to numpy
arrays — the unit the parameter server shards, workers pull, and gradients
mirror (a gradient is a ParamSet with the same keys/shapes as the model).
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping

import numpy as np

__all__ = ["ParamSet"]

_FLOAT64 = np.dtype(np.float64)


class ParamSet:
    """An ordered name → ndarray mapping with the vector-space operations
    distributed SGD needs (copy, scale-and-add, norms).

    Arrays are stored as float64 for numerical robustness of the small
    simulation-scale models; wire sizes for transfer accounting come from
    the workload definition (Table I parameter counts at float32), not from
    these arrays — see DESIGN.md fidelity notes.
    """

    __slots__ = ("_arrays",)

    def __init__(self, arrays: Mapping[str, np.ndarray]):
        converted: Dict[str, np.ndarray] = {}
        for key, value in arrays.items():
            if not (isinstance(value, np.ndarray) and value.dtype == _FLOAT64):
                # Conversion only runs for non-float64 input; every internal
                # vector-space operation already produces float64 arrays, so
                # the hot construction paths (copy/scaled/subtract per
                # push/pull) take the no-op branch.
                value = np.asarray(value, dtype=np.float64)
            converted[str(key)] = value
        # Deliberate zero-copy adoption: float64 input arrays are taken by
        # reference (the dtype guard above is a no-op for them), which is
        # what lets ShmParamStore.backing() wrap live shared-memory
        # segments in a ParamSet without a copy.  Callers that need an
        # owning set go through .copy().
        self._arrays: Dict[str, np.ndarray] = converted
        if not converted:
            raise ValueError("ParamSet cannot be empty")

    # ------------------------------------------------------------------
    # Mapping interface
    # ------------------------------------------------------------------
    def __getitem__(self, key: str) -> np.ndarray:
        return self._arrays[key]

    def __contains__(self, key: str) -> bool:
        return key in self._arrays

    def __iter__(self) -> Iterator[str]:
        return iter(self._arrays)

    def __len__(self) -> int:
        return len(self._arrays)

    def keys(self):
        """Parameter names, in insertion order."""
        return self._arrays.keys()

    def items(self):
        """Live (name, array) view pairs, in insertion order.

        The arrays are the set's own buffers, not copies — mutate them
        only when you own the set (the in-place update rules do).
        """
        return self._arrays.items()

    # ------------------------------------------------------------------
    # Vector-space operations
    # ------------------------------------------------------------------
    def copy(self) -> "ParamSet":
        """A deep copy (arrays are duplicated)."""
        return ParamSet({k: v.copy() for k, v in self._arrays.items()})

    def zeros_like(self) -> "ParamSet":
        """A ParamSet of zeros with the same keys and shapes."""
        return ParamSet({k: np.zeros_like(v) for k, v in self._arrays.items()})

    def add_scaled(self, other: "ParamSet", alpha: float) -> None:
        """In-place ``self += alpha * other`` (the SGD apply step)."""
        self._check_compatible(other)
        for key, array in self._arrays.items():
            array += alpha * other._arrays[key]

    def scaled(self, alpha: float) -> "ParamSet":
        """Return ``alpha * self`` as a new ParamSet."""
        return ParamSet({k: alpha * v for k, v in self._arrays.items()})

    def subtract(self, other: "ParamSet") -> "ParamSet":
        """Return ``self - other`` as a new ParamSet."""
        self._check_compatible(other)
        return ParamSet(
            {k: v - other._arrays[k] for k, v in self._arrays.items()}
        )

    def norm(self) -> float:
        """The global L2 norm over all parameters."""
        total = 0.0
        for array in self._arrays.values():
            total += float(np.sum(array * array))
        return float(np.sqrt(total))

    def clip_by_global_norm(self, max_norm: float) -> "ParamSet":
        """Return a copy rescaled so its global L2 norm is at most ``max_norm``."""
        if max_norm <= 0:
            raise ValueError(f"max_norm must be > 0, got {max_norm}")
        current = self.norm()
        if current <= max_norm or current == 0.0:
            return self.copy()
        return self.scaled(max_norm / current)

    # ------------------------------------------------------------------
    # Introspection / serialization
    # ------------------------------------------------------------------
    @property
    def num_elements(self) -> int:
        """Total scalar parameter count."""
        return sum(int(v.size) for v in self._arrays.values())

    def wire_bytes(self, dtype_bytes: int = 4) -> int:
        """Serialized size at ``dtype_bytes`` per element (float32 default)."""
        return self.num_elements * dtype_bytes

    def to_vector(self) -> np.ndarray:
        """Flatten all parameters into one vector (stable key order)."""
        return np.concatenate([v.ravel() for v in self._arrays.values()])

    def from_vector(self, vector: np.ndarray) -> "ParamSet":
        """Inverse of :meth:`to_vector` using this ParamSet's shapes."""
        vector = np.asarray(vector, dtype=np.float64)
        if vector.size != self.num_elements:
            raise ValueError(
                f"vector has {vector.size} elements, expected {self.num_elements}"
            )
        out: Dict[str, np.ndarray] = {}
        offset = 0
        for key, array in self._arrays.items():
            out[key] = vector[offset : offset + array.size].reshape(array.shape)
            offset += array.size
        return ParamSet(out)

    def allclose(self, other: "ParamSet", atol: float = 1e-12) -> bool:
        """True when both ParamSets have identical keys and near-equal values."""
        if set(self.keys()) != set(other.keys()):
            return False
        return all(
            np.allclose(v, other._arrays[k], atol=atol) for k, v in self._arrays.items()
        )

    def _check_compatible(self, other: "ParamSet") -> None:
        theirs = other._arrays
        if set(self._arrays) != set(theirs):
            raise ValueError(
                f"incompatible ParamSets: keys {sorted(self._arrays)} "
                f"vs {sorted(theirs)}"
            )
        for key, array in self._arrays.items():
            if array.shape != theirs[key].shape:
                raise ValueError(
                    f"shape mismatch for {key!r}: "
                    f"{array.shape} vs {theirs[key].shape}"
                )

    def __repr__(self) -> str:
        shapes = ", ".join(f"{k}:{v.shape}" for k, v in self._arrays.items())
        return f"ParamSet({shapes})"
