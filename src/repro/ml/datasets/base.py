"""Dataset interface: data-parallel partitioning and batch sampling.

Matches the paper's setup (Section II-B): training samples are partitioned
into D_1 … D_m, one per worker; each worker samples mini-batches from its
own partition only.  A held-out evaluation batch measures the global loss
curve the figures plot.
"""

from __future__ import annotations

import abc
from typing import List

import numpy as np

from repro.ml.models.base import Batch

__all__ = ["Dataset", "Partition"]


class Partition:
    """One worker's shard: a view over a subset of sample indices."""

    def __init__(self, dataset: "Dataset", indices: np.ndarray):
        if len(indices) == 0:
            raise ValueError("a partition must contain at least one sample")
        self.dataset = dataset
        # own the index array: a caller mutating its copy after
        # partitioning must not silently reshuffle this shard
        self.indices = np.array(indices, dtype=np.int64, copy=True)

    def __len__(self) -> int:
        return len(self.indices)

    def sample_batch(self, rng: np.random.Generator, batch_size: int) -> Batch:
        """Draw a with-replacement mini-batch from this shard.

        ``Generator.choice(indices, replace=True)`` draws exactly these
        ``integers`` and indexes with them, after a generic prologue that
        costs more than the draw; a test pins the two streams equal.
        """
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        positions = rng.integers(0, len(self.indices), size=batch_size)
        return self.dataset.gather(self.indices[positions])


class Dataset(abc.ABC):
    """A training dataset with a held-out evaluation batch."""

    @property
    @abc.abstractmethod
    def num_samples(self) -> int:
        """Number of training samples."""

    @abc.abstractmethod
    def gather(self, indices: np.ndarray) -> Batch:
        """Materialize the samples at ``indices`` as a model batch."""

    @abc.abstractmethod
    def eval_batch(self) -> Batch:
        """The held-out batch used to trace the global loss curve."""

    def partition(self, num_workers: int, rng: np.random.Generator) -> List[Partition]:
        """Shuffle-split training samples into ``num_workers`` equal shards."""
        if num_workers <= 0:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        if num_workers > self.num_samples:
            raise ValueError(
                f"cannot split {self.num_samples} samples over {num_workers} workers"
            )
        order = rng.permutation(self.num_samples)
        shards = np.array_split(order, num_workers)
        return [Partition(self, shard) for shard in shards]
