"""Partition bookkeeping and hierarchy checks for multi-mode imaginarity.

The covariance-ratio measure is defined mode-wise, so its value cannot depend
on how modes are grouped into parties; discarding modes can only lower it.
These facts are shipped as runnable checks returning both sides of each
inequality rather than a bare boolean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .measures import imaginarity
from .states import ZERO_TOL, GaussianState


@dataclass(frozen=True)
class Partition:
    """Ordered grouping of mode indices into disjoint nonempty blocks."""

    blocks: tuple[tuple[int, ...], ...]

    def __init__(self, blocks: Sequence[Sequence[int]]):
        normalized = tuple(tuple(int(m) for m in block) for block in blocks)
        if not normalized:
            raise ValueError("partition needs at least one block")
        seen: set[int] = set()
        for block in normalized:
            if not block:
                raise ValueError("partition blocks must be nonempty")
            for m in block:
                if m in seen:
                    raise ValueError(f"mode {m} appears in more than one block")
                seen.add(m)
        object.__setattr__(self, "blocks", normalized)

    def modes(self) -> tuple[int, ...]:
        return tuple(m for block in self.blocks for m in block)


class HierarchyCheck(NamedTuple):
    holds: bool
    lhs: float
    rhs: float


def partition_imaginarity(
    state: GaussianState, partition: Partition, zero_tol: float = ZERO_TOL
) -> float:
    """Imaginarity of the state viewed under a partition of all its modes.

    The value is partition-independent by construction; the partition argument
    is validated so the independence stays an executable statement.
    """
    if sorted(partition.modes()) != list(range(1, state.n + 1)):
        raise ValueError(f"partition {partition.blocks} does not cover modes 1..{state.n}")
    return imaginarity(state, zero_tol)


def _reduction_check(state, modes, tol: float, zero_tol: float) -> HierarchyCheck:
    lhs = imaginarity(state.reduce(modes), zero_tol)
    rhs = imaginarity(state, zero_tol)
    return HierarchyCheck(holds=lhs <= rhs + tol, lhs=lhs, rhs=rhs)


def check_reduction_hierarchy(
    state: GaussianState,
    modes: Sequence[int],
    tol: float = 1e-9,
    zero_tol: float = ZERO_TOL,
) -> HierarchyCheck:
    """Compare the imaginarity of a reduced state against that of the whole.

    Returns (holds, lhs, rhs) with lhs the reduced-state value and rhs the
    full-state value; holds iff lhs <= rhs + tol.
    """
    modes = list(modes)
    if len(modes) >= state.n:
        if sorted(modes) == list(range(1, state.n + 1)):
            raise ValueError("subset must be proper")
    return _reduction_check(state, modes, tol, zero_tol)


def check_refinement_hierarchy(
    state: GaussianState,
    coarse: Partition,
    fine: Partition,
    tol: float = 1e-9,
    zero_tol: float = ZERO_TOL,
) -> HierarchyCheck:
    """Compare the state restricted to a block-wise refinement against the whole.

    ``fine`` must pick a nonempty subset out of each block of ``coarse``,
    which must itself cover all modes of the state.
    """
    if sorted(coarse.modes()) != list(range(1, state.n + 1)):
        raise ValueError(f"coarse partition {coarse.blocks} does not cover modes 1..{state.n}")
    if len(fine.blocks) != len(coarse.blocks):
        raise ValueError("refinement must have one block per coarse block")
    for sub, block in zip(fine.blocks, coarse.blocks):
        if not set(sub) <= set(block):
            raise ValueError(f"refinement block {sub} is not contained in {block}")
    return _reduction_check(state, fine.modes(), tol, zero_tol)
