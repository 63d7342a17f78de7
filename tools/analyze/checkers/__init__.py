"""Checker registry population: importing this package registers every rule."""

from __future__ import annotations

from . import (  # noqa: F401
    ablation,
    backhaul_policy,
    dependency_policy,
    determinism,
    imports,
    obs_policy,
    parallel_policy,
    rng_policy,
    units,
)

__all__ = [
    "ablation",
    "backhaul_policy",
    "dependency_policy",
    "determinism",
    "imports",
    "obs_policy",
    "parallel_policy",
    "rng_policy",
    "units",
]
