"""Exhaustive NCC placement search (see `ncc_numpy`)."""

from .ncc_numpy import ncc_best, ncc_map

__all__ = ["ncc_best", "ncc_map"]
