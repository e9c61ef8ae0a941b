"""``SpectralBasis``: the carrier count K that ``run``, ``bound_report`` and
``gaussian_ccdf_bound`` check their inputs against.  perfbench's workloads
build one with ``build_basis`` and pass it on, so the benchmark's
signatures pin both; ROADMAP item 5 deletes them with the benchmark's edit.
"""

from __future__ import annotations


class SpectralBasis:
    """Carrier count K >= 2, kept as ``size``."""

    def __init__(self, k_carriers: int):
        if k_carriers < 2:
            raise ValueError("carrier count K must be at least 2")
        self.size = int(k_carriers)


def build_basis(k_carriers: int) -> SpectralBasis:
    return SpectralBasis(k_carriers)
