"""The unified query subsystem: cost-based, int-native planning and
execution for conjunctive queries, entailment, and chase discovery.

``repro.query`` owns join *ordering* for every consumer of conjunction
matching (:func:`~repro.query.planner.order_for` with the ``cost`` and
``heuristic`` policies) and the int-native evaluation surface
(:class:`~repro.query.compiled.CompiledQuery`), which picks its own
execution tier per plan (:mod:`repro.query.kernels`).  The object-level
:func:`repro.model.homomorphisms` API is unchanged and remains the
compatibility surface and differential-test oracle.
"""

from .compiled import CompiledQuery
from .kernels import numpy_active
from .planner import (
    ORDER_POLICIES,
    estimate_extension,
    order_atoms_cost,
    order_for,
)

__all__ = [
    "ORDER_POLICIES",
    "CompiledQuery",
    "estimate_extension",
    "numpy_active",
    "order_atoms_cost",
    "order_for",
]
