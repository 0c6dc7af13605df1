"""Mixed-precision factor storage and budget-aware factor tiering.

Three layers:

* :mod:`repro.memory.precision` — named storage policies (``fp64`` /
  ``fp32`` / ``fp32_ir``) selected by ``SolverSpec(precision=...)``:
  fp32-resident factors and packed dual-operator blocks, with iterative
  refinement recovering fp64-level residuals;
* :mod:`repro.memory.ledger` — byte-accurate accounting of the factor /
  pack / arena storage every cached solver keeps resident;
* :mod:`repro.memory.tier` — the LRU release of cold entries a
  :class:`~repro.api.session.Session` runs under a configured memory
  ceiling (``memory_budget=`` / ``REPRO_MEMORY_BUDGET``), with transparent
  lazy re-factorization of released entries.
"""

from repro.memory.ledger import EntryBytes, FactorLedger, measure_solver
from repro.memory.precision import (
    PRECISION_NAMES,
    PRECISIONS,
    PrecisionPolicy,
    demote_array,
    demote_factor,
    factor_nbytes,
    resolve_precision,
)
from repro.memory.tier import BudgetError, FactorTier, parse_budget

__all__ = [
    "PrecisionPolicy",
    "PRECISIONS",
    "PRECISION_NAMES",
    "resolve_precision",
    "demote_factor",
    "demote_array",
    "factor_nbytes",
    "EntryBytes",
    "FactorLedger",
    "measure_solver",
    "BudgetError",
    "FactorTier",
    "parse_budget",
]
