"""Domain decomposition substrate.

Splits the global box domain into structured subdomains, groups subdomains
into clusters (one cluster per simulated MPI process / GPU), detects the
interface DOFs shared between subdomains, and builds the Total-FETI gluing
matrices ``B̃ᵢ`` (inter-subdomain equality constraints plus Dirichlet rows)
together with the kernel bases ``Rᵢ`` and the analytic regularization of the
singular subdomain stiffness matrices.
"""

from repro.decomposition.partition import BoxDecomposition, Subdomain, decompose_box
from repro.decomposition.gluing import GluingData, SubdomainGluing, build_gluing
from repro.decomposition.kernel import (
    RegularizedStiffness,
    fixing_dofs_for,
    regularize_stack,
    regularize_stiffness,
    select_fixing_nodes,
)

__all__ = [
    "BoxDecomposition",
    "Subdomain",
    "decompose_box",
    "GluingData",
    "SubdomainGluing",
    "build_gluing",
    "RegularizedStiffness",
    "fixing_dofs_for",
    "regularize_stack",
    "regularize_stiffness",
    "select_fixing_nodes",
]
