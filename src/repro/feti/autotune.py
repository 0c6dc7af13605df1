"""Auto-configuration of the explicit assembly (Table II) and exhaustive search.

The paper derives the optimal explicit-assembly parameters from an exhaustive
sweep over the Table-I parameter space; Table II summarizes the outcome:

==========================  ======================  ==========================
Setting                     legacy (CUDA 11.7)      modern (CUDA 12.4)
==========================  ======================  ==========================
path                        SYRK                    SYRK
factor storage              2D: sparse              dense
                            3D < 12k DOFs: dense
                            3D > 12k DOFs: sparse
factor order                sparse: row-major       col-major
                            dense: col-major
RHS memory order            row-major               2D: col-major
                                                    3D: row-major
==========================  ======================  ==========================

:func:`recommend_assembly_config` implements exactly this table;
:func:`exhaustive_parameter_search` re-runs the sweep on a given problem with
the GPU-explicit cost replay (used by the Table II benchmark to *regenerate*
the table rather than hard-code it).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.cluster.topology import MachineConfig
from repro.feti.config import (
    ASSEMBLY_PARAMETER_SPACE,
    AssemblyConfig,
    CudaLibraryVersion,
    DualOperatorApproach,
    FactorOrder,
    FactorStorage,
    Path,
    RhsOrder,
    ScatterGatherDevice,
)

__all__ = [
    "DENSE_SPARSE_CROSSOVER_DOFS",
    "recommend_assembly_config",
    "exhaustive_parameter_search",
    "ConfigMeasurement",
]

#: Subdomain size (DOFs) above which sparse factor storage wins for 3D
#: problems with the legacy cuSPARSE API (Section V-A-b of the paper).
DENSE_SPARSE_CROSSOVER_DOFS: int = 12_000


def recommend_assembly_config(
    cuda_library: CudaLibraryVersion,
    dim: int,
    dofs_per_subdomain: int,
    scatter_gather: ScatterGatherDevice = ScatterGatherDevice.GPU,
) -> AssemblyConfig:
    """Return the Table-II recommended configuration.

    Parameters
    ----------
    cuda_library:
        CUDA library generation.
    dim:
        Problem dimensionality (2 or 3).
    dofs_per_subdomain:
        Size of a subdomain (drives the sparse/dense crossover for legacy
        CUDA on 3D problems).
    scatter_gather:
        The paper recommends the GPU for scatter/gather (Fig. 4); expose the
        parameter so the ablation benchmark can override it.
    """
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    if cuda_library is CudaLibraryVersion.MODERN:
        storage = FactorStorage.DENSE
        factor_order = FactorOrder.COL_MAJOR
        rhs_order = RhsOrder.COL_MAJOR if dim == 2 else RhsOrder.ROW_MAJOR
    else:
        if dim == 2:
            storage = FactorStorage.SPARSE
        elif dofs_per_subdomain > DENSE_SPARSE_CROSSOVER_DOFS:
            storage = FactorStorage.SPARSE
        else:
            storage = FactorStorage.DENSE
        factor_order = (
            FactorOrder.ROW_MAJOR
            if storage is FactorStorage.SPARSE
            else FactorOrder.COL_MAJOR
        )
        rhs_order = RhsOrder.ROW_MAJOR
    return AssemblyConfig(
        path=Path.SYRK,
        forward_factor_storage=storage,
        backward_factor_storage=storage,
        forward_factor_order=factor_order,
        backward_factor_order=factor_order,
        rhs_order=rhs_order,
        scatter_gather=scatter_gather,
    )


@dataclass
class ConfigMeasurement:
    """One point of the exhaustive parameter sweep."""

    config: AssemblyConfig
    preprocessing_seconds: float
    application_seconds: float

    @property
    def total(self) -> float:
        """Preprocessing plus one application (the sweep's ranking metric)."""
        return self.preprocessing_seconds + self.application_seconds


def _iter_configs(
    restrict_to_syrk_compatible: bool = True,
) -> list[AssemblyConfig]:
    keys = list(ASSEMBLY_PARAMETER_SPACE)
    configs = []
    for values in itertools.product(*(ASSEMBLY_PARAMETER_SPACE[k] for k in keys)):
        kwargs = dict(zip(keys, values))
        cfg = AssemblyConfig(**kwargs)
        if (
            restrict_to_syrk_compatible
            and cfg.path is Path.SYRK
            and (
                cfg.backward_factor_storage is not cfg.forward_factor_storage
                or cfg.backward_factor_order is not cfg.forward_factor_order
            )
        ):
            # The SYRK path has no backward solve; skip redundant duplicates.
            continue
        configs.append(cfg)
    return configs


def exhaustive_parameter_search(
    problem,
    cuda_library: CudaLibraryVersion,
    machine_config: MachineConfig | None = None,
    configs: list[AssemblyConfig] | None = None,
) -> list[ConfigMeasurement]:
    """Measure every assembly configuration on a problem (simulated times).

    Returns measurements sorted by total time (best first).  This is the
    computation behind Table II and Figure 2.  Only the cost replay runs:
    the problem is analysed once, and every configuration is priced on a
    fresh machine from that one shape table — no factorization, no
    assembly.
    """
    from repro.feti.operators import replay_for

    approach = (
        DualOperatorApproach.EXPLICIT_GPU_LEGACY
        if cuda_library is CudaLibraryVersion.LEGACY
        else DualOperatorApproach.EXPLICIT_GPU_MODERN
    )
    shapes = None
    results = []
    for config in configs or _iter_configs():
        replay = replay_for(approach, problem, machine_config, config, shapes)
        shapes = replay.shapes
        replay.prepare()
        results.append(
            ConfigMeasurement(
                config=config,
                preprocessing_seconds=replay.preprocess()[0],
                application_seconds=replay.apply()[0],
            )
        )
    results.sort(key=lambda m: m.total)
    return results
