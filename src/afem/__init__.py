"""Adaptive hierarchical B-spline finite elements for the clamped
biharmonic problem on the unit square.

The package implements the full adaptive loop
solve -> estimate -> mark -> refine for the fourth-order problem
``lap^2 u = f`` with ``u = du/dn = 0``, in two discretization modes: a
C1-conforming spline Galerkin method and a weak-boundary (Nitsche)
method with projected-Laplacian boundary terms, together with a
residual a posteriori estimator, Doerfler marking, graded quadtree
refinement, and a convergence-measurement harness.
"""

from importlib import import_module

__all__ = [
    "Cell", "Edge", "Partition", "ShapeReport", "uniform_partition",
    "refine", "edges", "support_extension", "shape_report",
    "HierarchicalSpace", "SplineFunction", "build_space", "conforming_indices",
    "quasi_interpolant", "coarse_to_fine", "save_solution", "load_solution",
    "QuadratureRule", "gauss_cell", "gauss_edge",
    "NotSPDError", "solve",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    """The public names, from the modules that define them, imported on
    first access: a bare ``import afem`` (as ``afem --help`` makes) loads
    neither numpy nor scipy."""
    if name in __all__:
        for module in ("mesh", "splines", "quadrature", "solver"):
            value = getattr(import_module(f".{module}", __name__), name, None)
            if value is not None:
                return value
    raise AttributeError(f"module 'afem' has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
