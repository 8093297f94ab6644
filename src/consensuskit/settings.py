"""Numeric tolerances used throughout the toolkit.

All thresholds live in one mutable record so that a caller who needs to
tighten or relax them can do so in a single place::

    from consensuskit.settings import settings
    settings.care_residual_tol = 1e-10
"""

from dataclasses import dataclass


@dataclass
class NumericSettings:
    # linear algebra
    lyapunov_residual_tol: float = 1e-10
    care_residual_tol: float = 1e-8
    care_max_iterations: int = 200
    hurwitz_tol: float = 1e-12

    # graphs
    laplacian_zero_tol: float = 1e-9
    balance_tol: float = 1e-12

    # synthesis
    conjugate_pair_tol: float = 1e-9
    stable_pole_tol: float = 1e-9
    observability_sv_tol: float = 1e-9
    observer_placement_tol: float = 1e-6
    spectrum_match_tol: float = 1e-7

    # switching
    generator_row_tol: float = 1e-12
    stationary_residual_tol: float = 1e-10

    # simulation
    beta_floor: float = 1e-9
    finite_escape_norm: float = 1e6

    # metrics
    rate_floor: float = 1e-15


settings = NumericSettings()
