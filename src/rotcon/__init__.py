"""Rotated multidimensional constellations for the Rayleigh fast-fading channel."""

__version__ = "0.1.0"

from .constellation import (
    Constellation,
    NuqamParams,
    make_nuqam,
    make_qam_product,
    normalize_energy,
    rotate,
)
from .liegroup import (
    RotationFamily,
    RotationMatrix,
    SkewMatrix,
    expm_skew,
    geodesic_descent,
    gradient_field,
    hadamard,
    logm_rotation,
    rotation_at,
    skew_family,
)
from .metrics import (
    ChannelSpec,
    cutoff_rate,
    diversity_order,
    high_snr_sum,
    is_locally_fully_diverse,
    local_cutoff_rate,
    min_product_distance,
)
from .optimize import (
    cutoff_rate_gradient,
    g_of_t,
    grid_search_t,
    low_snr_optimal_t,
    optimize_nuqam,
    optimize_rotation_full,
)
from .channel import ber_monte_carlo, ml_decode, sample_fade, transmit
from .channel import r0_conditional, r0_expected_mc

__all__ = [
    "Constellation", "NuqamParams", "make_nuqam", "make_qam_product",
    "normalize_energy", "rotate",
    "RotationFamily", "RotationMatrix", "SkewMatrix", "expm_skew",
    "geodesic_descent", "gradient_field", "hadamard", "logm_rotation",
    "rotation_at", "skew_family",
    "ChannelSpec", "cutoff_rate", "diversity_order", "high_snr_sum",
    "is_locally_fully_diverse", "local_cutoff_rate", "min_product_distance",
    "r0_conditional", "r0_expected_mc",
    "cutoff_rate_gradient", "g_of_t", "grid_search_t", "low_snr_optimal_t",
    "optimize_nuqam", "optimize_rotation_full",
    "ber_monte_carlo", "ml_decode", "sample_fade", "transmit",
]
