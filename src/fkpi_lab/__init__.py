"""Numerical laboratory for the fifth-order-to-KP family of dispersive PDE

    u_t - |D_x|^alpha u_x - dx^{-1} dyy u = u u_x,   2 <= alpha < 4,

providing a dealiased pseudospectral solver together with quantitative
probes of dispersion-driven estimates: resonance size laws, transversality
of the characteristic surfaces, Strichartz-type space-time ratios,
anisotropic scaling exponents, and the quadratic norm-growth mechanism of
the second Picard iterate.
"""

__version__ = "0.1.0"

from .grid import (
    FrequencyGrid,
    SpectralField,
    dealiased_product,
    fractional_x_derivative,
    load_field,
    save_field,
    to_physical,
    to_spectral,
    x_derivative,
)
from .symbols import (
    DispersionParams,
    resonance_size_scan,
    transversality_check,
)
from .norms import (
    AnisoIndex,
    MixedNormSpec,
    energy_alpha,
    mass,
    sobolev_aniso,
    spacetime_norm,
)
from .evolution import (
    BlowupError,
    EvolutionConfig,
    Trajectory,
    propagate_linear,
    second_iterate_boxdata,
    solve,
    step,
)
from .probes import (
    ExperimentRecord,
    ProbeSweep,
    bilinear_sweep,
    illposedness_growth_study,
    linear_strichartz_sweep,
    lowfreq_l4_sweep,
    lw_band_sweep,
    lw_modulation_sweep,
    nonresonant_modulation_sweep,
    scaling_exponent_fit,
    slope_report,
    trilinear_integral,
    write_records_csv,
    write_records_jsonl,
)

__all__ = [
    "AnisoIndex",
    "BlowupError",
    "DispersionParams",
    "EvolutionConfig",
    "ExperimentRecord",
    "FrequencyGrid",
    "MixedNormSpec",
    "ProbeSweep",
    "SpectralField",
    "Trajectory",
    "bilinear_sweep",
    "dealiased_product",
    "energy_alpha",
    "fractional_x_derivative",
    "illposedness_growth_study",
    "linear_strichartz_sweep",
    "load_field",
    "lowfreq_l4_sweep",
    "lw_band_sweep",
    "lw_modulation_sweep",
    "mass",
    "nonresonant_modulation_sweep",
    "propagate_linear",
    "resonance_size_scan",
    "save_field",
    "scaling_exponent_fit",
    "second_iterate_boxdata",
    "slope_report",
    "sobolev_aniso",
    "solve",
    "spacetime_norm",
    "step",
    "to_physical",
    "to_spectral",
    "transversality_check",
    "trilinear_integral",
    "write_records_csv",
    "write_records_jsonl",
    "x_derivative",
    "__version__",
]
