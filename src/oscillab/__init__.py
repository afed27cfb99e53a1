"""Oscillating sequences, mean-stable flows, and disjointness experiments.

The package has one module per subject area: ``sequences`` (weight
generators and Cesaro spectra), ``flows`` (the one ``Flow`` type and the
orbit streams), ``torus``, ``padic``, ``interval``, and ``circle``
(concrete flow families; each builds plain ``Flow`` values that parse
their own start points), ``analysis`` (the weighted-averaging engine and
stability probes), ``registry`` (the names configs use for sequences,
flows and observables) and ``cli`` (the experiment runner).  Each object
has one implementation: the paper's counterexample runs on the registered
``torus_affine`` flow, with ``counterexample_prefix_means`` as its
closed-form reference.
"""

__version__ = "0.1.0"

from .analysis import (
    DisjointnessReport,
    autocorrelation_spectrum,
    hooked_disjointness,
    mean_attraction_test,
    mls_bad_density,
    shadow_periodic,
    weighted_birkhoff,
)
from .circle import DenjoyMap, build_denjoy, rotation_flow, rotation_number
from .flows import Flow, Observable, orbit, orbit_distance_trace
from .interval import (
    QuadraticMap,
    attractor_coding,
    cascade,
    feigenbaum_parameter,
    find_cycle,
    renormalize,
    schwarzian,
)
from .padic import PadicInt, PadicPoly, ProjPoint, adding_machine, poly_flow, spherical_dist
from .sequences import (
    SpectrumReport,
    WeightSequence,
    cesaro_mean,
    liouville,
    mobius,
    nlogn_phase_sequence,
    polynomial_phase_sequence,
    quadratic_phase_sequence,
    quadratic_rational_spectrum,
    subnormal_sequence,
    zero_set_scan,
)
from .torus import (
    ModularMatrix,
    classify_entropy,
    conjugacy_equivalent,
    counterexample_prefix_means,
    diag_bound,
    normal_form,
)

__all__ = [
    "__version__",
    "DisjointnessReport",
    "autocorrelation_spectrum",
    "hooked_disjointness",
    "mean_attraction_test",
    "mls_bad_density",
    "shadow_periodic",
    "weighted_birkhoff",
    "DenjoyMap",
    "build_denjoy",
    "rotation_flow",
    "rotation_number",
    "Flow",
    "Observable",
    "orbit",
    "orbit_distance_trace",
    "QuadraticMap",
    "attractor_coding",
    "cascade",
    "feigenbaum_parameter",
    "find_cycle",
    "renormalize",
    "schwarzian",
    "PadicInt",
    "PadicPoly",
    "ProjPoint",
    "adding_machine",
    "poly_flow",
    "spherical_dist",
    "SpectrumReport",
    "WeightSequence",
    "cesaro_mean",
    "liouville",
    "mobius",
    "nlogn_phase_sequence",
    "polynomial_phase_sequence",
    "quadratic_phase_sequence",
    "quadratic_rational_spectrum",
    "subnormal_sequence",
    "zero_set_scan",
    "ModularMatrix",
    "classify_entropy",
    "conjugacy_equivalent",
    "counterexample_prefix_means",
    "diag_bound",
    "normal_form",
]
