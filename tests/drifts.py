"""Drifts the tests build that no experiment uses."""

import numpy as np

from fbmsde.solver import DriftSpec


def zero_drift() -> DriftSpec:
    """f = 0: the pure-translation reference case (not repulsive, whole-line domain)."""
    zero = lambda t, x: np.zeros_like(np.asarray(x, dtype=np.float64))
    return DriftSpec(
        family="zero",
        f=zero,
        dfdx=zero,
        singularity_exponent=0.0,
        lower_envelope=lambda t: 0.0,
        upper_envelope=lambda t: 0.0,
        positive_domain=False,
    )
