"""Closed-form reference expressions used as independent cross-checks.

These are evaluated directly from trigonometric formulas, never through the
matrix engine, so tests and the `check` command can compare the two routes.
Since U^T = U (see `ptdyn`), the entangled-pair partner state (U^dag U)^T / tr
equals U U^dagger / tr, so `uu_dagger_reference` is the closed form of both.
A published pair correlator is its numerator over its normalization, each a function of
its own, so a reader of both (`check --pair-closed-forms`) evaluates each form once.
"""

from __future__ import annotations

import numpy as np

from .errors import UsageError


def uu_dagger_reference(alpha, t) -> np.ndarray:
    """U U^dagger = [[d1, i d2], [-i d2, d3]]; an (N, 2, 2) stack for arrays alpha and t."""
    sec = 1.0 / np.cos(alpha)
    d1 = sec**2 * (np.cos(t - alpha) ** 2 + np.sin(t) ** 2)
    d2 = 2.0 * sec * np.sin(t) ** 2 * np.tan(alpha)
    d3 = sec**2 * (np.cos(t + alpha) ** 2 + np.sin(t) ** 2)
    m = np.array([[d1, 1j * d2], [-1j * d2, d3]], dtype=complex)
    return np.moveaxis(m, (0, 1), (-2, -1))


def unitary_l13(t: float) -> float:
    """State-independent three-time LG value under unitary steps: 2cos2t - cos4t."""
    return 2.0 * np.cos(2 * t) - np.cos(4 * t)


def unitary_v3(t: float, theta: float, phi: float) -> float:
    """Closed form of the three-time variant expression V3 for unitary steps."""
    return (
        np.cos(2 * t) * (1.0 + 4.0 * np.sin(t) ** 2 * np.cos(2 * theta))
        + 2.0 * np.sin(t) ** 2 * np.cos(2 * theta)
        - np.sin(4 * t) * np.sin(2 * theta) * np.sin(phi)
    )


def pair_normalization_reference(alpha: float, t: float, pair: tuple[int, int]) -> float:
    """Published per-pair normalization constants for the mixed-state sigma_y protocol.

    Retained verbatim.  They are the context weights of the published chain
    (`pt_standard(..., published=True)`; see `protocol`), which reproduces
    them to roundoff; the default sequential chain does not (see README).
    """
    sec = 1.0 / np.cos(alpha)
    s, c = np.sin(t), np.cos(t)
    cos = np.cos
    if pair == (1, 2):
        return 0.5 * (
            1024 * sec**6 * s**6 * c**4
            + 64 * sec**4 * s**4 * c**2 * (2 * cos(2 * t) + 5 * cos(4 * t) - 1)
            + 4 * sec**2 * s**2 * (2 * cos(2 * t) - cos(4 * t)
                                   + 4 * (cos(6 * t) + cos(8 * t) + 1))
            + cos(2 * t) + cos(10 * t)
        )
    if pair == (2, 3):
        return (
            128 * sec**6 * s**6 * (2 * c + cos(3 * t)) ** 2
            + 8 * sec**4 * s**4 * cos(4 * t) * (24 * cos(2 * t) + 10 * cos(4 * t) + 15)
            + 2 * sec**2 * s**2 * (2 * cos(4 * t) - 1)
            * (7 * cos(2 * t) + 4 * cos(4 * t) + 4 * cos(6 * t) + 3)
            + cos(6 * t) ** 2
        )
    if pair == (1, 3):
        return 0.5 * (
            256 * sec**6 * s**6 * (2 * c + cos(3 * t)) ** 2
            + 16 * sec**4 * s**4 * (6 * cos(2 * t) + 13 * cos(4 * t)
                                    + 12 * cos(6 * t) + 5 * cos(8 * t) + 1)
            + 4 * sec**2 * s**2 * (7 * cos(2 * t) + cos(6 * t)
                                   + 4 * (cos(8 * t) + cos(10 * t) + 1))
            + cos(4 * t) + cos(12 * t)
        )
    raise UsageError(f"unknown pair {pair}")


def pair_numerator_reference(alpha: float, t: float, pair: tuple[int, int]) -> float:
    """Numerators of the published pairwise sigma_y correlators, each over its
    `pair_normalization_reference` constant.  Retained verbatim."""
    sec = 1.0 / np.cos(alpha)
    s, c = np.sin(t), np.cos(t)
    cos = np.cos
    if pair == (1, 2):
        return (
            cos(4 * t)
            + 2**9 * sec**6 * s**6 * c**4
            + 2**7 * sec**4 * s**4 * c**4 * (4 * cos(2 * t) - 3)
            + 2 * sec**2 * s**2 * (2 * cos(4 * t) - 1)
            * (2 * cos(2 * t) + 2 * cos(4 * t) - 1)
        )
    if pair == (2, 3):
        return (
            2**7 * sec**6 * s**6 * (2 * c + cos(3 * t)) ** 2
            + 8 * sec**4 * s**4 * (6 * cos(2 * t) + 10 * cos(4 * t)
                                   + 10 * cos(6 * t) + 4 * cos(8 * t) + 1)
            + cos(6 * t)
            + 4 * sec**2 * s**2 * (cos(2 * t) + cos(4 * t) - cos(6 * t)
                                   + cos(8 * t) + cos(10 * t) + 1)
        )
    if pair == (1, 3):
        return (
            128 * sec**6 * s**6 * (2 * c + cos(3 * t)) ** 2
            + 8 * sec**4 * s**4 * (4 * cos(2 * t) + 12 * cos(4 * t)
                                   + 10 * cos(6 * t) + 4 * cos(8 * t) - 1)
            + cos(4 * t)
            - 8 * sec**2 * s**4 * (8 * cos(2 * t) + 10 * cos(4 * t)
                                   + 6 * cos(6 * t) + 2 * cos(8 * t) + 3)
        )
    raise UsageError(f"unknown pair {pair}")


def pair_correlator_reference(alpha: float, t: float, pair: tuple[int, int]) -> float:
    """Published pairwise sigma_y correlators: `pair_numerator_reference` over the constants
    above.  The published chain reproduces them, as it does the constants."""
    return pair_numerator_reference(alpha, t, pair) / pair_normalization_reference(alpha, t, pair)
