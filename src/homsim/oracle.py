"""Brute-force reference engine for the Fock coincidence formula.

The two input wavepackets are expanded over four orthonormal single-photon
modes per output port: the detectors' H and V polarizations times
Gram-Schmidt of the two spectral profiles.  Arm A's creation operator only
touches the two spec_parallel modes; arm B's spreads over all four, with
spectral components cos(Theta) and sin(Theta) (the overlap's phase is a
global phase of arm B's photons, which changes no probability).
Pushing the beam-splitter map through (t a + r b, r a - t b) and expanding
the resulting operator polynomial exactly gives the full output
photon-number distribution.  H and V are the detectors' eigenmodes, so a
detector's dark probability is a product over modes, configuration by
configuration.  Intended for tests and acceptance only; guarded to
m + n <= 12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import polarization as pol
from . import spectral as spc
from .fock import BeamSplitter, FockPair

__all__ = ["OutputDistribution", "expand", "coincidence_from_distribution",
           "oracle_coincidence"]

_MAX_PHOTONS = 12


@dataclass(frozen=True)
class OutputDistribution:
    """Probabilities over output occupation patterns.

    Keys are (port_a_counts, port_b_counts), each a 4-tuple ordered as
    (H spec1, H spec2, V spec1, V spec2) where spec1 is arm A's spectrum.
    """

    probs: dict[tuple[tuple[int, int, int, int], tuple[int, int, int, int]], float]

    def total(self) -> float:
        return math.fsum(self.probs.values())


def _poly_multiply(poly: dict[tuple[int, ...], complex],
                   terms: list[tuple[int, complex]]) -> dict[tuple[int, ...], complex]:
    """Multiply a monomial dict by a linear form sum_i coeff_i x_i."""
    out: dict[tuple[int, ...], complex] = {}
    for mono, coeff in poly.items():
        for idx, c in terms:
            if c == 0:
                continue
            key = list(mono)
            key[idx] += 1
            key_t = tuple(key)
            out[key_t] = out.get(key_t, 0.0 + 0.0j) + coeff * c
    return out


def expand(pair: FockPair, bs: BeamSplitter) -> OutputDistribution:
    """Exact output distribution of the beam splitter over the 4x2 modes."""
    m, n = pair.m, pair.n
    if m + n > _MAX_PHOTONS:
        raise ValueError(f"oracle limited to m + n <= {_MAX_PHOTONS}")
    if pair.spec_a is not None and pair.spec_b is not None:
        cos = spc.overlap(pair.spec_a, pair.spec_b)
    else:
        cos = 1.0
    sin = math.sqrt(max(0.0, 1.0 - cos * cos))
    t = math.sqrt(bs.transmissivity)
    r = math.sqrt(bs.reflectivity)

    # variable order: a-port modes 0..3, b-port modes 4..7, mode index
    # mu = 2*(0 for H, 1 for V) + (spec component)
    alpha = [pair.pol_a.h, 0.0, pair.pol_a.v, 0.0]
    beta = [pair.pol_b.h * cos, pair.pol_b.h * sin, pair.pol_b.v * cos, pair.pol_b.v * sin]
    a_form = [(mu, t * alpha[mu]) for mu in range(4)]
    a_form += [(4 + mu, r * alpha[mu]) for mu in range(4)]
    b_form = [(mu, r * beta[mu]) for mu in range(4)]
    b_form += [(4 + mu, -t * beta[mu]) for mu in range(4)]

    poly: dict[tuple[int, ...], complex] = {(0,) * 8: 1.0 + 0.0j}
    for _ in range(m):
        poly = _poly_multiply(poly, a_form)
    for _ in range(n):
        poly = _poly_multiply(poly, b_form)

    norm = math.factorial(m) * math.factorial(n)
    probs: dict = {}
    for mono, coeff in poly.items():
        fact = 1.0
        for k in mono:
            fact *= math.factorial(k)
        p = abs(coeff) ** 2 * fact / norm
        if p > 0.0:
            key = (mono[:4], mono[4:])
            probs[key] = probs.get(key, 0.0) + p
    dist = OutputDistribution(probs)
    if abs(dist.total() - 1.0) > 1e-10:
        raise RuntimeError(f"oracle distribution not normalized: {dist.total()}")
    return dist


def coincidence_from_distribution(dist: OutputDistribution,
                                  det_a: pol.Detector,
                                  det_b: pol.Detector) -> float:
    """Apply the threshold click model per output configuration and sum.

    Modes 0 and 1 carry H and modes 2 and 3 carry V, the detectors'
    eigenmodes, so the per-port no-click probability is the product of
    (1 - eta)^count over modes.
    """
    eff_a = (det_a.eta_h, det_a.eta_v)
    eff_b = (det_b.eta_h, det_b.eta_v)
    mode_pol = (0, 0, 1, 1)
    total = 0.0
    for (ca, cb), p in sorted(dist.probs.items()):
        miss_a = 1.0
        miss_b = 1.0
        for mu in range(4):
            miss_a *= (1.0 - eff_a[mode_pol[mu]]) ** ca[mu]
            miss_b *= (1.0 - eff_b[mode_pol[mu]]) ** cb[mu]
        total += p * (1.0 - miss_a) * (1.0 - miss_b)
    return total


def oracle_coincidence(pair: FockPair, bs: BeamSplitter,
                       det_a: pol.Detector = pol.IDEAL_DETECTOR,
                       det_b: pol.Detector = pol.IDEAL_DETECTOR) -> float:
    """Exact coincidence probability by full expansion plus click model."""
    return coincidence_from_distribution(expand(pair, bs), det_a, det_b)
