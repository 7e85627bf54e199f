"""The coherent closed form evaluated whole at each overlap: a test-only
reference for the set-up-once evaluator behind the ratio maps and the
coherent contours.  Its visibility runs the closed form twice, at the dip
and at the c = 0 baseline, as one expression each."""

import math

from homsim import polarization as pol
from homsim.coherent import bessel_i0


def closed_form(mu_a, mu_b, bs, eta_aa, eta_ab, eta_ba, eta_bb, c):
    """Total coincidence probability at overlap c.

    eta_aa / eta_ab: detector A's efficiency for arm-A / arm-B photons;
    eta_ba / eta_bb: the same for detector B.
    """
    t, r = bs.transmissivity, bs.reflectivity
    ca = mu_a * r * (1.0 - eta_ba)
    cb = mu_b * t * (1.0 - eta_bb)
    cc = mu_a * t * (1.0 - eta_aa)
    cd = mu_b * r * (1.0 - eta_ab)
    return (1.0
            - math.exp(-mu_a * eta_ba - mu_b * eta_bb)
            - math.exp(-mu_a * eta_aa - mu_b * eta_ab)
            + math.exp(mu_a * (eta_aa * eta_ba - eta_aa - eta_ba)
                       + mu_b * (eta_ab * eta_bb - eta_ab - eta_bb))
            - math.exp(-mu_a - mu_b)
            * (math.exp(mu_a * r + mu_b * t) + math.exp(mu_a * t + mu_b * r))
            * bessel_i0(2.0 * math.sqrt(mu_a * mu_b * r * t) * c)
            + math.exp(-mu_a - mu_b + ca + cb) * bessel_i0(2.0 * math.sqrt(ca * cb) * c)
            + math.exp(-mu_a - mu_b + cc + cd) * bessel_i0(2.0 * math.sqrt(cc * cd) * c))


def visibility(mu_a, mu_b, app, c, pol_a=pol.H, pol_b=pol.H):
    """(P(0) - P(c)) / P(0) of the two arms' polarizations under ``app``."""
    etas = (pol.effective_efficiency(app.det_a, pol_a),
            pol.effective_efficiency(app.det_a, pol_b),
            pol.effective_efficiency(app.det_b, pol_a),
            pol.effective_efficiency(app.det_b, pol_b))
    p_inf = closed_form(mu_a, mu_b, app.bs, *etas, 0.0)
    return (p_inf - closed_form(mu_a, mu_b, app.bs, *etas, c)) / p_inf
