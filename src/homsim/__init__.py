"""Multi-photon HOM interference under realistic imperfections.

Library layout:

* :mod:`homsim.spectral` -- envelope families, closed-form overlaps, FWHM
* :mod:`homsim.quadrature` -- IntegrationError, the overlaps' numerical failure
* :mod:`homsim.polarization` -- polarization states and detector response
* :mod:`homsim.fock` -- multi-photon coincidence and visibility
* :mod:`homsim.oracle` -- exact operator-expansion reference engine
* :mod:`homsim.coherent` -- phase-randomized coherent sources
* :mod:`homsim.channels` -- loss / depolarization / broadening channels
* :mod:`homsim.jsa` -- joint spectral amplitudes and entanglement swapping
* :mod:`homsim.protocols` -- MDI-QKD, sensing, classifier, fusion metrics
* :mod:`homsim.cli` -- the ``homsim`` command
"""

from .channels import ChannelSpec, MixedSource, SourceSpec, apply_channel, \
    damp_number, mixed_coincidence, mixed_visibility
from .coherent import CoherentPair, bessel_i0, coherent_visibility, \
    total_coincidence, total_coincidence_series, visibility_ratio_map
from .fock import Apparatus, BeamSplitter, FockPair, InvalidRegimeError, \
    bunching_factor, coincidence, dip_curve, p_all_one_side, visibility
from .jsa import GaussianJSA, PhaseMatching, Pump, SeparableJSA, SwapScenario, \
    swap_fidelity, swap_fidelity_separable
from .polarization import Detector, PolarizationDensity, PolarizationVector, \
    click_probability, cos_phi, depolarize, effective_efficiency, rotate
from .protocols import ErrorBudget, KeyRateInputs, MdiScenario, \
    classifier_coincidence, fusion_fidelity, key_rate_bound, \
    mdi_outcome_table, noon_signal, spectral_error, total_error
from .quadrature import IntegrationError
from .spectral import OverlapResult, Shape, SpectralProfile, amplitude, fwhm, overlap, \
    wavelength_width_to_frequency

__version__ = "0.1.0"
