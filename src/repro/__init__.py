"""Caraoke reproduction: smart-city services from e-toll transponder collisions.

Reproduces *Caraoke: An E-Toll Transponder Network for Smart Cities*
(Abari, Vasisht, Katabi, Chandrakasan — SIGCOMM 2015): counting,
localizing, speed-measuring and decoding unmodified e-toll transponders
from their wireless collisions, by exploiting per-tag carrier frequency
offsets in the Fourier domain.

Public API highlights
---------------------

* :mod:`repro.phy` — transponders, packets, OOK/Manchester modulation.
* :mod:`repro.channel` — propagation, antennas, noise, the collision record.
* :mod:`repro.dsp` — spectra, peaks, sparse FFT, beamforming, SAR.
* :mod:`repro.core` — the paper's algorithms: counting (§5),
  localization (§6), speed (§7), decoding (§8), reader MAC (§9).
* :mod:`repro.sim` — event-driven streets: traffic, parking, mobility,
  scenes, and the city engine with the one collision synthesizer
  (moving tags; a parked car is a car at speed zero).
* :mod:`repro.hw` — ADC, power, solar and battery models (§10, §12.5).
* :mod:`repro.baselines` — naive counting, traffic cameras, radar guns,
  band-pass decoding.
"""

from . import constants, errors, utils
from .datasets import empirical_carriers_hz, empirical_cfo_dataset, empirical_cfos_hz
from .errors import CaraokeError

__version__ = "1.0.0"

__all__ = [
    "constants",
    "errors",
    "utils",
    "CaraokeError",
    "empirical_carriers_hz",
    "empirical_cfo_dataset",
    "empirical_cfos_hz",
    "__version__",
]
