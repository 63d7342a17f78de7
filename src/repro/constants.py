"""Physical and protocol constants of the Caraoke system.

Every number here is stated in the paper; the section reference is given
next to each constant. Simulation defaults that the paper does not pin down
(e.g. the complex-baseband sample rate) are marked ``[sim]`` and chosen so
that the paper's derived quantities (FFT resolution, bin count) come out
exactly as printed.
"""

from __future__ import annotations

import math

# --------------------------------------------------------------------------
# Radio band (§3)
# --------------------------------------------------------------------------

#: Speed of light [m/s].
SPEED_OF_LIGHT_M_S = 299_792_458.0

#: Nominal e-toll carrier frequency [Hz] (§3: "both transponder and reader
#: work at 915MHz").
NOMINAL_CARRIER_HZ = 915.0e6

#: Lowest transponder carrier frequency [Hz] (§3: carriers vary between
#: 914.3 MHz and 915.5 MHz).
CARRIER_MIN_HZ = 914.3e6

#: Highest transponder carrier frequency [Hz] (§3).
CARRIER_MAX_HZ = 915.5e6

#: Reader local-oscillator frequency [Hz] [sim]. Placing the LO at the low
#: edge of the tag band maps tag CFOs onto [0, 1.2 MHz], matching Fig 4.
READER_LO_HZ = CARRIER_MIN_HZ

#: Maximum carrier frequency offset between any two tags [Hz] (§1, §5:
#: "CFOs that span 1.2MHz").
CFO_SPAN_HZ = CARRIER_MAX_HZ - CARRIER_MIN_HZ

#: Carrier wavelength [m] at the nominal frequency; ~32.8 cm, i.e. the
#: paper's λ/2 antenna spacing of 6.5 inches (§11).
WAVELENGTH_M = SPEED_OF_LIGHT_M_S / NOMINAL_CARRIER_HZ

#: Empirical carrier-frequency population of 155 real tags (§5 footnote 7):
#: mean 914.84 MHz, standard deviation 0.21 MHz, truncated to the band.
EMPIRICAL_CARRIER_MEAN_HZ = 914.84e6
EMPIRICAL_CARRIER_STD_HZ = 0.21e6
EMPIRICAL_POPULATION_SIZE = 155

# --------------------------------------------------------------------------
# Transponder air protocol (§3, Fig 2)
# --------------------------------------------------------------------------

#: Reader query duration [s] (Fig 2a: 20 µs sinewave).
QUERY_DURATION_S = 20e-6

#: Delay between the end of the query and the start of the tag response [s]
#: (Fig 2a: 100 µs).
TURNAROUND_S = 100e-6

#: Tag response duration [s] (Fig 2a / §5: 512 µs).
RESPONSE_DURATION_S = 512e-6

#: Bits per transponder response (Fig 2b: 256 bits including CRC).
PACKET_BITS = 256

#: Width of the agency-programmable field (Fig 2b: 47 bits).
PROGRAMMABLE_BITS = 47

#: Data rate implied by 256 bits in 512 µs [bit/s].
BIT_RATE_HZ = PACKET_BITS / RESPONSE_DURATION_S

#: Manchester chip rate [chip/s]: two chips per bit.
CHIP_RATE_HZ = 2.0 * BIT_RATE_HZ

#: Chip duration [s] (1 µs).
CHIP_DURATION_S = 1.0 / CHIP_RATE_HZ

#: Interval between successive queries while decoding IDs [s]
#: (§12.4: "queries are separated by 1ms").
QUERY_PERIOD_S = 1e-3

#: How long a reader must sense an idle medium before querying [s]
#: (§9: query 20 µs + turnaround 100 µs = 120 µs).
CSMA_LISTEN_S = QUERY_DURATION_S + TURNAROUND_S

#: Caraoke reader radio range [m] (§9 footnote 13: 100 feet).
READER_RANGE_M = 100 * 0.3048

# --------------------------------------------------------------------------
# Receiver / FFT parameters (§5)
# --------------------------------------------------------------------------

#: Complex-baseband sample rate [Hz] [sim]. 4 MHz covers the 1.2 MHz CFO
#: span plus OOK sidelobes, and makes the 512 µs response exactly 2048
#: samples, so the full-window FFT resolution is the paper's 1.953 kHz.
DEFAULT_SAMPLE_RATE_HZ = 4.0e6

#: Samples in one full response window at the default rate.
RESPONSE_SAMPLES = int(round(RESPONSE_DURATION_S * DEFAULT_SAMPLE_RATE_HZ))

#: FFT resolution over the full response window [Hz] (Eq 6: 1/512 µs).
FFT_RESOLUTION_HZ = 1.0 / RESPONSE_DURATION_S

#: Number of FFT bins the 1.2 MHz CFO span occupies (§5: N = 615).
CFO_BIN_COUNT = math.ceil(CFO_SPAN_HZ / FFT_RESOLUTION_HZ)

# --------------------------------------------------------------------------
# Antenna array (§6, §11, Fig 6)
# --------------------------------------------------------------------------

#: Antenna element separation [m] (§11: λ/2 = 6.5 inches).
ANTENNA_SPACING_M = WAVELENGTH_M / 2.0

#: Tilt of the antenna pair plane relative to the road [deg] (§12.2: the
#: pair used for AoA makes a 60° angle with the plane of the road).
ANTENNA_TILT_DEG = 60.0

#: Spatial-angle band within which a triangle pair is considered usable
#: (§6: "the spatial angle is always close to 90° (i.e., between 60° and
#: 120°)").
PAIR_USABLE_MIN_DEG = 60.0
PAIR_USABLE_MAX_DEG = 120.0

# --------------------------------------------------------------------------
# Deployment geometry (§7, §11, §12)
# --------------------------------------------------------------------------

FEET_PER_METER = 1.0 / 0.3048
METERS_PER_FOOT = 0.3048
MPH_PER_M_S = 2.2369362920544
M_S_PER_MPH = 1.0 / MPH_PER_M_S

#: Pole height used in the experiments [m] (§11: 12.5 feet).
EXPERIMENT_POLE_HEIGHT_M = 12.5 * METERS_PER_FOOT

#: Pole height used in the §7 worked error example [m] (13 feet).
ANALYSIS_POLE_HEIGHT_M = 13.0 * METERS_PER_FOOT

#: Standard lane width [m] (§7 footnote 11: typically 12 feet).
LANE_WIDTH_M = 12.0 * METERS_PER_FOOT

#: Height of a windshield-mounted transponder above the road [m] [sim].
#: Scene builders place every tag this high, and localization intersects
#: the AoA cone with the transponder plane (§6 footnote 14).
TAG_HEIGHT_M = 1.0

#: Light-pole separation used in the §7 speed analysis [m] (~360 feet).
SPEED_BASELINE_M = 360.0 * METERS_PER_FOOT

#: Pole separation used in the §12.3 speed experiments [m] (200 feet).
SPEED_EXPERIMENT_BASELINE_M = 200.0 * METERS_PER_FOOT

#: NTP synchronization error between readers [s] (§6/§7: "tens of ms").
NTP_SYNC_SIGMA_S = 10e-3

# --------------------------------------------------------------------------
# Reader hardware power model (§10, §12.5)
# --------------------------------------------------------------------------

#: Power drawn in active mode, modem excluded [W] (§12.5: 900 mW).
ACTIVE_POWER_W = 0.900

#: Power drawn in sleep mode [W] (§12.5: 69 µW).
SLEEP_POWER_W = 69e-6

#: Duration of one active burst [s] (§10: "average duration of the active
#: mode to last for 10ms, allowing for a maximum of 10 queries").
ACTIVE_BURST_S = 10e-3

#: Peak solar panel output [W] (§10: 6 cm × 7.5 cm panel, 500 mW).
SOLAR_PEAK_W = 0.500

#: Average reader power at one measurement per second [W] (§12.5: 9 mW).
PAPER_AVERAGE_POWER_W = 9e-3

# --------------------------------------------------------------------------
# SAR multipath rig (§12.2, Fig 14)
# --------------------------------------------------------------------------

#: Radius of the rotating antenna arm [m] (§12.2: 70 cm).
SAR_RADIUS_M = 0.70

#: Paper's measured LoS-to-second-path power ratio (§12.2: "27 times").
PAPER_MULTIPATH_RATIO = 27.0
