"""Link-level simulator and detection library for ambient backscatter
riding on cellular uplink sounding signals."""

__version__ = "0.1.0"

from .ber_theory import (DetectionParams, SeriesError, ber_vs_iota,
                         doubly_noncentral_f_cdf, exact_ber,
                         fsk_coherent_ber, gaussian_ber,
                         iota_magnitude_for_target, params_for_scheme)
from .channel import (SPEED_OF_LIGHT, ChannelSet, LinkGeometry,
                      composite_gain, from_db, fspl_gain, lte_snr,
                      scatter_ratio, snr_per_bit, to_db)
from .coverage import (BerGrid, ContourLine, CoverageScenario, GridSpec,
                       centered_grid, compute_ber_grid, contour_export,
                       range_estimate)
from .lte_grid import energy_stream
from .modem import (BARKER7, DETECTOR_KINDS, FRAME_BITS, PAYLOAD_BITS,
                    SCHEMES, SYNC_BITS, SymbolAlphabet, demodulate_stream,
                    detect, encode_bits, encode_frame, frame_sync,
                    make_alphabet)
from .montecarlo import (BerPoint, DisagreementCount, PacketRecord,
                         SweepConfig, channel_for_snr, compare_receivers,
                         flat_channel, measurement_config,
                         replicate_measurement, run_ber_sweep, theory_points,
                         wilson_interval)
from .specfun import log_bessel_i, q_func, q_inv

__all__ = [
    "__version__",
    "BARKER7", "BerGrid", "BerPoint", "ChannelSet", "ContourLine",
    "CoverageScenario", "DETECTOR_KINDS", "DetectionParams",
    "DisagreementCount", "FRAME_BITS", "GridSpec", "LinkGeometry",
    "PAYLOAD_BITS", "PacketRecord", "SCHEMES", "SPEED_OF_LIGHT",
    "SYNC_BITS", "SeriesError", "SweepConfig",
    "SymbolAlphabet",
    "ber_vs_iota", "centered_grid", "channel_for_snr", "compare_receivers",
    "composite_gain", "compute_ber_grid", "contour_export",
    "demodulate_stream", "detect", "doubly_noncentral_f_cdf", "encode_bits",
    "encode_frame", "energy_stream", "exact_ber", "flat_channel",
    "frame_sync", "from_db", "fsk_coherent_ber", "fspl_gain", "gaussian_ber",
    "iota_magnitude_for_target", "log_bessel_i", "lte_snr", "make_alphabet",
    "measurement_config", "params_for_scheme", "q_func", "q_inv",
    "range_estimate", "replicate_measurement", "run_ber_sweep",
    "scatter_ratio", "snr_per_bit", "theory_points", "to_db",
    "wilson_interval",
]
