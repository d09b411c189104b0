"""Regeneration-based simulation and analysis of Hawkes processes.

Construction of explicit renewal times for ordinary nonlinear and
age-dependent Hawkes processes, exact-law verification of the
construction, coupling experiments, and regeneration-block central limit
estimation.
"""

from .errors import (BandViolationError, ConfigError, DominationError,
                     IntegrabilityError, SimulationCapError, SupercriticalError)
from .kernels import (EnvelopeFns, ExpDecay, ExponentialKernel, GammaSchedule,
                      Kernel, PositivePartKernel, PowerLawKernel, RateSpec,
                      TableKernel, ZeroKernel, pos_part)
from .prm import PrmStream, SplitStreams, spawn_rng, split
from .hawkes import Path, ProcessState, ZStart, path_to_csv, simulate_adhp
from .renewal import (Block, Certificate, CycleRecord, Diagnostics,
                      RenewalConfig, RenewalOutcome, check_envelope_inequality,
                      iterate_regenerations, run_system, scan_alpha_AD,
                      scan_alpha_O)
from .cluster import BorelLaw, Cluster, simulate_cluster
from .reprocess import REChain, invariant_cdf, return_time, step
from .stats import (BlockStat, TestReport, clt_time_average,
                    coupling_experiment, functional_clt_paths, lil_envelope)

__all__ = [
    "BandViolationError", "ConfigError", "DominationError",
    "IntegrabilityError", "SimulationCapError", "SupercriticalError",
    "EnvelopeFns", "ExpDecay", "ExponentialKernel", "GammaSchedule", "Kernel",
    "PositivePartKernel", "PowerLawKernel", "RateSpec", "TableKernel",
    "ZeroKernel", "pos_part",
    "PrmStream", "SplitStreams", "spawn_rng", "split",
    "Path", "ProcessState", "ZStart", "path_to_csv", "simulate_adhp",
    "Block", "Certificate", "CycleRecord", "RenewalConfig", "RenewalOutcome",
    "Diagnostics",
    "check_envelope_inequality", "iterate_regenerations", "run_system",
    "scan_alpha_AD", "scan_alpha_O",
    "BorelLaw", "Cluster", "simulate_cluster",
    "REChain", "invariant_cdf", "return_time", "step",
    "BlockStat", "TestReport", "clt_time_average", "coupling_experiment",
    "functional_clt_paths", "lil_envelope",
]
