"""Anisotropic Rabi model with two-photon relaxation.

Simulation and spectral analysis of a single qubit coupled to a cavity mode
with independent rotating and counter-rotating couplings, where the cavity
loses photons in pairs. The package provides the parity-chain Hilbert space,
the Hamiltonian and Lindblad generators, closed-form doublet results for the
solvable limits, master-equation and effective-Hamiltonian integrators,
complex-spectrum tools, and a config-driven command line (``rabi-relax``).
"""

from .hilbert import (EVEN, FULL, ODD, BareState, FockCutoff, ParityChain,
                      build_parity_chain, parity_of)
from .model import DensityMatrix, ModelParams
from .analytic import (DoubletSolution, ajc_doublet, ajc_population, decoupled_eigenvalue,
                       ep_position, even_peak_position, jc_doublet, jc_population,
                       odd_peak_position)
from .dynamics import (SolverError, StateVector, SteadyReport, Trajectory,
                       TruncationError, canonical_initial_state, evolve_effective,
                       evolve_master, observables, steady_map, steady_state,
                       transient_snapshot, truncation_check)
from .spectra import (CrossingEvent, EigenbasisMap, SpectrumSweep, complex_spectrum,
                      find_avoided_crossings, find_exceptional_point,
                      map_initial_state, sweep_spectrum)
from .verify import CheckResult, run_all

__version__ = "0.1.0"

__all__ = [
    "EVEN", "ODD", "FULL", "BareState", "FockCutoff", "ParityChain",
    "build_parity_chain", "parity_of",
    "DensityMatrix", "ModelParams",
    "DoubletSolution", "jc_doublet", "ajc_doublet", "jc_population", "ajc_population",
    "decoupled_eigenvalue", "even_peak_position", "odd_peak_position", "ep_position",
    "SolverError", "TruncationError", "StateVector", "Trajectory", "SteadyReport",
    "canonical_initial_state", "evolve_master", "evolve_effective", "observables",
    "steady_state", "steady_map", "transient_snapshot", "truncation_check",
    "CrossingEvent", "EigenbasisMap", "SpectrumSweep",
    "complex_spectrum", "sweep_spectrum", "find_avoided_crossings",
    "find_exceptional_point", "map_initial_state",
    "CheckResult", "run_all",
    "__version__",
]
