"""Monte Carlo workbench for two-photon polarization-correlation experiments.

Simulates idealized entangled-pair experiments under four competing physical
hypotheses (formal state-vector reduction, local hidden variables, definite
circular polarization at emission, and a no-definite-value narrative with
instantaneous collapse) and compares their predictions, including the
wave-plate chain experiment that tells them apart.

The public names are loaded on first access (PEP 562), so ``import eprsim``
loads no numpy: the CLI can pin numpy's BLAS threads before numpy starts.
"""

import importlib
import logging

from ._version import __version__

# Opt-in diagnostics: silent unless the application configures logging.
logging.getLogger(__name__).addHandler(logging.NullHandler())

# Each public submodule and the names it exports through the package.
_EXPORTS = {
    "engine": (
        "FixedSettings",
        "Geometry",
        "QwpChainProtocol",
        "RandomizedSettings",
        "RunConfig",
        "Schedule",
        "TwoChannelProtocol",
        "WorkerError",
        "run_experiment",
        "run_malus",
        "trial_draws",
    ),
    "kernels": ("ConfigError",),
    "models": (
        "Arm",
        "ChannelOutcome",
        "DefiniteCircular",
        "HypothesisModel",
        "Lhv",
        "LhvModel",
        "NdvNonlocal",
        "Ordering",
        "QMFormal",
        "definite_circular_as_lhv",
        "deterministic_sign_model",
        "lhv_correlation",
        "lhv_joint_probabilities",
        "malus_response_model",
    ),
    "polarization": (
        "ABSORBED",
        "AnalyzerChannel",
        "Channel",
        "Frame",
        "Handedness",
        "JonesVector",
        "LinearPolarizer",
        "NormalizationError",
        "QuarterWavePlate",
        "apply",
        "circular",
        "jones_matrix",
        "linear",
        "phase_insensitive_equals",
    ),
    "reference": ("RAnalyzer", "TrialDraws"),
    "stats": (
        "ChainCounts",
        "ChshReport",
        "CoincidenceCounts",
        "PackedFlags",
        "PairEstimate",
        "chsh_report",
        "conditional_detection",
        "estimate_correlation",
        "order_invariance_test",
    ),
    "twophoton": (
        "JointProbabilities",
        "TwoPhotonState",
        "circular_entangled",
        "joint_probabilities",
        "joint_probabilities_sequential",
        "linear_entangled",
        "measure_arm",
        "measure_arm_chain",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_MODULE_OF]  # the submodules, then the names they export


def __getattr__(name: str):
    if name in _EXPORTS:
        # Importing a submodule binds it on the package, so this runs once.
        return importlib.import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
        globals()[name] = value  # later lookups skip this hook
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
