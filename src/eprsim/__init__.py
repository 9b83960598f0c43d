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
import sys

from ._version import __version__

# Opt-in diagnostics go to the `eprsim` logger, silent unless the program
# configures logging. The package never imports `logging`: it logs through
# the program's, once the program has imported it (`sys.modules`).
if "logging" in sys.modules:
    sys.modules["logging"].getLogger(__name__).addHandler(sys.modules["logging"].NullHandler())


class _Frozen:
    """Base of the package's value classes, with what a frozen dataclass
    gives them but none of its per-class code generation at import.

    The fields are the class's own annotations, after its bases' fields, and
    a class attribute of a field's name is its default. An instance is made
    by position or by keyword, checked by `__post_init__`, and immutable
    from then on. It equals only an instance of its own class with equal
    fields, hashes and shows by its fields, and pickles as them.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields += tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(self._fields, args))
        self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """Each field's value: by position, by keyword, or its class default."""
        fields, cls = self._fields, type(self)
        values = dict(zip(fields, args))
        unknown = [key for key in kwargs if key not in fields or key in values]
        values.update(kwargs)
        missing = [key for key in fields if key not in values and not hasattr(cls, key)]
        if len(args) > len(fields) or unknown or missing:
            raise TypeError(f"{cls.__name__}() takes the fields {fields}, got {args} and {kwargs}")
        return [values[key] if key in values else getattr(cls, key) for key in fields]

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{key}={value!r}" for key, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value=None) -> None:
        from dataclasses import FrozenInstanceError  # what a frozen dataclass raises

        raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


# Each public submodule and the names it exports through the package.
_EXPORTS = {
    "engine": (
        "FixedSettings",
        "Geometry",
        "QwpChainProtocol",
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
