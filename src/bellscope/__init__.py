"""bellscope: classical bounds for two-body permutationally invariant Bell
inequalities, their quantum violation with collective measurements, and a
small entanglement toolkit (Schmidt/PPT/entropies, spin chains, MPS).

Submodules and the names below load on first access (PEP 562), so
``import bellscope`` runs none of them and no numpy.
"""

import importlib

__version__ = "0.1.0"

# defining submodule -> the names bellscope exports from it
_EXPORTS = {
    "numerics": ("RandomSource", "hermitian_eigen", "scalar_minimize", "svd"),
    "quantum": (
        "StateVector", "DensityOperator", "max_entangled", "haar_state",
        "schmidt_decompose", "schmidt_rank", "separable_pure",
        "state_to_json", "state_from_json",
        "partial_trace", "partial_transpose", "ppt_report",
        "negativity", "log_negativity", "vn_entropy", "renyi_entropy",
        "entanglement_entropy", "mutual_information", "page_experiment",
    ),
    "correlations": (
        "Scenario", "Behavior", "BellFunctional", "CorrelatorSet", "TIExpression",
        "is_nonsignalling", "behavior_from_quantum", "correlators_from_behavior",
        "behavior_from_correlators", "local_bound_bruteforce",
        "chsh_probability_functional", "chsh_correlator_functional",
        "chsh_quantum_demo", "ti_classical_bound",
    ),
    "symmetric": (
        "PIBellExpression", "StrategyCounts", "SymmetrizedCorrelators",
        "correlators_of_counts", "classical_bound_symmetric",
        "rioja", "murcia", "dicke_expression",
    ),
    "collective": (
        "collective_operator", "dicke_state", "lmg_energies", "bell_operator",
        "max_violation", "dicke_violation", "ratio_scan", "theta_sweep",
    ),
    "chains": (),
    "mps": (),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_EXPORTS, *_ORIGIN]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _ORIGIN:
        return getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
