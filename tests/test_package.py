"""The public names of the package, pinned so that any change is a reviewed diff."""

import types

import lamesusy

EXPORTS = [
    "BandEdge", "ClaimReport", "DomainError", "Family", "GridFunction",
    "IncompleteSpectrumError", "InvalidGroundStateError", "JacobiTriple",
    "LamesusyError", "NumericalError", "PeriodicPotential", "PotentialSpec",
    "SelfIsoResult", "band_edge_energies", "band_edge_energy", "band_edges",
    "bloch_edge_state", "complete_k", "expected_boundary", "galerkin_edges",
    "jacobi", "jacobi_derivatives", "monodromy_trace", "numeric_partner",
    "partner_pair", "psi_minus", "psi_minus_prime", "psi_plus", "raw_lame",
    "run_edge_state_suite", "run_isospectrality_suite",
    "run_limit_suite", "run_selfiso_suite", "schrodinger_residual",
    "selfiso_distance", "superpotential", "v_minus", "v_minus_check",
    "v_plus_closed", "v_plus_susy",
]


def test_exported_names():
    names = sorted(name for name, value in vars(lamesusy).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == EXPORTS
