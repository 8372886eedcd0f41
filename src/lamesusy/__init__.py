"""Elliptic sn^2 potentials, their SUSY partners, and band-structure checks."""

from .bandsolver import (
    BandEdge,
    PeriodicPotential,
    band_edges,
    expected_boundary,
    galerkin_edges,
    monodromy_trace,
    numeric_partner,
)
from .elliptic import JacobiTriple, complete_k, jacobi
from .errors import (
    DomainError,
    IncompleteSpectrumError,
    InvalidGroundStateError,
    LamesusyError,
    NumericalError,
)
from .grid import GridFunction
from .susy import (
    Family,
    PotentialSpec,
    band_edge_energies,
    psi_minus,
    psi_minus_prime,
    psi_plus,
    raw_lame,
    superpotential,
    v_minus,
    v_minus_check,
    v_plus_closed,
    v_plus_susy,
)
from .verify import (
    ClaimReport,
    SelfIsoResult,
    partner_pair,
    run_edge_state_suite,
    run_isospectrality_suite,
    run_limit_suite,
    run_selfiso_suite,
    schrodinger_residual,
    selfiso_distance,
)

__version__ = "0.1.0"
