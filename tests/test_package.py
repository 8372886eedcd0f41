"""The public names of the package, pinned so that any change is a reviewed diff."""

import importlib
import sys
import types
from pathlib import Path

import pytest

import lamesusy

EXPORTS = [
    "BandEdge", "ClaimReport", "DomainError", "Family", "GridFunction",
    "IncompleteSpectrumError", "InvalidGroundStateError", "JacobiTriple",
    "LamesusyError", "NumericalError", "PeriodicPotential", "PotentialSpec",
    "SelfIsoResult", "band_edge_energies", "band_edges", "complete_k",
    "expected_boundary", "galerkin_edges", "jacobi", "monodromy_trace", "numeric_partner",
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


@pytest.fixture()
def perfbench(monkeypatch):
    """The benchmark's tracer and its self-test, imported read-only from perfbench/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    return importlib.import_module("tracing"), importlib.import_module("selftest")


def test_benchmark_tracer_targets_resolve(perfbench):
    # Tracer.install looks up every traced name; a missing one breaks the benchmark
    tracing, _ = perfbench
    for module, name in tracing.FUNCTIONS:
        assert callable(getattr(getattr(lamesusy, module), name)), (module, name)
    for module, cls, method in tracing.METHODS:
        assert method in vars(getattr(getattr(lamesusy, module), cls)), (module, cls, method)


def test_benchmark_tracer_selftest(perfbench):
    _, selftest = perfbench
    report = selftest.run(lamesusy)
    assert report["ok"], report["problems"]
