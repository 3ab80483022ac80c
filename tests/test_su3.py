"""su(3) on a qutrit: an algebra of n = 8 generators through every route.

The generators are the Gell-Mann matrices over 2.  A circuit whose orbit is
open in CP^2 has, at every regular point, the scalar curvature of CP^2,
4 (d - 1) d / gamma^2 = 24 / gamma^2 for g = gamma^2 Re <dpsi|(1 - P)|dpsi>
(Bengtsson & Zyczkowski, Geometry of Quantum States, ch. 4).
"""

import numpy as np
import pytest

from statemetric import cli, geometry, liealg, manifest, oracle
from statemetric.geometry import GridSpec
from statemetric.manifold import CircuitSpec, derivative_metric_batch, metric_batch, metric_jets
from statemetric.models import Model


def gell_mann() -> np.ndarray:
    lam = np.zeros((8, 3, 3), dtype=complex)
    for k, (i, j) in enumerate([(0, 1), (0, 2), (1, 2)]):
        sym, anti = (0, 3, 5)[k], (1, 4, 6)[k]
        lam[sym][i, j] = lam[sym][j, i] = 1
        lam[anti][i, j], lam[anti][j, i] = -1j, 1j
    lam[2] = np.diag([1, -1, 0])
    lam[7] = np.diag([1, 1, -2]) / np.sqrt(3)
    return lam


REP = liealg.extract_structure_constants(gell_mann() / 2, [f"L{k}" for k in range(1, 9)])
ORBIT = ("L2", "L5", "L7", "L3")  # open in CP^2: rank 4 at generic points
ALL_EIGHT = tuple(REP.names)  # rank 4 < 8: degenerate everywhere


def circuit(names) -> CircuitSpec:
    return CircuitSpec(REP, [(name, f"t{k}") for k, name in enumerate(names)])


@pytest.fixture(scope="module")
def psi_i():
    rng = np.random.default_rng(83)
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    return psi / np.linalg.norm(psi)


def angles(m: int) -> np.ndarray:
    return np.random.default_rng(89).uniform(-1.0, 1.0, (10, m))


def test_algebra_closes_and_is_generic():
    assert REP.size == 8
    assert REP.closed and REP.closure_residual <= 1e-15
    assert liealg.detect_kind(REP) == "generic"


@pytest.mark.parametrize("names", [ORBIT, ALL_EIGHT], ids=["orbit", "all_eight"])
def test_routes_agree(names, psi_i):
    c, a = circuit(names), angles(len(names))
    g_d = derivative_metric_batch(c, a, psi_i)
    g_t = metric_batch(c, a, psi_i)
    assert np.max(np.abs(g_t - g_d)) <= 1e-13
    for oracle_fn in (oracle.fd_metric_batch, oracle.fidelity_metric_batch):
        g_o = oracle_fn(c, a, psi_i)
        assert np.max(np.abs(g_d - g_o)) <= 1e-6, oracle_fn.__name__
        assert np.max(np.abs(g_t - g_o)) <= 1e-6, oracle_fn.__name__


@pytest.mark.parametrize("gamma", [1.0, 0.7])
def test_scalar_curvature_of_cp2(gamma, psi_i):
    jets = metric_jets(circuit(ORBIT), angles(len(ORBIT)), psi_i, gamma)
    r = geometry.scalar_from_jets(*jets) * gamma**2
    assert np.max(np.abs(r - 24.0)) <= 1e-8


def test_rank_deficient_circuit_has_no_curvature(psi_i):
    jets = metric_jets(circuit(ALL_EIGHT), angles(8), psi_i)
    assert np.all(np.isnan(geometry.scalar_from_jets(*jets)))


@pytest.mark.parametrize("gamma", [1.0, 0.7])
def test_classify_reports_scalar_curvature_at_full_rank(gamma, psi_i):
    model = Model("su3", REP, circuit(ORBIT), psi_i, gamma)
    grid = GridSpec({"t0": (0.1, 0.5, 3), "t1": (-0.4, 0.2, 3)}, fixed={"t2": 0.3, "t3": -0.2})
    report = geometry.classify(geometry.metric_field(model, grid))
    assert report.rank == 4
    assert report.scalar_curvature * gamma**2 == pytest.approx(24.0, abs=1e-8)


def test_validate_cli_reads_generic(psi_i, tmp_path, capsys):
    path = tmp_path / "su3.json"
    path.write_text(manifest.emit(Model("su3", REP, circuit(ORBIT), psi_i)), encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 0
    assert "detected kind: generic" in capsys.readouterr().out
