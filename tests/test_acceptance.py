"""Acceptance criteria, one test per verification check.

Each check reproduces a closed-form claim of the package at a pinned
tolerance; the detail string (metric deviations, curvature errors,
convergence slopes, ...) is printed so a `pytest -v -s` run shows one
pass/fail line per criterion.
"""

import inspect

import pytest

from statemetric import verify


@pytest.mark.parametrize("check", verify.ALL_CHECKS,
                         ids=[f.__name__.removeprefix("check_")
                              for f in verify.ALL_CHECKS])
def test_acceptance(check):
    result = check()
    status = "PASS" if result.passed else "FAIL"
    print(f"{status}  {result.check_id}: {result.detail}")
    assert result.passed, f"{result.check_id}: {result.detail}"


def test_all_checks_covered():
    # the parametrization above must span the whole suite
    assert len(verify.ALL_CHECKS) == 10
    assert verify.CHECK_IDS == tuple(
        f.__name__.removeprefix("check_") for f in verify.ALL_CHECKS)


def test_run_checks_builds_the_catalog_once(monkeypatch):
    built, seen = [], []
    real_catalog = verify.catalog
    monkeypatch.setattr(verify, "catalog", lambda: built.append(1) or real_catalog())

    def check_first(models=None):
        seen.append(models)
        return verify.CheckResult("first", True, "")

    def check_second(models=None):
        seen.append(models)
        return verify.CheckResult("second", True, "")

    def check_plain():
        return verify.CheckResult("plain", True, "")

    monkeypatch.setattr(verify, "ALL_CHECKS", (check_first, check_plain, check_second))
    assert len(verify.run_checks()) == 3
    assert len(built) == 1 and seen[0] is seen[1]
    with pytest.raises(TypeError):  # shared read-only within the pass
        seen[0]["spin_1_m0"] = None
    assert len(verify.run_checks(only="plain")) == 1 and len(built) == 1


def test_catalog_checks_take_the_shared_catalog():
    takes = {fn.__name__.removeprefix("check_") for fn in verify.ALL_CHECKS
             if "models" in inspect.signature(fn).parameters}
    assert takes == {"three_way_agreement", "oscillator_flat", "two_spin_spheres",
                     "adjoint_equivalence", "spin1_superposition", "oracle_quality"}
