import inspect

import numpy as np
import pytest

from burgers_lab import verify
from burgers_lab.dynamics import nonlinear_direct
from burgers_lab.verify import (
    SUITES,
    comparison_lemma_suite,
    energy_neutrality_suite,
    lyapunov_identity_suite,
    run_suites,
)


def test_all_suites_pass_at_default_seed():
    results = run_suites(seed=0)
    assert [r.name for r in results] == list(SUITES)
    for r in results:
        assert r.passed, f"{r.name} failed with worst={r.worst}"
        assert r.where, f"{r.name} does not name its worst case"


def test_suites_pass_at_other_seeds():
    for seed in (1, 12345):
        assert all(r.passed for r in run_suites(seed=seed))


def test_comparison_lemma_names_its_cases():
    assert comparison_lemma_suite().detail == "3 forced cases + closed-form check"


def test_suite_filter():
    results = run_suites(seed=0, only="energy-neutrality")
    assert len(results) == 1 and results[0].name == "energy-neutrality"


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suites(only="nope")


def _tail_sign_flipped(psi):
    """Deliberately broken kernel: the tail sum enters with the wrong sign."""
    N = psi.size
    n = np.arange(1, N + 1, dtype=float)
    s1 = np.zeros(N)
    if N >= 2:
        s1[1:] = np.convolve(psi, psi)[: N - 1]
    s2 = np.zeros(N)
    if N >= 2:
        s2[: N - 1] = np.convolve(psi, psi[::-1])[N - 2 :: -1][: N - 1]
    return n * (0.5 * s1 + s2)


def test_injected_sign_error_fails_energy_neutrality(monkeypatch):
    assert energy_neutrality_suite(seed=0).passed
    monkeypatch.setattr(verify, "nonlinear_direct", _tail_sign_flipped)
    broken = energy_neutrality_suite(seed=0)
    assert not broken.passed


def test_injected_sign_error_fails_lyapunov_identity(monkeypatch):
    monkeypatch.setattr(verify, "nonlinear_direct", _tail_sign_flipped)
    broken = lyapunov_identity_suite(seed=0)
    assert not broken.passed


def test_non_finite_kernel_output_fails_and_is_located(monkeypatch):
    calls = []

    def nan_on_third_call(psi):
        calls.append(psi)
        return np.full_like(psi, np.nan) if len(calls) == 3 else nonlinear_direct(psi)

    monkeypatch.setattr(verify, "nonlinear_direct", nan_on_third_call)
    broken = energy_neutrality_suite(seed=0)
    assert not broken.passed and np.isnan(broken.worst)
    assert broken.where == "seed 0, case 2, N=256"


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_suite_takes_only_a_seed(name):
    # the data, sizes and kernel of a suite are its own: a seam set only by tests does not come back
    assert list(inspect.signature(SUITES[name]).parameters) == ["seed"]

