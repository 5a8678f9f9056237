import numpy as np
import pytest

from burgers_lab.verify import (
    SUITES,
    energy_neutrality_suite,
    lyapunov_identity_suite,
    run_suites,
)


def test_all_suites_pass_at_default_seed():
    results = run_suites(seed=0)
    assert [r.name for r in results] == list(SUITES)
    for r in results:
        assert r.passed, f"{r.name} failed with worst={r.worst}"


def test_suites_pass_at_other_seeds():
    for seed in (1, 12345):
        assert all(r.passed for r in run_suites(seed=seed))


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


def test_injected_sign_error_fails_energy_neutrality():
    assert energy_neutrality_suite(seed=0, cases=5).passed
    broken = energy_neutrality_suite(seed=0, cases=5, nonlinear=_tail_sign_flipped)
    assert not broken.passed


def test_injected_sign_error_fails_lyapunov_identity():
    broken = lyapunov_identity_suite(seed=0, cases=5, nonlinear=_tail_sign_flipped)
    assert not broken.passed

