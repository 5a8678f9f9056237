#!/usr/bin/env python3
"""Measure the linear-in-time decay of ||u(t) - r F||^2 along exact
inviscid solutions, for several multiples r, and print measured vs
predicted slopes."""

import argparse

import numpy as np

from burgers_lab.attractors import PROFILES, AttractorFn, attractor_decay_series, optimal_r
from burgers_lab.characteristics import InitialField, tmax_inviscid
from burgers_lab.spectral import SineSpectrum, _weighted_energy


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--amplitude", type=float, default=1.0, help="u0 = -R sin x")
    ap.add_argument("--points", type=int, default=9)
    args = ap.parse_args()

    u0 = InitialField(SineSpectrum.sine_wave(args.amplitude))
    energy0 = float(_weighted_energy(u0.spectrum.psi))
    t_max = tmax_inviscid(u0)
    scaling = optimal_r(u0.spectrum)
    print(f"u0 = -{args.amplitude:g} sin x   T_max = {t_max:.6f}   "
          f"r0 = {scaling.r0:.6f}   bound on T_max = {scaling.g_r0:.6f}")

    # the tables inviscid writes: D(t) and the predicted line D(0) - r ||u0||^2 t, from t = 0
    times = np.concatenate([[0.0], np.linspace(0.1, 0.9, args.points) * t_max])
    for r in (0.5 * scaling.r0, scaling.r0, 2.0 * scaling.r0):
        table = attractor_decay_series(u0, times, AttractorFn("F", r, "origin"))
        slope = np.polyfit(times, table.distance, 1)[0]
        print(f"r = {r:.6f}:  D(0) = {table.distance[0]:.6f}  measured slope = {slope:+.9f}  "
              f"predicted = {-r * energy0:+.9f}  max law error = "
              f"{np.max(np.abs(table.distance - table.predicted)):.2e}")

    # the sawtooth's slope is 1 off its jump, so D(0) - ||u0||^2 t is its exact law
    table = attractor_decay_series(u0, times, attractor=PROFILES["sawtooth"])
    margin = np.min(table.predicted - table.distance)
    print(f"sawtooth profile: D(0) = {table.distance[0]:.6f}, "
          f"upper-bound margin min over t = {margin:.6f} (>= 0 expected)")


if __name__ == "__main__":
    main()
