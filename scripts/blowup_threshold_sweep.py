#!/usr/bin/env python3
"""Scan the Reynolds-style ratio R/nu across the certificate threshold and
compare predicted blowup bounds with the numerical detection proxy."""

import argparse

import numpy as np

from burgers_lab.blowup import corollary_condition, detect_numerical_blowup
from burgers_lab.dynamics import DiagnosticsConfig, ModelParams, evolve
from burgers_lab.spectral import SineSpectrum


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--alpha", type=float, default=0.25)
    ap.add_argument("--nu", type=float, default=0.04)
    ap.add_argument("--ratios", type=float, nargs="+", default=[0.5, 0.9, 1.1, 2.0, 5.0],
                    help="multiples of the certificate threshold to probe")
    ap.add_argument("--modes", type=int, default=512)
    ap.add_argument("--dt", type=float, default=1e-4)
    ap.add_argument("--simulate", action="store_true")
    args = ap.parse_args()

    params = ModelParams(args.alpha, args.nu)
    threshold = corollary_condition(1.0, params).threshold
    print(f"alpha={args.alpha}  nu={args.nu}  threshold R/nu = {threshold:.4f}")
    print(f"{'R':>10} {'margin':>10} {'bound_T':>10} {'detected_T':>11}")
    for ratio in args.ratios:
        R = ratio * threshold * args.nu
        cert = corollary_condition(R, params)
        detected = ""
        if args.simulate:
            # evolve marches whole steps only: round the horizon 3 pi^2 / R to a multiple of dt
            steps = max(1, round(3.0 * np.pi**2 / R / args.dt))
            record = evolve(
                SineSpectrum.sine_wave(R, args.modes),
                params,
                steps * args.dt,
                args.dt,
                DiagnosticsConfig(stride=10),
            )
            t_star = detect_numerical_blowup(record)
            detected = f"{t_star:.4f}" if t_star is not None else "none"
        bound = f"{cert.predicted_bound_T:.4f}" if cert.predicted_bound_T else "-"
        print(f"{R:10.4f} {cert.margin:10.4f} {bound:>10} {detected:>11}")


if __name__ == "__main__":
    main()
