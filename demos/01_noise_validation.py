"""Validate the colored-noise generator against its target statistics.

Generates an ensemble of exponentially correlated control-field
fluctuations, then checks the three properties everything downstream
relies on: zero mean, stationary variance sigma^2, and autocovariance
sigma^2 exp(-|t - t'| / tau_c).
"""

import numpy as np

from gqclab import NoiseSpec, ensemble_autocorrelation, make_noise_ensemble

SIGMA2 = 1.5        # stationary variance of the field fluctuation  [field^2]
TAU_C = 0.1         # correlation time                              [s]
DURATION = 200.0    # length of each path                           [s]
DT = 0.005          # sample spacing (must resolve tau_c / 10)      [s]
PATHS = 64


def main():
    spec = NoiseSpec(variance=SIGMA2, correlation_time=TAU_C)
    values = make_noise_ensemble(spec, DURATION, DT, master_seed=7, realizations=PATHS)
    print(f"ensemble of {PATHS} paths, {values.shape[1]} samples each")
    print(f"  sample mean      {values.mean():+.4f}   (target 0)")
    print(f"  sample variance  {values.var():.4f}   (target {SIGMA2})")
    print()

    lags = np.array([0.0, 0.5, 1.0, 2.0, 3.0]) * TAU_C
    estimates = ensemble_autocorrelation(spec, DURATION, DT, 7, PATHS, lags)
    print(f"{'lag/tau_c':>10} {'measured':>10} {'expected':>10} {'SE':>8}")
    for lag, est, se in estimates:
        expected = SIGMA2 * np.exp(-lag / TAU_C)
        print(f"{lag / TAU_C:>10.1f} {est:>10.4f} {expected:>10.4f} {se:>8.4f}")
    print()
    print("the lag-tau_c row should sit at sigma^2 / e within a few SE;")
    print("the same check is available from the shell:")
    print("  gqclab noise-validate --config <json> --out table.csv")


if __name__ == "__main__":
    main()
