"""Period finding under phase noise: where the quantum speedup dies.

The order-finding register ends in sum_j exp(i Gamma_j) |jr + l> / sqrt(M);
after the discrete Fourier transform the outcome distribution is

    P(c) = [M + (|S(c)|^2 - M) exp(-v)] / (M q),

where v is the variance of the random path phases Gamma_j and S(c) is the
noiseless geometric sum. As v grows the interference peaks at c ~ c' q / r
flatten toward the uniform distribution, and the expected number of runs to
observe a useful outcome grows from O(1) to q / phi(r) ~ O(N^2 / phi(r)) --
the exponential advantage is gone.
"""

import numpy as np

from gqclab import (
    NoisyAmplitudeModel,
    ShorInstance,
    euler_phi,
    gqc_onset,
    prob_averaged,
    runtime_scaling,
    success_probability,
)

ONSET_V = 4 * np.pi**2


def main():
    inst = ShorInstance(15, 7)
    print(f"N = {inst.modulus}, base {inst.base}: period r = {inst.period}, "
          f"register q = 2^{inst.bits} = {inst.register_size}")
    print()

    print(f"{'v (rad^2)':>10} {'P(c=64)':>10} {'P_suc':>10} {'runs':>8} "
          f"{'regime':>10}")
    for v in (0.0, 0.5, 2.0, 8.0, ONSET_V):
        model = NoisyAmplitudeModel(instance=inst, path_phase_variance=v)
        peak = prob_averaged(model, np.array([64]))[0]
        rep = success_probability(model)
        print(f"{v:>10.2f} {peak:>10.4f} {rep.success_probability:>10.4f} "
              f"{rep.runs_needed:>8.1f} {rep.regime:>10}")
    print()
    print(f"decohered floor: phi(r)/q = "
          f"{euler_phi(inst.period) / inst.register_size:.5f}")

    # scaling with problem size at full decoherence
    pairs = [(15, 7), (21, 2), (33, 2), (51, 2)]
    instances = [ShorInstance(n, y) for n, y in pairs]
    rows = runtime_scaling(instances, [ONSET_V] * len(instances))
    print()
    print(f"{'N':>5} {'r':>4} {'q':>6} {'P_suc':>10} {'runs needed':>12}")
    for row in rows:
        print(f"{row['modulus']:>5} {row['period']:>4} "
              f"{row['register_size']:>6} "
              f"{row['success_probability']:>10.5f} "
              f"{row['runs_needed']:>12.1f}")
    print()
    # the onset condition ties v back to physical gate-noise parameters
    ratio = gqc_onset(
        power_density=20.0, bandwidth=1.0, correlation_time=0.01,
        period=1.0, bits=inst.bits, coupling=1.0, cone_angle=np.pi / 2,
    )
    print(f"example hardware point: gqc_onset = {ratio:.3f} "
          "(>= 1 means the full transform decoheres)")
    print("shell equivalent: gqclab shor-scan --config <json> --out t.csv")


if __name__ == "__main__":
    main()
