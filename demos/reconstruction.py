"""Exact martingale reconstruction of linear statistics, step by step.

One trajectory per matrix: the deterministic part plus weighted
martingale increments rebuilds C_n.xi to float accuracy, including the
defective (Jordan) case with its nested increments.  Every increment has
conditional mean zero given the past, which conditional_means checks.

Run with: python3 demos/reconstruction.py
"""
import numpy as np

from urnbound.decomposition import conditional_means, expand
from urnbound.process import simulate
from urnbound.spectral import decompose, validate_matrix


def simple_case():
    R = validate_matrix([[0.7, 0.3], [0.4, 0.6]])
    S = decompose(R)
    member, = S.structures[0].members
    traj = simulate([1.0, 0.0], R, 2_000, seed=42)
    exp = expand(traj, member)
    (zeroth,), ((weights, increments),) = exp.zeroths, exp.parts
    print("== simple eigenvalue ==")
    print(f"lambda = {member.value:g}, n = {traj.n_draws}")
    print(f"zeroth term      {zeroth:+.12f}")
    print(f"increment sum    {float(weights @ increments):+.12f}")
    print(f"reconstructed    {exp.reconstructed:+.12f}")
    print(f"actual C_n.xi    {exp.actual:+.12f}")
    print(f"residual         {exp.residual:.2e}")
    partial = exp.partial_sums()
    for j in (0, 9, 99, 999, 1_999):
        print(f"  after step {j + 1:>5}: partial sum {partial[j]:+.6f}")
    means = conditional_means(traj, member)
    print(f"max |conditional mean| over all steps: {np.max(np.abs(means)):.2e}")
    print()


def jordan_case():
    R = validate_matrix([[5 / 8, 3 / 8, 0.0],
                         [1 / 8, 3 / 8, 1 / 2],
                         [1 / 4, 1 / 4, 1 / 2]])
    S = decompose(R)
    st = next(s for s in S.structures if s.jordan)
    traj = simulate([1.0, 0.0, 0.0], R, 2_000, seed=43)
    exp = expand(traj, st.members[1])        # xi3, with xi2 as its partner
    print("== defective eigenvalue ==")
    print(f"lambda = {st.value:g} (algebraic 2, geometric 1), n = {traj.n_draws}")
    print(f"zeroth xi3       {exp.zeroths[0]:+.12f}")
    print(f"zeroth xi2       {exp.zeroths[1]:+.12f}")
    direct, nested = (float(w @ inc) for w, inc in exp.parts)
    print(f"direct sum       {direct:+.12f}")
    print(f"nested sum       {nested:+.12f}")
    print(f"reconstructed    {exp.reconstructed:+.12f}")
    print(f"actual C_n.xi3   {exp.actual:+.12f}")
    print(f"residual         {exp.residual:.2e}")
    means = np.max(np.abs(conditional_means(traj, st.members[1])), axis=1)
    print(f"max |conditional mean| over all steps: direct {means[0]:.2e},"
          f" nested {means[1]:.2e}")
    print()


def main():
    simple_case()
    jordan_case()


if __name__ == "__main__":
    main()
