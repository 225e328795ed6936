"""Calibrate the linear-in-eps bound for ``radius_containment``.

Usage (from the root of a checkout):

    python3 perfbench/radius_slope.py

Draws boundary points and tangent directions on quadrics exactly as the
oracle-lowdim workload does (n in {2, 3}, eigenvalues of A in [0.5, 2]),
runs ``radius_containment`` at eps = 0.05 and 0.1 and prints, per eps, the
largest and the 99th-percentile relative error against 1 / (2 gamma_hat)
divided by eps.  ``reference.RADIUS_SLOPE`` is set from these figures, made
with the SAMPLES and SEED below.
"""

from __future__ import annotations

import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402

SAMPLES = 1300   # per eps
SEED = 0


def main() -> int:
    import dircurv as dc

    rng = np.random.default_rng(SEED)
    for eps in (0.05, 0.1):
        slopes = []
        for _ in range(SAMPLES):
            n = int(rng.choice([2, 3]))
            a = workloads.random_quadric(rng, n)
            body = dc.body_from_dict(workloads.quadric_body(a))
            x = workloads.boundary_point(rng, a)
            u = workloads.tangent_direction(rng, 2.0 * a @ x)
            want = 1.0 / (2.0 * workloads.gamma_reference(a, x, u))
            got = dc.radius_containment(dc.validate_point(body, x), u, eps)
            slopes.append(abs(got - want) / want / eps)
        slopes = np.array(slopes)
        print(f"eps={eps}: samples={len(slopes)} max rel err/eps={slopes.max():.3f} "
              f"p99={np.percentile(slopes, 99):.3f} median={np.median(slopes):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
