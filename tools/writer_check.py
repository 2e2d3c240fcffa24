"""Check that the table writer renders every double exactly as fmt() does.

    python tools/writer_check.py [COUNT] [SEED]

Imports urnbound from the src directory next to this one.  Draws COUNT
doubles (default 5,000,000) in chunks of 100,000, a quarter of each chunk
from every family: random bit patterns (non-finite ones dropped),
log-uniform magnitudes over the whole double range, neighbours of powers
of ten (up to 4 ulps away) and exact ties at the 17th significant digit
(odd m / 2^f whose scaled value m 5^(f-1) / 2 is half an odd integer in
[1e16, 1e17)), all of both signs.  Each chunk is written with write_csv
as a one-column table and every line is compared with fmt() of its
value.  Prints the first difference and exits 1, else exits 0.
"""
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))
from urnbound._format import columns, fmt, write_csv  # noqa: E402

CHUNK = 100_000
POWERS = np.array([float(f"1e{k}") for k in range(-323, 309)])
# the odd m of a tie with exponent f lie in [TIE_LO[f-2], TIE_HI[f-2])
TIE_F = np.arange(2, 26)
TIE_LO = np.array([max(1, -(-2 ** f * 10 ** 17 // 10 ** f))
                   for f in range(2, 26)])
TIE_HI = np.array([min(2 ** 53, -(-2 ** f * 10 ** 18 // 10 ** f))
                   for f in range(2, 26)])


def draw(rng, n: int) -> np.ndarray:
    """n doubles, a quarter from each family, shuffled."""
    k = n // 4
    bits = rng.integers(0, 2 ** 64, k, dtype=np.uint64).view(np.float64)
    spread = 10.0 ** rng.uniform(-323, 308, k)
    near = rng.choice(POWERS, k)
    steps = rng.integers(-4, 5, k)
    for s in range(1, 5):
        moved = np.abs(steps) >= s
        near[moved] = np.nextafter(near[moved],
                                   np.copysign(np.inf, steps[moved]))
    j = rng.integers(0, TIE_F.size, n - 3 * k)
    m = (TIE_LO[j] + rng.integers(0, TIE_HI[j] - TIE_LO[j])) | 1
    m = np.where(m < TIE_HI[j], m, m - 2)
    ties = np.ldexp(m.astype(np.float64), -TIE_F[j])
    x = np.concatenate([bits, spread, near, ties])
    x = x[np.isfinite(x)]
    x *= rng.choice([-1.0, 1.0], x.size)
    return rng.permutation(x)


def main(count: int, seed: int) -> int:
    rng = np.random.default_rng(seed)
    checked = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x.csv")
        while checked < count:
            x = draw(rng, min(CHUNK, count - checked))
            write_csv(path, *columns(["x"], x))
            with open(path) as fh:
                lines = fh.read().splitlines()[1:]
            for v, line in zip(x.tolist(), lines):
                if line != fmt(v):
                    print(f"{v!r}: writer {line!r}, fmt {fmt(v)!r}")
                    return 1
            if len(lines) != x.size:
                print(f"{len(lines)} lines for {x.size} values")
                return 1
            checked += x.size
    print(f"{checked} doubles: every line matches fmt()")
    return 0


if __name__ == "__main__":
    args = sys.argv[1:]
    sys.exit(main(int(float(args[0])) if args else 5_000_000,
                  int(args[1]) if len(args) > 1 else 0))
