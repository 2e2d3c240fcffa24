"""Check that the table writer renders every double exactly as fmt() does.

    python tools/writer_check.py [COUNT] [SEED]

Imports urnbound from the src directory next to this one.  Draws COUNT
doubles (default 5,000,000) in chunks of 100,000, a quarter of each chunk
from every family: random bit patterns (non-finite ones dropped),
log-uniform magnitudes over the whole double range, neighbours of powers
of ten (up to 4 ulps away) and exact ties at the 17th significant digit
(odd m / 2^f whose scaled value m 5^(f-1) / 2 is half an odd integer in
[1e16, 1e17)), all of both signs.  Each chunk also brings a family of
int64 values: random bit patterns and log-uniform magnitudes over the
whole int64 range, -1,000..1,000, 10^j - 1, 10^j and 10^j + 1 for
j <= 18, and -2^63 and 2^63 - 1, all of both signs, ordered by
magnitude so that the blocks the writer renders at once differ in width.
Each is written with write_csv as a one-column table and every line is
compared with fmt() of its value (str() for an int).  Prints the first
difference and exits 1, else exits 0.
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
EDGES = np.array([-2 ** 63, 2 ** 63 - 1] + list(range(-1000, 1001))
                 + [s * (10 ** j + k) for j in range(19) for k in (-1, 0, 1)
                    for s in (-1, 1)], np.int64)


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


def draw_ints(rng, n: int) -> np.ndarray:
    """EDGES and n int64 values, half random bit patterns and half
    log-uniform magnitudes, of both signs, ordered by magnitude."""
    bits = rng.integers(-2 ** 63, 2 ** 63, n // 2, dtype=np.int64)
    spread = (10.0 ** rng.uniform(0, 18.96, n - n // 2)).astype(np.int64)
    spread *= rng.choice([-1, 1], spread.size)
    k = np.concatenate([EDGES, bits, spread])
    return k[np.argsort(np.abs(k).view(np.uint64), kind="stable")]


def mismatch(path, values) -> str | None:
    """Write values as a one-column table at path and compare each line
    with fmt(); the first difference, if any."""
    write_csv(path, *columns(["x"], values))
    with open(path) as fh:
        lines = fh.read().splitlines()[1:]
    for v, line in zip(values.tolist(), lines):
        if line != fmt(v):
            return f"{v!r}: writer {line!r}, fmt {fmt(v)!r}"
    if len(lines) != values.size:
        return f"{len(lines)} lines for {values.size} values"
    return None


def main(count: int, seed: int) -> int:
    rng = np.random.default_rng(seed)
    checked = ints = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "x.csv")
        while checked < count:
            x = draw(rng, min(CHUNK, count - checked))
            k = draw_ints(rng, x.size // 4)
            for values in (x, k):
                error = mismatch(path, values)
                if error:
                    print(error)
                    return 1
            checked += x.size
            ints += k.size
    print(f"{checked} doubles and {ints} integers: every line matches fmt()")
    return 0


if __name__ == "__main__":
    args = sys.argv[1:]
    sys.exit(main(int(float(args[0])) if args else 5_000_000,
                  int(args[1]) if len(args) > 1 else 0))
