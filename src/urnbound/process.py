"""Balanced urn simulation.

State C_n is a vector of d nonnegative real counts with total mass n + 1.
At time n a color is drawn with probability C_n[i] / (n + 1) and row i of
the replacement matrix is added, so the total always grows by exactly 1.

Two simulation paths are provided: simulate() runs one trajectory and
returns its draws, from which states and statistic paths are rebuilt,
while simulate_replicas() advances many independent replicas in
lockstep with vectorized draws.  Replica streams are derived from
(seed, chunk) via numpy SeedSequence spawn keys, chunks have a fixed
size, and chunk results are merged in index order, so results are
deterministic and independent of thread scheduling.

simulate() draws in verified windows.  It holds a frontier f and the
exact state C_f, guesses the next w draws (draws recomputed by the last
window where it has them, else from C_f's cumulative sums scaled to each
step's mass), rebuilds C_f .. C_{f+w} from the guesses with one cumsum
down the rows (the same adds, in the same order, as stepping one draw at
a time) and recomputes every draw from its state with _draws.  The
window is accepted up to and including its first mismatch: by induction
on j, while the guesses before step j are right the state at j is exact,
so the draw computed at j is too.  The window doubles after a clean
pass and halves after a mismatch, between _MIN_WINDOW and _MAX_WINDOW.
The draws equal, bit for bit, those of the per-draw loop it replaced,
which the tests keep as their reference.

The replica kernel (_run_chunk) keeps a chunk's counts column-major, as d
contiguous length-m vectors, one per color, with preallocated per-draw
buffers.  Its draw rule counts the left-to-right cumulative sums of
colors 0 .. d-2 that the uniform reaches, which equals, bit for bit, the
row-major rule min(sum(u >= cumsum(counts)), d - 1) it replaced; the
golden hashes in the tests pin the streams.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ._format import Table, columns, write_csv
from .errors import DimensionMismatch
from .spectral import ReplacementMatrix

BALANCE_TOL = 1e-9
DEFAULT_CHUNK = 16384
_MIN_WINDOW = 1024   # each window pays a fixed numpy overhead
_MAX_WINDOW = 4096


class ColorCount(NamedTuple("ColorCount",
                             [("counts", np.ndarray), ("time", int)])):
    """Counts at a fixed time; total mass must equal time + 1."""

    __slots__ = ()

    def __new__(cls, counts, time: int):
        c = np.array(counts, dtype=float)
        if c.ndim != 1 or c.size < 2:
            raise ValueError("counts must be a vector of at least 2 colors")
        if np.min(c) < 0:
            raise ValueError(f"negative count: {c.min()}")
        mass = time + 1.0
        if abs(c.sum() - mass) > BALANCE_TOL * mass:
            raise ValueError(
                f"counts sum to {c.sum()!r}, expected {mass} at time {time}")
        c.flags.writeable = False
        return super().__new__(cls, c, time)


def initial_counts(initial, R: ReplacementMatrix) -> np.ndarray:
    """Initial state as a float vector with unit mass, nonnegative and
    with one entry per color of R."""
    c0 = np.array(initial, dtype=float)
    ColorCount(c0, 0)
    if c0.size != R.dim:
        raise DimensionMismatch(f"initial has {c0.size} colors, matrix {R.dim}")
    return c0


def _statistic_vector(v, d: int) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (d,):
        raise DimensionMismatch(
            f"statistic vector has shape {v.shape}, need ({d},)")
    return v


def _draws(states: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Color drawn from each state (one per row) by its target in [0, mass).

    The draw is the number of left-to-right cumulative sums of the state
    that the target reaches: the first color whose running sum exceeds the
    target, never an empty one, since an empty color repeats the sum
    before it.  A target that reaches every sum (the float top edge)
    draws the last nonempty color.
    """
    running = states[:, 0]
    drawn = (targets >= running).astype(np.intp)
    for column in states.T[1:]:
        running = running + column
        drawn += targets >= running
    top = np.flatnonzero(drawn == states.shape[1])
    if top.size:
        nonempty = states[top, ::-1] > 0
        drawn[top] = states.shape[1] - 1 - np.argmax(nonempty, axis=1)
    return drawn


class Trajectory(NamedTuple):
    """One simulated urn, held as its draws.

    `draws[j]` is the color drawn at time j (producing C_{j+1}).  States
    and statistic paths are rebuilt from the draws, so a trajectory from
    simulate() and one from a replica batch give the same history.
    """

    matrix: ReplacementMatrix
    initial: np.ndarray
    draws: np.ndarray
    seed: object

    @property
    def n_draws(self) -> int:
        return self.draws.size

    def counts_matrix(self) -> np.ndarray:
        """All states C_0 .. C_N, summed in draw order as simulate() adds
        them: C_{j+1} = C_j + R[draws[j]]."""
        steps = np.vstack([self.initial, self.matrix.matrix[self.draws]])
        return np.cumsum(steps, axis=0, out=steps)

    def statistic(self, v: np.ndarray) -> np.ndarray:
        """Path j -> C_j . v for j = 0 .. N."""
        v = _statistic_vector(v, self.initial.size)
        out = np.empty(self.n_draws + 1)
        out[0] = self.initial @ v
        np.cumsum((self.matrix.matrix @ v)[self.draws], out=out[1:])
        out[1:] += out[0]
        return out

    def final_count(self) -> ColorCount:
        return ColorCount(self.counts_matrix()[-1], self.n_draws)

    @property
    def table(self) -> Table:
        """(header, rows) with columns time, count_0..count_{d-1}, draw.

        Row j >= 1 records the draw that produced state C_j; the draw of
        row 0 is None.
        """
        hist = self.counts_matrix()
        return columns(["time"] + [f"count_{i}" for i in range(hist.shape[1])]
                       + ["draw"], range(hist.shape[0]), *hist.T, self.draws)

    def to_csv(self, path) -> None:
        write_csv(path, *self.table)


def simulate(initial, R: ReplacementMatrix, n: int, seed) -> Trajectory:
    """Run one trajectory of n draws from a unit-mass initial state, in
    verified windows (see the module docstring)."""
    c0 = initial_counts(initial, R)
    if n < 0:
        raise ValueError("n must be nonnegative")
    rng = np.random.default_rng(seed)
    targets = rng.random(n) * np.arange(1.0, n + 1.0)
    rows = R.matrix
    draws = np.empty(n, dtype=np.int64)
    state = c0           # C_f, exact: the state after f accepted draws
    f = 0
    width = _MIN_WINDOW
    guess = draws[:0]    # draws recomputed past the frontier, reused
    while f < n:
        width = min(width, n - f)
        start = f + guess.size
        if start < f + width:
            # new positions: each target, scaled to C_f's mass, against
            # C_f's cumulative sums
            scaled = (targets[start:f + width] * (f + 1.0)
                      / np.arange(start + 1.0, f + width + 1.0))
            fresh = np.searchsorted(np.cumsum(state)[:-1], scaled,
                                    side="right")
            guess = np.concatenate([guess, fresh])
        guess = guess[:width]
        states = np.empty((width + 1, rows.shape[1]))
        states[0] = state
        rows.take(guess, axis=0, out=states[1:])
        # the row adds of one draw at a time, in draw order
        np.cumsum(states, axis=0, out=states)
        got = _draws(states[:-1], targets[f:f + width])
        miss = np.flatnonzero(got != guess)
        accepted = miss[0] + 1 if miss.size else width
        draws[f:f + accepted] = got[:accepted]
        state = states[accepted - 1] + rows[got[accepted - 1]]
        guess = got[accepted:]
        f += accepted
        width = (max(width // 2, _MIN_WINDOW) if miss.size
                 else min(2 * width, _MAX_WINDOW))
    return Trajectory(R, c0, draws, seed)


class ReplicaBatch(NamedTuple):
    """Final states (and optionally draw histories) of many replicas."""

    matrix: ReplacementMatrix
    initial: np.ndarray
    n: int
    seed: object
    final_counts: np.ndarray
    draws: np.ndarray | None = None

    @property
    def replicas(self) -> int:
        return self.final_counts.shape[0]

    def statistics(self, v: np.ndarray) -> np.ndarray:
        """Final-state statistic C_n . v per replica."""
        return self.final_counts @ _statistic_vector(v, self.initial.size)

    def trajectory(self, r: int) -> Trajectory:
        if self.draws is None:
            raise ValueError("batch was run without keep_draws")
        return Trajectory(self.matrix, self.initial.copy(),
                          self.draws[r].astype(np.int64), (self.seed, r))


def _run_chunk(rows: np.ndarray, c0: np.ndarray, n: int, m: int,
               seed_seq: np.random.SeedSequence, keep_draws: bool):
    """Advance m replicas by n draws on the stream default_rng(seed_seq).

    The counts are held column by column: cols[i] is the length-m vector
    of color i, and table[i] = R[:, i] is the amount each drawn color adds
    to it.  Every per-draw buffer is allocated once.  At draw j the
    uniforms u in [0, j + 1) pick color chosen = sum_{i < d-1}
    [u >= c_0 + ... + c_i], the running sum taken left to right.  This is
    the same number, bit for bit, as the row-major rule
    min(sum_i [u >= cumsum(counts)_i], d - 1): the last cumulative sum can
    only add the step that the cap removes.

    Returns the final counts (m, d) and, with keep_draws, the drawn colors
    (m, n) as int16.
    """
    rng = np.random.default_rng(seed_seq)
    cols = [np.full(m, c) for c in c0]
    table = [np.ascontiguousarray(column) for column in rows.T]
    u = np.empty(m)
    cumulative = np.empty(m)
    hit = np.empty(m, dtype=bool)
    chosen = np.empty(m, dtype=np.intp)
    step = np.empty(m)
    draws = np.empty((m, n), dtype=np.int16) if keep_draws else None
    for j in range(n):
        rng.random(out=u)
        u *= j + 1.0
        np.greater_equal(u, cols[0], out=hit)
        np.copyto(chosen, hit)
        running = cols[0]
        for col in cols[1:-1]:
            running = np.add(running, col, out=cumulative)
            np.greater_equal(u, running, out=hit)
            chosen += hit
        for col, column_of_R in zip(cols, table):
            # chosen is always in range; "clip" skips take's buffered check
            column_of_R.take(chosen, out=step, mode="clip")
            col += step
        if keep_draws:
            draws[:, j] = chosen
    return np.stack(cols, axis=1), draws


def simulate_replicas(initial, R: ReplacementMatrix, n: int, replicas: int,
                      seed, keep_draws: bool = False, threads: int = 1,
                      chunk_size: int = DEFAULT_CHUNK) -> ReplicaBatch:
    """Advance many replicas in lockstep with vectorized draws.

    Chunk c of replicas uses the stream SeedSequence(seed, spawn_key=(c,)),
    so the result depends only on (seed, replicas, chunk_size), never on
    thread count or scheduling.
    """
    c0 = initial_counts(initial, R)
    if replicas < 1:
        raise ValueError("need at least one replica")
    rows = R.matrix
    sizes = [min(chunk_size, replicas - s) for s in range(0, replicas, chunk_size)]
    seqs = [np.random.SeedSequence(seed, spawn_key=(c,)) for c in range(len(sizes))]
    jobs = [(rows, c0, n, m, ss, keep_draws) for m, ss in zip(sizes, seqs)]
    if threads > 1 and len(jobs) > 1:
        # imported here, so a run on one thread never loads it
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda args: _run_chunk(*args), jobs))
    else:
        parts = [_run_chunk(*args) for args in jobs]
    finals = np.vstack([p[0] for p in parts])
    draws = np.vstack([p[1] for p in parts]) if keep_draws else None
    return ReplicaBatch(R, c0, n, seed, finals, draws)

