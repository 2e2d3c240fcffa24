"""Balanced urn simulation.

State C_n is a vector of d nonnegative real counts with total mass n + 1.
At time n a color is drawn with probability C_n[i] / (n + 1) and row i of
the replacement matrix is added, so the total always grows by exactly 1.

Two simulation paths are provided: simulate() runs one trajectory and
returns its draws, from which states and statistic paths are rebuilt,
while simulate_replicas() advances many independent replicas in
lockstep with vectorized draws.  Replica streams are derived from
(seed, chunk) via numpy SeedSequence spawn keys, chunks have a fixed
size, and each chunk writes its own rows of the batch's preallocated
arrays, so results are deterministic and independent of thread
scheduling.  The calling thread runs a share of the chunks, and at most
min(threads, chunks, usable CPUs) threads run, the caller included.

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

The replica kernel (_run_chunk) holds a chunk's draw counts k, the
state the exact law enumerates: C_j = C_0 + k^T R.  Each draw rebuilds
the cumulative sums of colors 0 .. d-2 from k as products with fixed
row differences, counts the sums the uniform reaches (a sum counts only
where the one before it does) and adds 1 to the drawn color's count.
There are no per-color gathers, and the final counts are formed once
from k.  Its draws differ from those of the row-major rule
min(sum(u >= cumsum(counts)), d - 1) it replaced only where a uniform
lands within one rounding of a sum; they are equal on every stream the
tests check, and golden hashes pin the streams.
"""
from __future__ import annotations

import os
import threading
from typing import NamedTuple

import numpy as np

from ._format import Table, columns, write_csv
from .errors import DimensionMismatch
from .spectral import ReplacementMatrix

BALANCE_TOL = 1e-9
DEFAULT_CHUNK = 16384
_MIN_WINDOW = 1024   # each window pays a fixed numpy overhead
_MAX_WINDOW = 4096
# One rng call fills this many bytes of uniforms: 8 draws of a full
# chunk.  On R2, 65,536 replicas x 1,000 draws at 2 threads (2-vCPU Xeon,
# medians of 10 alternating rounds), 128 KiB, 256 KiB, 1 MiB and 4 MiB
# took 0.350, 0.295, 0.279 and 0.275 s with the same bits: the gain stops
# at 1 MiB, and a larger block only holds more memory per thread.
_UNIFORM_BYTES = 1 << 20


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
                f"counts sum to {float(c.sum())!r}, expected {mass} "
                f"at time {time}")
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
    """Final states (and optionally draw histories) of many replicas.

    final_counts[r] is C_0 + k^T R for replica r's draw counts k, while
    trajectory(r) adds the rows in draw order, so for a non-dyadic R its
    final_count() can differ from final_counts[r] in the last bits.
    """

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


def _run_chunk(rows: np.ndarray, c0: np.ndarray, n: int,
               seed_seq: np.random.SeedSequence, finals: np.ndarray,
               draws: np.ndarray | None) -> None:
    """Advance m = len(finals) replicas by n draws on the stream
    default_rng(seed_seq), writing their final counts into finals (m, d)
    and, unless draws is None, their drawn colors into draws (m, n).

    A balanced urn has C_j = C_0 + k^T R, where k counts the draws of
    each color, so a replica holds only its draw counts: k_c for the
    colors c = 1 .. d-1, as rows of length-m float vectors that hold
    exact integers, and k_0 = j - sum_c k_c.  With rc = cumsum(R, axis=1)
    and cc = cumsum(C_0), cumulative sum i of C_j is

        s_i = sum_{c >= 1} k_c (rc[c, i] - rc[0, i]) + (cc_i + j rc[0, i]),

    the products added in color order, then the offset.  At draw j the
    uniform u in [0, j + 1) picks color sum_{i < d-1} [u >= s_i], the rule
    of the row-major kernel this one replaced.  At d >= 3 rounding can
    put two equal sums out of order, so sum i counts as reached only
    where sum i - 1 is: the rule applied to s_i raised to s_{i-1}.  The
    hits are then monotone, color c >= 1 is drawn where sum c - 1 is
    reached and sum c is not, and a draw counts once.  Each uniform block
    comes from one rng.random call and is scaled by j + 1 in one product:
    the same doubles and the same products as one call per draw.  The
    final counts are built once, c0_i + k_0 R[0, i] + k_1 R[1, i] + ...,
    added in color order.

    The draws equal the row-major kernel's except where a uniform lands
    within one rounding of a sum.  At an empty color such a window can
    remain: about 2^-52 wide for a middle color whose sum rounds above
    the one before it, and at the top edge for the last color, whose sum
    can round below the mass, as in the kernel this one replaced.  The
    final counts differ from n sequential row adds in their last bits,
    and not at all when R is dyadic.
    """
    rng = np.random.default_rng(seed_seq)
    m, d = finals.shape
    rc = np.cumsum(rows, axis=1)
    gains = (rc[1:, :-1] - rc[0, :-1])[:, :, None]   # gains[c - 1][i]
    cc, rc0 = np.cumsum(c0)[:-1, None], rc[0, :-1, None]
    k = np.zeros((d - 1, m))
    sums = np.empty((d - 1, m))
    step = np.empty((d - 1, m))     # also the products' scratch
    hits = np.empty((d - 1, m), dtype=bool)
    reached_below = list(zip(hits[1:], hits[:-1]))
    take_off = list(zip(step[:-1], step[1:]))
    per_call = max(1, _UNIFORM_BYTES // (8 * m))
    uniforms = np.empty((min(per_call, n), m))
    for j0 in range(0, n, per_call):
        block = uniforms[:n - j0]
        times = np.arange(j0, j0 + len(block))
        rng.random(out=block)
        block *= (times + 1.0)[:, None]
        offsets = cc + times[:, None, None] * rc0
        for j, u, offset in zip(times, block, offsets):
            np.multiply(gains[0], k[0], out=sums)
            for gain, kc in zip(gains[1:], k[1:]):
                sums += np.multiply(gain, kc, out=step)
            sums += offset
            np.greater_equal(u, sums, out=hits)
            for hit, below in reached_below:
                hit &= below
            # color c >= 1 is drawn where sum c - 1 is reached and sum c
            # is not
            np.copyto(step, hits)
            for drawn, beyond in take_off:
                drawn -= beyond
            k += step
            if draws is not None:
                hits.sum(axis=0, dtype=np.int16, out=draws[:, j])
    k = np.vstack([n - k.sum(axis=0), k])    # now k_0 .. k_{d-1}
    for col, c0_i, column in zip(finals.T, c0, rows.T):
        col[:] = c0_i + k[0] * column[0]
        for kc, r in zip(k[1:], column[1:]):
            col += kc * r


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def simulate_replicas(initial, R: ReplacementMatrix, n: int, replicas: int,
                      seed, keep_draws: bool = False, threads: int = 1,
                      chunk_size: int = DEFAULT_CHUNK) -> ReplicaBatch:
    """Advance many replicas in lockstep with vectorized draws.

    Chunk c of replicas uses the stream SeedSequence(seed, spawn_key=(c,))
    and writes its own rows of the final counts (and of the draws), so the
    result depends only on (seed, replicas, chunk_size), never on thread
    count or scheduling.  With w = min(threads, chunks, usable CPUs)
    workers, worker i runs the chunks c = i (mod w): worker 0 is the
    calling thread, and w - 1 helper threads run the rest.  Raises
    ValueError, naming the argument, when n < 0, replicas < 1,
    chunk_size < 1 or threads < 1.
    """
    c0 = initial_counts(initial, R)
    for name, value, least in (("n", n, 0), ("replicas", replicas, 1),
                               ("chunk_size", chunk_size, 1),
                               ("threads", threads, 1)):
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
    rows = R.matrix
    finals = np.empty((replicas, R.dim))
    draws = np.empty((replicas, n), dtype=np.int16) if keep_draws else None
    starts = range(0, replicas, chunk_size)
    workers = min(threads, len(starts), _usable_cpus())
    failed = threading.Event()    # a worker raised: the others stop early
    errors = []

    def work(first: int) -> None:
        for c in range(first, len(starts), workers):
            if failed.is_set():
                return
            mine = slice(starts[c], starts[c] + chunk_size)
            _run_chunk(rows, c0, n,
                       np.random.SeedSequence(seed, spawn_key=(c,)),
                       finals[mine], None if draws is None else draws[mine])

    def helper(first: int) -> None:
        try:
            work(first)
        except BaseException as exc:    # re-raised by the calling thread
            failed.set()
            errors.append(exc)

    helpers = []
    try:
        for first in range(1, workers):
            thread = threading.Thread(target=helper, args=(first,))
            thread.start()
            helpers.append(thread)
        work(0)
    except BaseException:
        failed.set()
        raise
    finally:
        for thread in helpers:
            thread.join()
    if errors:
        raise errors[0]
    return ReplicaBatch(R, c0, n, seed, finals, draws)
