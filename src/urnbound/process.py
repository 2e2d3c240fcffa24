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
The comparisons land as 0.0 or 1.0 in the sums' rows, so a draw makes
no bool array and no copy of one.  Each worker holds one float block of
3 (d - 1) rows of the chunk length (counts, sums and hits, products and
uniforms), allocated by simulate_replicas before any helper starts, so
its scratch does not grow with n and no draw or chunk allocates an
array of the chunk's length: 0.375 MiB at d = 2 and 0.75 MiB at d = 3
for a 16,384-replica chunk.  There are no per-color gathers, and the
final counts are formed once from k, in the block's rows.  Its draws
differ from those of the row-major rule min(sum(u >= cumsum(counts)),
d - 1) it replaced only where a uniform lands within one rounding of a
sum; they are equal on every stream the tests check, and golden hashes
pin the streams.

Generators come from _numpy_random(), which gives numpy.random (lazy
in numpy 2) with only its PCG64 Generator loaded and without mapping
OpenSSL.  Its __init__ would also load the legacy RandomState and the
other bit generators (about 1 MiB resident), and it runs only when a
name the helper does not bind is first used.  numpy's bit_generator
takes only randbits from secrets, whose import loads hmac and with it
libcrypto (about 3.7 MiB resident), so with numpy >= 2 no run maps
OpenSSL.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import random
import sys
import threading
import types
from typing import NamedTuple

import numpy as np

from ._format import Table, columns, write_csv
from .errors import DimensionMismatch, IndexOrder, NegativeEntry, RowSumNotOne
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
            raise DimensionMismatch(
                "counts must be a vector of at least 2 colors")
        if np.min(c) < 0:
            raise NegativeEntry(f"negative count: {c.min()}")
        mass = time + 1.0
        if abs(c.sum() - mass) > BALANCE_TOL * mass:
            raise RowSumNotOne(
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


def _numpy_random() -> types.ModuleType:
    """The numpy.random package, with only what a PCG64 Generator needs.

    The package module is built from its own spec and registered, as the
    import system would, without running its __init__: only its
    submodules bit_generator, _pcg64 and _generator are imported (they
    bring _common and _bounded_integers), not the legacy RandomState
    (mtrand, seeded on import) nor the other bit generators, about
    1 MiB resident.  The module holds Generator, PCG64, BitGenerator,
    SeedSequence and a default_rng that gives numpy's result for a
    Generator (as is), a BitGenerator (wrapped) and an int, SeedSequence
    or None (Generator(PCG64(seed))); it hands any other seed to numpy's
    own.  The first access to any other name runs the real __init__
    into the same module (PEP 562), so a later np.random.RandomState or
    `import numpy.random` works as after a plain import.

    The submodules are imported while sys.modules["secrets"] is a
    stand-in.  It holds randbits as CPython's secrets defines it,
    SystemRandom().getrandbits, and serves any other public name from
    the real secrets, which then takes its place in sys.modules.  It is
    removed when the imports return, so a later `import secrets` gets
    the standard module.  With secrets loaded already, the real one
    serves.  When numpy.random is loaded already (numpy 1.x imports it
    with numpy), that module is returned as it is.  The generators are
    numpy's own: streams keep their bits.
    """
    if "numpy.random" in sys.modules:
        return sys.modules["numpy.random"]
    spec = importlib.machinery.PathFinder.find_spec("numpy.random",
                                                    np.__path__)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy.random"] = module
    np.random = module      # bound on numpy, as the import system does
    stand_in = None
    if "secrets" not in sys.modules:
        stand_in = types.ModuleType("secrets")
        stand_in.randbits = random.SystemRandom().getrandbits

        def real(name: str):
            if name.startswith("__"):   # the import system's probes
                raise AttributeError(name)
            if sys.modules.get("secrets") is stand_in:
                del sys.modules["secrets"]
            return getattr(__import__("secrets"), name)

        stand_in.__getattr__ = real
        sys.modules["secrets"] = stand_in
    try:
        for name in ("bit_generator", "_pcg64", "_generator"):
            importlib.import_module(f"numpy.random.{name}")
    except BaseException:
        del sys.modules["numpy.random"], np.random
        raise
    finally:
        if stand_in is not None and sys.modules.get("secrets") is stand_in:
            del sys.modules["secrets"]
    Generator, PCG64 = module._generator.Generator, module._pcg64.PCG64
    BitGenerator = module.bit_generator.BitGenerator
    SeedSequence = module.bit_generator.SeedSequence
    completing = threading.RLock()
    running = []

    def default_rng(seed=None):
        if isinstance(seed, Generator):
            return seed
        if isinstance(seed, BitGenerator):
            return Generator(seed)
        if seed is None or isinstance(seed, (int, np.integer, SeedSequence)):
            return Generator(PCG64(seed))
        return complete("default_rng")(seed)

    def complete(name: str):
        with completing:
            if running:     # the __init__ below, probing for a submodule
                raise AttributeError(name)
            if vars(module).get("__getattr__") is complete:
                running.append(name)
                try:
                    spec.loader.exec_module(module)
                finally:
                    running.clear()
                del module.__getattr__
        return getattr(module, name)

    vars(module).update(Generator=Generator, PCG64=PCG64,
                        BitGenerator=BitGenerator, SeedSequence=SeedSequence,
                        default_rng=default_rng, __getattr__=complete)
    return module


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
        raise IndexOrder("n must be nonnegative")
    rng = _numpy_random().default_rng(seed)
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
               draws: np.ndarray | None, block: np.ndarray) -> None:
    """Advance m = len(finals) replicas by n draws on the stream
    default_rng(seed_seq), writing their final counts into finals (m, d)
    and, unless draws is None, their drawn colors into draws (m, n).
    block is the worker's float scratch, of shape (3, d - 1, >= m); the
    chunk allocates no array of its length.

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
    hits are compared into the sums' rows in place, as 0.0 or 1.0, so
    that rule is a product of neighbouring rows and their sum over i is
    the drawn color.  They are then monotone, color c >= 1 is drawn where
    sum c - 1 is reached and sum c not, and a draw counts once.

    The block holds three groups of d - 1 rows: the counts k, the sums
    (then the hits) and the products, whose first row takes the draw's
    uniforms once the products are summed; the draw's one rng.random
    call fills it and it is scaled in place by j + 1.  So a worker holds
    3 (d - 1) rows of its chunk length, whatever n is: 0.375 MiB at
    d = 2 and 0.75 MiB at d = 3 for a 16,384-replica chunk.  The final
    counts are built once, c0_i + k_0 R[0, i] + k_1 R[1, i] + ..., added
    in color order, through out= into finals' columns: k_0 goes in the
    uniforms' row and each k_c R[c, i] in a sums row.

    The draws equal the row-major kernel's except where a uniform lands
    within one rounding of a sum.  At an empty color such a window can
    remain: about 2^-52 wide for a middle color whose sum rounds above
    the one before it, and at the top edge for the last color, whose sum
    can round below the mass, as in the kernel this one replaced.  The
    final counts differ from n sequential row adds in their last bits,
    and not at all when R is dyadic.
    """
    rng = _numpy_random().default_rng(seed_seq)
    m, d = finals.shape
    rc = np.cumsum(rows, axis=1)
    gains = (rc[1:, :-1] - rc[0, :-1])[:, :, None]   # gains[c - 1][i]
    cc, rc0 = np.cumsum(c0)[:-1, None], rc[0, :-1, None]
    k, sums, products = block[..., :m]
    u = products[0]
    k.fill(0.0)
    reached_below = list(zip(sums[1:], sums[:-1]))
    take_off = list(zip(sums[:-1], sums[1:]))
    for j in range(n):
        np.multiply(gains[0], k[0], out=sums)
        for gain, kc in zip(gains[1:], k[1:]):
            sums += np.multiply(gain, kc, out=products)
        sums += cc + j * rc0
        rng.random(out=u)
        u *= j + 1.0
        np.greater_equal(u, sums, out=sums)     # 1.0 where sum i is reached
        for hit, below in reached_below:
            hit *= below
        if draws is not None:
            sums.sum(axis=0, dtype=np.int16, out=draws[:, j])
        for drawn, beyond in take_off:   # drawn: sum c - 1 reached, sum c not
            drawn -= beyond
        k += sums
    k0, term = u, sums[0]
    np.subtract(n, k.sum(axis=0, out=k0), out=k0)
    for col, c0_i, column in zip(finals.T, c0, rows.T):
        np.add(np.multiply(k0, column[0], out=col), c0_i, out=col)
        for kc, r in zip(k, column[1:]):
            col += np.multiply(kc, r, out=term)


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
    calling thread, and w - 1 helper threads run the rest.  Each worker
    runs its chunks in one scratch block of 3 (d - 1) rows of
    min(chunk_size, replicas) floats, allocated here on the calling
    thread and dropped on return.  Raises
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
    # each worker's kernel scratch, allocated here before any helper runs
    blocks = [np.empty((3, R.dim - 1, min(chunk_size, replicas)))
              for _ in range(workers)]
    failed = threading.Event()    # a worker raised: the others stop early
    errors = []
    seeds = _numpy_random().SeedSequence    # imported before any helper runs

    def work(first: int) -> None:
        for c in range(first, len(starts), workers):
            if failed.is_set():
                return
            mine = slice(starts[c], starts[c] + chunk_size)
            _run_chunk(rows, c0, n, seeds(seed, spawn_key=(c,)),
                       finals[mine], None if draws is None else draws[mine],
                       blocks[first])

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
