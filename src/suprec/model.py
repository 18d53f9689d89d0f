"""Observation model: fields, supports, measurement matrices, and the seeded
random streams.

A support is a `Support` value at the API edge and a row of an (L, K) `intp`
index array inside the program: `support_rows` lists all C(N, K) of them in
lexicographic order and `unrank_supports` maps lexicographic ranks to rows.
Every enumeration of column sets goes through `unrank_supports`, the M x M
submatrices of `check_non_degenerate` included. An exhaustive enumeration
stops at `DEFAULT_ENUMERATION_CAP`, a module constant read at call time, with
no per-call override.

The two inputs every quantity of the paper depends on, the noise level sigma2
and the density constant kappa, have one rule, `_positive` (0 < value < inf):
every public function that takes either rejects a value outside (0, inf) by
it, with a `ValueError` naming the input.

Everything stochastic in the package flows through :func:`substream`, which
derives an independent generator from (master seed, operation label, index).
Identical inputs always produce identical outputs, regardless of call order
or threading. Signals and noise are drawn in blocks of trials by
`montecarlo.draw_level_blocks`; a block's stream is keyed by (seed, label,
block) and never by the noise level sigma2, so every level of a sigma2 grid
shares the block's truths, signals and unit noise, scaling only the noise.
A change to the streams must keep them free of sigma2, or give up that
sharing. Stacks of per-draw matrices (eig-check's
cells, the incoherence statistics) come from :func:`draw_matrices`, which
seeds every draw's stream in one vectorized pass and returns, byte for byte,
the matrices that `substream` gives draw by draw; `substream` stays numpy's
own seeding path, for single streams and as that pass's reference.
"""

from __future__ import annotations

import functools
import hashlib
import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

DEFAULT_ENUMERATION_CAP = 10**6


class CapExceeded(RuntimeError):
    """A combinatorial enumeration would exceed its configured cap."""


class NumericFailure(RuntimeError):
    """A matrix factorization broke down (numerical indefiniteness)."""


class FieldTag(Enum):
    """Scalar field of the model, with the density constant kappa."""

    REAL = "real"
    COMPLEX = "complex"

    @property
    def kappa(self) -> float:
        # 1/2 for real, 1 for complex; both exact in binary floating point.
        return 0.5 if self is FieldTag.REAL else 1.0

    @property
    def dtype(self):
        return np.float64 if self is FieldTag.REAL else np.complex128

    @staticmethod
    def of(arr: np.ndarray) -> "FieldTag":
        return FieldTag.COMPLEX if np.iscomplexobj(arr) else FieldTag.REAL


def _label_tag(label: str) -> int:
    """64-bit tag of an operation label, so distinct operations never share a stream."""
    return int.from_bytes(hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest(), "big")


def substream(master_seed: int, label: str, index: int = 0) -> np.random.Generator:
    """Independent generator derived from (master seed, label, index).

    The label is hashed to a 64-bit tag so distinct operations never share a
    stream; the index gives per-trial (or per-draw) streams whose outputs do
    not depend on evaluation order. This is numpy's own seeding path, the
    reference that `draw_matrices` reproduces for stacks of draws.
    """
    if master_seed < 0:
        raise ValueError("master_seed must be a non-negative integer")
    tag = _label_tag(label)
    return np.random.default_rng(np.random.SeedSequence(entropy=(int(master_seed), tag, int(index))))


# numpy.random.SeedSequence's hash constants (O'Neill's seed_seq_fe, as in
# numpy/random/bit_generator.pyx); numpy's stream-compatibility policy fixes them.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF


def _int_words(n: int) -> list:
    """Little-endian 32-bit words of a non-negative int, [0] for 0, as SeedSequence splits it."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hashmix(const: int, mult: int):
    """numpy's SeedSequence hashmix on uint32 arrays: each call xors its input
    with the running constant, steps the constant by `mult`, multiplies by it
    and folds the high half into the low one."""
    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))
    return hashmix


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """(D, 4) uint64 PCG64 seed words, row i equal to
    `np.random.SeedSequence(entropy=words).generate_state(4, np.uint64)` for
    the 32-bit entropy words of row i of the (D, n) uint32 array `entropy`.

    The same pass as numpy's pool mixing and state generation, each step on
    all D rows at once; uint32 array arithmetic wraps modulo 2**32 as the
    algorithm needs, without a warning.
    """
    hashmix = _hashmix(_INIT_A, _MULT_A)

    def mix(x, y):
        value = _MIX_L * x - _MIX_R * y
        return value ^ (value >> np.uint32(16))

    zero = np.zeros(len(entropy), dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < entropy.shape[1] else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, entropy.shape[1]):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    output = _hashmix(_INIT_B, _MULT_B)
    state = [output(pool[i % _POOL_SIZE]) for i in range(2 * _POOL_SIZE)]   # low half first
    return np.stack(state, axis=1).astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _preseeded():
    """`ISeedSequence` that hands PCG64 its precomputed seed words. Built on
    first use so that importing the package does not import `numpy.random`."""
    from numpy.random.bit_generator import ISeedSequence

    class Preseeded(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("precomputed words serve PCG64's 4 uint64 words only")
            return self.words

    return Preseeded


def draw_matrices(seed: int, label: str, draws: range, shape, field: FieldTag,
                  columns: int | None = None) -> np.ndarray:
    """Stack of field-Gaussian draws whose matrix i is, byte for byte,
    `field_gaussian(substream(seed, label, draws[i]), shape, field)`, cut to
    its first `columns` columns when given (each draw is still made whole, so
    its stream is unchanged; the stack holds only what its caller reads).

    The per-draw streams are seeded in one vectorized pass (`_seed_states`)
    instead of one SeedSequence each; draw indices must lie below 2**64.
    """
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    if len(draws) and (min(draws[0], draws[-1]) < 0 or max(draws[0], draws[-1]) >= 2**64):
        raise ValueError("draw indices must lie in [0, 2**64)")
    head = _int_words(int(seed)) + _int_words(_label_tag(label))
    index = np.array(draws, dtype=np.uint64)
    entropy = np.empty((len(index), len(head) + 2), dtype=np.uint32)
    entropy[:, :len(head)] = head
    entropy[:, -2] = index & np.uint64(_MASK32)
    entropy[:, -1] = index >> np.uint64(32)
    states = np.empty((len(index), 4), dtype=np.uint64)
    wide = index > _MASK32                      # entropy words: one per index below 2**32, else two
    for rows, width in ((~wide, -1), (wide, None)):
        if rows.any():
            states[rows] = _seed_states(entropy[rows, :width])

    preseeded, PCG64, Generator = _preseeded(), np.random.PCG64, np.random.Generator
    out = np.empty((len(index), shape[0], columns or shape[1]), dtype=field.dtype)
    for i, words in enumerate(states):
        out[i] = field_gaussian(Generator(PCG64(preseeded(words))), shape, field)[:, :columns]
    return out


def field_gaussian(rng: np.random.Generator, shape, field: FieldTag) -> np.ndarray:
    """Unit-variance field Gaussian draw; complex entries are circularly
    symmetric with real/imag parts of variance 1/2 each."""
    if field is FieldTag.COMPLEX:
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * np.sqrt(0.5)
    return rng.standard_normal(shape)


@dataclass(frozen=True)
class Support:
    """Sorted index set of the nonzero signal rows; the hypothesis identity.
    `ambient_dim` is an integer (`_integer`) of at least 1, and each index an
    integer in [0, ambient_dim), the rule of `make_support` too."""

    indices: tuple
    ambient_dim: int

    def __post_init__(self):
        if _integer(self.ambient_dim, "ambient_dim") < 1:
            raise ValueError("ambient_dim must be positive")
        if len(self.indices) < 1:
            raise ValueError("a support must contain at least one index")
        if any(not 0 <= _integer(i, "support index") < self.ambient_dim for i in self.indices):
            raise ValueError(f"support indices {self.indices} out of range [0, {self.ambient_dim})")
        if any(b <= a for a, b in zip(self.indices, self.indices[1:])):
            raise ValueError("support indices must be strictly increasing")

    @property
    def size(self) -> int:
        return len(self.indices)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.indices, dtype=np.intp)

    def intersection(self, other: "Support") -> tuple:
        return tuple(sorted(set(self.indices) & set(other.indices)))

    def difference(self, other: "Support") -> tuple:
        return tuple(sorted(set(self.indices) - set(other.indices)))


def _integer(value, name: str) -> int:
    """`value` as an int; numpy integers pass, floats, strings and bools do not."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _positive(value, name: str) -> None:
    """The rule of the noise level sigma2 and the density constant kappa:
    0 < value < inf, so NaN fails too; else a `ValueError` naming `name`."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must lie in (0, inf), got {value!r}")


def _check_rows(rows, N: int, name: str) -> np.ndarray:
    """`rows` as an (L, K) `intp` array, after the rule `Support` holds each
    support to: a 2-D integer array of K >= 1 columns whose every row is
    strictly increasing within [0, N). Else a `ValueError` naming `name`."""
    arr = np.asarray(rows)
    if arr.ndim != 2 or not arr.shape[1] or arr.dtype.kind not in "iu":
        raise ValueError(f"{name} rows must be a 2-D integer array")
    arr = arr.astype(np.intp, copy=False)
    if (np.diff(arr, axis=1, prepend=-1, append=N) <= 0).any():
        raise ValueError(f"{name} rows must be strictly increasing within [0, {N})")
    return arr


def make_support(indices: Iterable[int], N: int) -> Support:
    """Canonical sorted support over {0, ..., N-1}; rejects non-integer
    indices, dupes and range errors."""
    idx = tuple(_integer(i, "support index") for i in indices)
    if len(set(idx)) != len(idx):
        raise ValueError(f"duplicate indices in {idx}")
    return Support(tuple(sorted(idx)), N)


def _support_count(N: int, K: int) -> int:
    """C(N, K), the number of size-K candidate supports, within
    `DEFAULT_ENUMERATION_CAP`: the rule of `support_rows`, which a plan checks
    before anything runs."""
    total = math.comb(N, K)
    if total > DEFAULT_ENUMERATION_CAP:
        raise CapExceeded(f"C({N},{K}) = {total} candidate supports exceed cap"
                          f" {DEFAULT_ENUMERATION_CAP}")
    return total


def support_rows(N: int, K: int) -> np.ndarray:
    """All C(N, K) size-K supports in lexicographic index order, as an (L, K)
    `intp` array with one support per row, unranked from 0 .. C(N, K) - 1 by
    `unrank_supports`, which checks 1 <= K <= N; no `Support` object is built."""
    return unrank_supports(np.arange(_support_count(N, K)), N, K)


def enumerate_supports(N: int, K: int) -> list:
    """All C(N, K) size-K supports in lexicographic index order, as `Support`s."""
    return [Support(tuple(row), N) for row in support_rows(N, K).tolist()]


@functools.lru_cache(maxsize=64)
def _comb_table(N: int, k: int) -> np.ndarray:
    """C(d, k) for d = 0..N-1 as a read-only `int64` array, clipped to the
    largest int64: every rank is below it, so clipping keeps a search exact.
    The last 64 tables are kept and shared by every `unrank_supports` call."""
    big = np.iinfo(np.int64).max
    table = np.array([min(math.comb(d, k), big) for d in range(N)], dtype=np.int64)
    table.setflags(write=False)
    return table


def unrank_supports(ranks, N: int, K: int) -> np.ndarray:
    """Rows of the size-K supports with the given lexicographic ranks, as a
    (len(ranks), K) `intp` array.

    Lexicographic unranking (Knuth, TAOCP 4A, 7.2.1.3): the complement rank
    C(N,K) - 1 - r has the combinatorial-number-system digits
    d_0 > d_1 > ... with index t = N - 1 - d_t, each found greedily as the
    largest d with C(d, K - t) <= what is left. No support is enumerated.
    """
    if not 1 <= K <= N:
        raise ValueError(f"need 1 <= K <= N, got K={K}, N={N}")
    ranks = np.asarray(ranks, dtype=np.int64).reshape(-1)
    total = math.comb(N, K)
    if ranks.size and (ranks.min() < 0 or int(ranks.max()) >= total):
        raise ValueError(f"support ranks must lie in [0, C({N},{K}) = {total})")
    left = (total - 1) - ranks
    rows = np.empty((ranks.size, K), dtype=np.intp)
    for t in range(K):
        table = _comb_table(N, K - t)
        d = np.searchsorted(table, left, side="right") - 1
        left = left - table[d]
        rows[:, t] = N - 1 - d
    return rows


@dataclass(frozen=True)
class MeasurementMatrix:
    """M x N measurement matrix with its field and provenance."""

    entries: np.ndarray
    field: FieldTag
    provenance: str = "external"

    def __post_init__(self):
        a = np.asarray(self.entries)
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError(f"entries must be a 2-d matrix, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        if np.iscomplexobj(a) and self.field is FieldTag.REAL:
            raise ValueError("complex entries need the COMPLEX field: REAL drops imaginary parts")
        a = np.ascontiguousarray(a, dtype=self.field.dtype)
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def shape(self) -> tuple:
        return self.entries.shape


def as_matrix(A) -> tuple:
    """Accept a MeasurementMatrix or a bare ndarray; return (entries, field)."""
    if isinstance(A, MeasurementMatrix):
        return A.entries, A.field
    arr = np.asarray(A)
    return arr, FieldTag.of(arr)


def sample_gaussian_matrix(M: int, N: int, field: FieldTag, rng: np.random.Generator) -> MeasurementMatrix:
    """i.i.d. unit-variance field-Gaussian M x N matrix."""
    if M < 1 or N < 1:
        raise ValueError("matrix dimensions must be positive")
    return MeasurementMatrix(field_gaussian(rng, (M, N), field), field, provenance="gaussian")


def ula_angle_grid(N: int) -> np.ndarray:
    """Uniform interior grid of N angles in (-pi/2, pi/2) (cell midpoints)."""
    if N < 1:
        raise ValueError("grid size must be positive")
    return -np.pi / 2 + np.pi * (np.arange(N) + 0.5) / N


def ula_manifold_matrix(M: int, grid: Sequence[float], spacing: float = 0.5) -> MeasurementMatrix:
    """Uniform-linear-array manifold matrix.

    Column n holds exp(i * 2*pi * spacing * m * sin(theta_n)) for sensor index
    m = 0..M-1, so every column has squared norm exactly M.
    """
    if M < 1:
        raise ValueError("M must be positive")
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    theta = np.asarray(grid, dtype=np.float64)
    if theta.ndim != 1 or theta.size < 1:
        raise ValueError("grid must be a non-empty 1-d sequence of angles")
    if np.any(theta < -np.pi / 2) or np.any(theta > np.pi / 2):
        raise ValueError("angles must lie in [-pi/2, pi/2]")
    m = np.arange(M, dtype=np.float64)[:, None]
    phase = 2.0 * np.pi * spacing * m * np.sin(theta)[None, :]
    return MeasurementMatrix(np.exp(1j * phase), FieldTag.COMPLEX, provenance=f"ula(spacing={spacing})")


@dataclass(frozen=True)
class NonDegeneracyReport:
    """Outcome of the every-M-columns-invertible check."""

    passed: bool
    worst_sigma_min: float
    witness: tuple | None
    tested: int
    mode: str


def check_non_degenerate(A, count: int | None = None, seed: int = 0) -> NonDegeneracyReport:
    """Test M x M column submatrices for invertibility.

    A submatrix fails when its smallest singular value drops below
    1e-10 times the largest singular value of the full matrix. With `count`
    None the check visits every submatrix ("exhaustive"), unranked in
    lexicographic order by `unrank_supports` (the enumeration of
    `support_rows`), up to `DEFAULT_ENUMERATION_CAP`, read at call time; a
    positive `count` below C(N, M) draws that many of them by `seed`
    ("sampled"), and `tested` is the number of distinct submatrices drawn. A
    count of at least C(N, M) walks each submatrix once, in that order, and
    still reports "sampled". Submatrices are scored in chunks of stacked
    `np.linalg.svd` calls, so no stacked array grows with the number tested
    (a sampled check keeps only the set of distinct draws); the witness is
    the first submatrix that attains the minimum.
    """
    entries, _ = as_matrix(A)
    M, N = entries.shape
    if N < M:
        raise ValueError("need N >= M to form M x M column submatrices")
    tol = 1e-10 * np.linalg.norm(entries, 2)

    total = math.comb(N, M)
    if count is None:
        if total > DEFAULT_ENUMERATION_CAP:
            raise CapExceeded(f"exhaustive check over C({N},{M}) = {total} submatrices exceeds"
                              f" cap {DEFAULT_ENUMERATION_CAP}; use sampled mode")
    elif (count := _integer(count, "count")) < 1:
        raise ValueError("sampled mode requires a positive count")
    sampled = count is not None and count < total
    rng = substream(seed, "non-degenerate-sample") if sampled else None
    walk = count if sampled else total

    worst, witness, drawn = np.inf, None, set()
    step = max(1, 2**15 // (M * M))          # submatrices per stacked SVD
    for start in range(0, walk, step):
        stop = min(start + step, walk)
        if sampled:
            rows = np.sort([rng.choice(N, size=M, replace=False) for _ in range(start, stop)], axis=1)
            drawn.update(map(bytes, rows))
        else:
            rows = unrank_supports(np.arange(start, stop), N, M)
        smin = np.linalg.svd(entries[:, rows].swapaxes(0, 1), compute_uv=False)[:, -1]
        b = int(np.argmin(smin))
        if smin[b] < worst:
            worst, witness = smin[b], tuple(rows[b].tolist())
    return NonDegeneracyReport(passed=bool(worst >= tol), worst_sigma_min=float(worst),
                               witness=witness, tested=len(drawn) if sampled else total,
                               mode="exhaustive" if count is None else "sampled")


def save_matrix_csv(path, A) -> None:
    """Write a matrix as CSV, header line `# M N field`, row-major, each entry
    by `repr` and each row ended by CRLF.

    Complex entries are stored as interleaved re,im column pairs: the float64
    view of the complex128 entries.
    """
    entries, field = as_matrix(A)
    M, N = entries.shape
    flat = np.ascontiguousarray(entries, dtype=field.dtype).view(np.float64)
    with open(path, "w", newline="") as fh:
        fh.write(f"# {M} {N} {field.value}\n")
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in flat.tolist())


def load_matrix_csv(path) -> MeasurementMatrix:
    """Read a matrix written by :func:`save_matrix_csv`; blank lines are skipped."""
    with open(path) as fh:
        header = fh.readline().strip()
        parts = header.lstrip("#").split()
        if len(parts) != 3 or not header.startswith("#"):
            raise ValueError(f"malformed matrix header {header!r}; expected '# M N field'")
        M, N, field = int(parts[0]), int(parts[1]), FieldTag(parts[2])
        lines = [line for line in fh if line.strip()]
    if not lines:       # np.loadtxt would only warn
        raise ValueError(f"matrix body has no rows; header says ({M}, {N})")
    body = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)
    width = 2 * N if field is FieldTag.COMPLEX else N
    if body.shape != (M, width):
        raise ValueError(f"matrix body shape {body.shape} does not match ({M}, {width}) from"
                         f" header ({M}, {N}) of field {field.value}")
    return MeasurementMatrix(body.view(field.dtype), field, provenance=f"external({path})")
