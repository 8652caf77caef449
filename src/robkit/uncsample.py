"""Norm geometry of uncertainty sets and uniform sampling on their surfaces.

The surface distribution used throughout is the cone measure: the law of
V / ||V|| for V uniform in the unit ball of the chosen norm.  For the
Euclidean norm this is the ordinary rotation-invariant sphere measure.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox


class NormKind(enum.Enum):
    L1 = "l1"
    L2 = "l2"
    LINF = "linf"


class ShapeKind(enum.Enum):
    VECTOR = "vector"
    REAL_MATRIX = "real_matrix"
    COMPLEX_MATRIX = "complex_matrix"


class InvalidInstanceError(ValueError):
    pass


class InvalidDimensionError(ValueError):
    pass


class InvalidRadiusError(ValueError):
    pass


@dataclass(frozen=True)
class BlockShape:
    """Maps a flat coordinate vector into a vector or matrix uncertainty block.

    Complex blocks are stored as interleaved (real, imag) pairs, so a complex
    m x p block has dimension 2*m*p.
    """

    kind: ShapeKind = ShapeKind.VECTOR
    rows: int = 0
    cols: int = 0

    @classmethod
    def vector(cls, d: int) -> "BlockShape":
        return cls(ShapeKind.VECTOR, d, 1)

    @classmethod
    def real_matrix(cls, rows: int, cols: int) -> "BlockShape":
        return cls(ShapeKind.REAL_MATRIX, rows, cols)

    @classmethod
    def complex_matrix(cls, rows: int, cols: int) -> "BlockShape":
        return cls(ShapeKind.COMPLEX_MATRIX, rows, cols)

    @property
    def dim(self) -> int:
        if self.kind is ShapeKind.COMPLEX_MATRIX:
            return 2 * self.rows * self.cols
        return self.rows * self.cols

    def matrices(self, coords: np.ndarray) -> np.ndarray:
        """Flat coords of shape (..., dim) as (possibly complex) rows x cols
        blocks, shape (..., rows, cols)."""
        if self.kind is ShapeKind.VECTOR:
            raise InvalidInstanceError("vector-shaped instance has no matrix form")
        lead = coords.shape[:-1]
        if self.kind is ShapeKind.REAL_MATRIX:
            return coords.reshape(*lead, self.rows, self.cols)
        pairs = coords.reshape(*lead, self.rows, self.cols, 2)
        return pairs[..., 0] + 1j * pairs[..., 1]


@dataclass(frozen=True)
class UncertaintyInstance:
    """A realization of the uncertainty: flat coordinates plus block shape."""

    coords: np.ndarray
    shape: BlockShape | None = None

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        if coords.ndim != 1 or coords.size == 0:
            raise InvalidInstanceError("coords must be a non-empty 1-d array")
        object.__setattr__(self, "coords", coords)
        if self.shape is None:
            object.__setattr__(self, "shape", BlockShape.vector(coords.size))
        if self.shape.dim != coords.size:
            raise InvalidInstanceError(
                f"shape implies dimension {self.shape.dim}, got {coords.size} coords"
            )

    @classmethod
    def trusted(cls, coords: np.ndarray, shape: BlockShape) -> "UncertaintyInstance":
        """An instance built without checks, for 1-d float coords that the
        caller has already matched to the shape."""
        inst = object.__new__(cls)
        object.__setattr__(inst, "coords", coords)
        object.__setattr__(inst, "shape", shape)
        return inst


def _stream_key(master_seed: int, stream_index: int = 0) -> int:
    """The Philox key of stream `stream_index` of `master_seed`: the index in
    the high 64 bits and the seed in the low.  A value outside [0, 2**64)
    would alias one inside, so it raises ValueError."""
    master_seed, stream_index = operator.index(master_seed), operator.index(stream_index)
    for name, value in (("seed", master_seed), ("stream index", stream_index)):
        if not 0 <= value < 2**64:
            raise ValueError(f"{name}: must be in [0, 2**64), got {value}")
    return (stream_index << 64) | master_seed


@dataclass(frozen=True)
class SeededStream:
    """Counter-based RNG stream: (master_seed, stream_index) fixes the sequence
    independently of how other streams are scheduled."""

    master_seed: int
    stream_index: int = 0

    def generator(self) -> Generator:
        return Generator(Philox(key=_stream_key(self.master_seed, self.stream_index)))


class RekeyedStreams:
    """One Philox generator, re-keyed in place per stream: `stream(k)` resets
    it to SeededStream(master_seed, k)'s key with counter 0 and an empty
    buffer, so it draws exactly what SeededStream(master_seed, k).generator()
    draws, without building a generator per stream.  The master seed is
    checked here; the stream indices, which the estimators make, are not."""

    def __init__(self, master_seed: int):
        self._bits = Philox(key=0)
        self._gen = Generator(self._bits)
        zeros = np.zeros(4, dtype=np.uint64)
        self._key = np.array([_stream_key(master_seed), 0], dtype=np.uint64)
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": zeros, "key": self._key},
            "buffer": zeros,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def stream(self, stream_index: int) -> Generator:
        self._key[1] = stream_index
        self._bits.state = self._state
        return self._gen


def _as_generator(rng) -> Generator:
    if isinstance(rng, SeededStream):
        return rng.generator()
    return rng


def row_norms(x: np.ndarray, kind: NormKind) -> np.ndarray:
    """The norm of each row of a 2-d array; `norm` is this on one row.  The
    l2 sums of squares are per-row dot products, as a stacked matmul, which
    round as `np.linalg.norm` does on one vector."""
    if kind is NormKind.L1:
        return np.sum(np.abs(x), axis=1)
    if kind is NormKind.L2:
        return np.sqrt(x[:, None, :] @ x[:, :, None])[:, 0, 0]
    return np.max(np.abs(x), axis=1)


def norm(delta: UncertaintyInstance, kind: NormKind) -> float:
    """Size of an uncertainty instance.  Scalable: norm(rho*delta) = rho*norm(delta).

    For matrix blocks L2 acts on the flat coordinates, i.e. the Frobenius norm.
    """
    return float(row_norms(delta.coords[None], kind)[0])


def surface_points(d: int, kind: NormKind, rng, count: int) -> np.ndarray:
    """Draw `count` points from the cone measure on {x : ||x|| = 1}, as rows.

    L2 normalizes a Gaussian; L1 normalizes signed exponentials; Linf picks a
    face uniformly and fills the remaining coordinates uniform on (-1, 1).
    All three coincide with normalize-a-uniform-ball-point in distribution.
    """
    if d < 1:
        raise InvalidDimensionError("dimension must be >= 1")
    gen = _as_generator(rng)
    if kind is NormKind.L2:
        x = gen.standard_normal((count, d))
        norms = np.linalg.norm(x, axis=1, keepdims=True)
        # resample the (measure-zero) all-zero rows rather than dividing by 0
        while np.any(norms == 0.0):
            bad = norms[:, 0] == 0.0
            x[bad] = gen.standard_normal((int(bad.sum()), d))
            norms = np.linalg.norm(x, axis=1, keepdims=True)
        return x / norms
    if kind is NormKind.L1:
        e = gen.standard_exponential((count, d))
        signs = gen.integers(0, 2, size=(count, d)) * 2 - 1
        x = e * signs
        return x / np.sum(np.abs(x), axis=1, keepdims=True)
    face = gen.integers(0, d, size=count)
    sign = gen.integers(0, 2, size=count) * 2 - 1
    x = gen.uniform(-1.0, 1.0, size=(count, d))
    x[np.arange(count), face] = sign.astype(float)
    return x


def sample_surface(
    d: int, kind: NormKind, rng, shape: BlockShape | None = None
) -> "DirectionSample":
    """One cone-measure draw from the unit-norm surface."""
    coords = surface_points(d, kind, rng, 1)[0]
    return DirectionSample(UncertaintyInstance(coords, shape), kind)


@dataclass(frozen=True)
class DirectionSample:
    """A point U with ||U|| = 1 under its declared norm."""

    instance: UncertaintyInstance
    norm: NormKind

    def __post_init__(self):
        n = norm(self.instance, self.norm)
        if abs(n - 1.0) > 1e-12:
            raise InvalidInstanceError(f"direction norm {n} is not 1 within 1e-12")


def scale(u: DirectionSample, rho: float) -> UncertaintyInstance:
    """The instance U * rho, of norm exactly rho (up to roundoff)."""
    if rho < 0:
        raise InvalidRadiusError("scaling radius must be >= 0")
    return UncertaintyInstance(u.instance.coords * rho, u.instance.shape)
