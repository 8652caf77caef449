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

    @property
    def dim(self) -> int:
        return self.coords.size

    def as_matrix(self) -> np.ndarray:
        """Materialize the block as a (possibly complex) rows x cols matrix."""
        s = self.shape
        if s.kind is ShapeKind.VECTOR:
            raise InvalidInstanceError("vector-shaped instance has no matrix form")
        if s.kind is ShapeKind.REAL_MATRIX:
            return self.coords.reshape(s.rows, s.cols)
        pairs = self.coords.reshape(s.rows, s.cols, 2)
        return pairs[..., 0] + 1j * pairs[..., 1]


@dataclass(frozen=True)
class SeededStream:
    """Counter-based RNG stream: (master_seed, stream_index) fixes the sequence
    independently of how other streams are scheduled."""

    master_seed: int
    stream_index: int = 0

    def generator(self) -> Generator:
        key = ((self.stream_index & (2**64 - 1)) << 64) | (self.master_seed & (2**64 - 1))
        return Generator(Philox(key=key))


class RekeyedStreams:
    """One Philox generator, re-keyed in place per stream: `stream(k)` resets
    it to SeededStream(master_seed, k)'s key with counter 0 and an empty
    buffer, so it draws exactly what SeededStream(master_seed, k).generator()
    draws, without building a generator per stream."""

    def __init__(self, master_seed: int):
        self._bits = Philox(key=0)
        self._gen = Generator(self._bits)
        zeros = np.zeros(4, dtype=np.uint64)
        self._key = np.array([operator.index(master_seed) & (2**64 - 1), 0], dtype=np.uint64)
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": zeros, "key": self._key},
            "buffer": zeros,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def stream(self, stream_index: int) -> Generator:
        self._key[1] = stream_index & (2**64 - 1)
        self._bits.state = self._state
        return self._gen


def _as_generator(rng) -> Generator:
    if isinstance(rng, SeededStream):
        return rng.generator()
    return rng


def vector_norm(coords: np.ndarray, kind: NormKind) -> float:
    if kind is NormKind.L1:
        return float(np.sum(np.abs(coords)))
    if kind is NormKind.L2:
        return float(np.linalg.norm(coords))
    return float(np.max(np.abs(coords)))


def row_norms(x: np.ndarray, kind: NormKind) -> np.ndarray:
    """vector_norm of each row of a 2-d array, bit for bit: the l2 sums of
    squares are the per-row dot products, as a stacked matmul."""
    if kind is NormKind.L1:
        return np.sum(np.abs(x), axis=1)
    if kind is NormKind.L2:
        return np.sqrt(x[:, None, :] @ x[:, :, None])[:, 0, 0]
    return np.max(np.abs(x), axis=1)


def norm(delta: UncertaintyInstance, kind: NormKind) -> float:
    """Size of an uncertainty instance.  Scalable: norm(rho*delta) = rho*norm(delta).

    For matrix blocks L2 acts on the flat coordinates, i.e. the Frobenius norm.
    """
    return vector_norm(delta.coords, kind)


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
        n = vector_norm(self.instance.coords, self.norm)
        if abs(n - 1.0) > 1e-12:
            raise InvalidInstanceError(f"direction norm {n} is not 1 within 1e-12")


def scale(u: DirectionSample, rho: float) -> UncertaintyInstance:
    """The instance U * rho, of norm exactly rho (up to roundoff)."""
    if rho < 0:
        raise InvalidRadiusError("scaling radius must be >= 0")
    return UncertaintyInstance(u.instance.coords * rho, u.instance.shape)
