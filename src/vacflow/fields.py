"""Periodic collocation grids, spectral calculus, and discrete Sobolev norms.

Everything lives on an isotropic periodic box [0, L)^dim sampled at n points
per axis, n a power of two. Derivatives are Fourier multipliers with physical
wavenumbers k = 2*pi*m/L, products that later feed derivatives go through
2/3-rule dealiasing, and the norm convention is fixed so that the s = 0
Sobolev norm coincides with the physical quadrature L2 norm:

    ||f||_s^2 = sum_k (1 + |k|^2)^s |fhat_k|^2 * L^dim,   fhat = FFT(f)/n^dim.

All fields are real, so Grid transforms keep only the half spectrum
(rfftn over the trailing dim axes, last axis holding modes 0..n/2); leading
axes batch, so one call transforms a stack of fields. Each last-axis mode
1..n/2-1 stands for itself and its mirror -m, so the norm sums give it
weight 2, and the modes 0 and n/2 weight 1.

The weighted seminorm |w grad^k u|_2 is evaluated in physical space: all
distinct k-th partials of every velocity component, squared with multinomial
multiplicity, against the quadrature weight h^dim.

A window of samples that forked processes share is one array in one
anonymous shared mapping (_window), each sample a contiguous block of rows
stacked like a state, (vphi, phi, u); release drops this process's pages of
some of its samples and leaves the data to the others.
"""

from __future__ import annotations

import math
import mmap
import struct
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement

import numpy as np

SNAPSHOT_MAGIC = b"VACFSNAP"
SNAPSHOT_VERSION = 1
MAX_DERIVATIVE_ORDER = 4


class FieldError(ValueError):
    """Raised when field data violates a structural contract."""


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Grid:
    """Isotropic periodic box [0, L)^dim with n collocation points per axis."""

    dim: int
    n: int
    box_length: float

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise FieldError(f"dim must be 1, 2, or 3, got {self.dim}")
        if not _is_power_of_two(self.n) or self.n < 8:
            raise FieldError(f"n must be a power of two >= 8, got {self.n}")
        if not (math.isfinite(self.box_length) and self.box_length > 0):
            raise FieldError("box_length must be positive and finite, "
                             f"got {self.box_length}")

    @property
    def spacing(self) -> float:
        return self.box_length / self.n

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @cached_property
    def coordinates(self) -> tuple:
        """Per-axis coordinate arrays shaped for broadcasting."""
        x = np.arange(self.n) * self.spacing
        return tuple(
            x.reshape([-1 if a == axis else 1 for a in range(self.dim)])
            for axis in range(self.dim)
        )

    @property
    def spectral_shape(self) -> tuple:
        """Shape of the half spectrum: the last axis keeps modes 0..n/2."""
        return self.shape[:-1] + (self.n // 2 + 1,)

    @cached_property
    def _modes(self) -> tuple:
        """Per-axis integer modes of the half spectrum shaped for
        broadcasting: fftfreq order on every axis but the last, which holds
        0..n/2 (its Nyquist mode is +n/2)."""
        full = np.fft.fftfreq(self.n, d=1.0 / self.n)
        half = np.fft.rfftfreq(self.n, d=1.0 / self.n)
        return tuple(
            (half if axis == self.dim - 1 else full).reshape(
                [-1 if a == axis else 1 for a in range(self.dim)])
            for axis in range(self.dim)
        )

    @cached_property
    def wavenumbers(self) -> tuple:
        """Per-axis physical wavenumber arrays shaped for broadcasting."""
        return tuple(2.0 * np.pi / self.box_length * m for m in self._modes)

    @cached_property
    def k_squared(self) -> np.ndarray:
        ks = np.zeros(self.spectral_shape)
        for k in self.wavenumbers:
            ks = ks + k**2
        return ks

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Boolean 2/3-rule mask: keep integer modes with |m| <= n//3."""
        mask = np.ones(self.spectral_shape, dtype=bool)
        for m in self._modes:
            mask &= np.abs(m) <= self.n // 3
        return mask

    # -- spectral calculus -------------------------------------------------

    def fft(self, values: np.ndarray) -> np.ndarray:
        """Half spectrum over the trailing dim axes; leading axes batch.
        numpy's 1-D passes in rfftn's order (rfft on the last axis, then fft
        on axes -2 down to -dim), without rfftn's argument handling."""
        spectrum = np.fft.rfft(values)
        for axis in range(-2, -self.dim - 1, -1):
            spectrum = np.fft.fft(spectrum, axis=axis)
        return spectrum

    def ifft(self, spectrum: np.ndarray) -> np.ndarray:
        """Inverse of fft: ifft on axes -dim up to -2, then irfft of the last
        axis to n points, the passes irfftn makes."""
        for axis in range(-self.dim, -1):
            spectrum = np.fft.ifft(spectrum, axis=axis)
        return np.fft.irfft(spectrum, self.n)

    @cached_property
    def _multipliers(self) -> dict:
        return {}

    @cached_property
    def ik(self) -> np.ndarray:
        """First-derivative multipliers ik_axis stacked along a leading axis
        (read-only)."""
        return _read_only(np.stack([
            self.derivative_multiplier(tuple(int(a == axis) for a in range(self.dim)))
            for axis in range(self.dim)
        ]))

    @cached_property
    def ik_masked(self) -> np.ndarray:
        """First-derivative multipliers times the 2/3-rule mask: one inverse
        transform of ik_masked * fhat is the truncated gradient."""
        return _read_only(self.dealias_mask * self.ik)

    @cached_property
    def k_projection(self) -> tuple:
        """(kn, ny, 1/|k|^2), read-only, kn and ny stacked like ik: kn the
        wavenumbers with the Nyquist modes zeroed, ny |k| on the Nyquist
        modes only, 1/|k|^2 zero at k = 0."""
        kn = self.ik.imag
        ny = np.abs(np.stack(np.broadcast_arrays(*self.wavenumbers))) - np.abs(kn)
        k2 = self.k_squared
        inv_k2 = np.divide(1.0, k2, out=np.zeros_like(k2), where=k2 > 0)
        return tuple(_read_only(a) for a in (kn, ny, inv_k2))

    def derivative_multiplier(self, order: tuple) -> np.ndarray:
        """(ik)^order multiplier; Nyquist zeroed on axes with odd order.
        Built once per order and shared, so the array is read-only."""
        order = tuple(order)
        cached = self._multipliers.get(order)
        if cached is not None:
            return cached
        if len(order) != self.dim:
            raise FieldError(
                f"order has {len(order)} entries for a {self.dim}-d grid"
            )
        if any(o < 0 for o in order) or sum(order) > MAX_DERIVATIVE_ORDER:
            raise FieldError(
                f"derivative order {order} outside supported range "
                f"(nonnegative, total <= {MAX_DERIVATIVE_ORDER})"
            )
        mult = np.ones(self.spectral_shape, dtype=complex)
        for k, m, o in zip(self.wavenumbers, self._modes, order):
            if o == 0:
                continue
            factor = (1j * k) ** o
            if o % 2 == 1:
                factor = factor * (np.abs(m) < self.n // 2)
            mult = mult * factor
        self._multipliers[order] = _read_only(mult)
        return mult

    def grad(self, values: np.ndarray) -> np.ndarray:
        """Gradient, its components along a new axis in front of the
        trailing dim axes (leading axes batch)."""
        spectrum = np.expand_dims(self.fft(values), -self.dim - 1)
        return self.ifft(self.ik * spectrum)

    def div(self, vec: np.ndarray) -> np.ndarray:
        """Divergence over the component axis in front of the trailing dim
        axes (leading axes batch)."""
        return self.ifft(np.sum(self.ik * self.fft(vec), axis=-self.dim - 1))

    def laplacian(self, values: np.ndarray) -> np.ndarray:
        return self.ifft(-self.k_squared * self.fft(values))

    def grad_div(self, vec: np.ndarray) -> np.ndarray:
        d = self.div(vec)
        return self.grad(d)

    def dealias(self, values: np.ndarray) -> np.ndarray:
        """Values passed through the 2/3 rule (leading axes batch)."""
        return self.ifft(self.dealias_mask * self.fft(values))

    def mult(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Dealiased pointwise product: truncate both factors, multiply,
        truncate the result. Exact for inputs supported on |m| <= n//3."""
        am, bm = self.dealias(np.stack((a, b)))
        return self.dealias(am * bm)


def checked_values(values, expected: tuple, finite: bool = True) -> np.ndarray:
    """values as a read-only contiguous float array of the expected shape,
    all finite unless finite is False, for values whose writer checked
    them."""
    arr = np.asarray(values, dtype=float)
    if arr.shape != expected:
        raise FieldError(f"values shape {arr.shape}, expected {expected}")
    if finite and not np.all(np.isfinite(arr)):
        raise FieldError("field values must be finite")
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


class _Mapping(mmap.mmap):
    """The anonymous shared mapping under a _window; release drops pages of
    this type of memory only."""


def _window(grid: Grid, n: int, rows: int) -> np.ndarray:
    """An empty window of n samples, shaped (n, rows) + grid.shape in one
    anonymous shared mapping, so each sample is one contiguous block: rows
    is d + 2 for (vphi, phi, u), d + 1 for the oracle's (rho, u). Forked
    children write and read it in place, and a window crosses a process
    boundary this way, never as a pickle. A process holds in memory only
    the pages it has touched and not released (release); the data stays in
    the mapping for every process that maps it, and the mapping is freed
    once the last of them lets go."""
    shape = (n, rows) + grid.shape
    return np.ndarray(shape, buffer=_Mapping(-1, 8 * math.prod(shape)))


def release(window: np.ndarray, start: int, stop: int) -> None:
    """Drop this process's pages of samples start to stop - 1 of a _window,
    with madvise(MADV_DONTNEED) over the pages that lie wholly inside those
    samples. The data stays in the shared mapping, and the next read maps it
    again. Any other array is left alone: on private memory MADV_DONTNEED
    would zero-fill the pages. Without madvise (Windows) it does nothing."""
    if not hasattr(mmap, "MADV_DONTNEED"):
        return
    root = window
    while isinstance(root.base, np.ndarray):
        root = root.base
    if not isinstance(root.base, _Mapping):
        return
    samples = window[start:stop]
    first = (samples.__array_interface__["data"][0]
             - root.__array_interface__["data"][0])
    lo = -(-first // mmap.PAGESIZE) * mmap.PAGESIZE
    hi = (first + samples.nbytes) // mmap.PAGESIZE * mmap.PAGESIZE
    if hi > lo:
        root.base.madvise(mmap.MADV_DONTNEED, lo, hi - lo)


@dataclass(frozen=True)
class ScalarField:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", checked_values(self.values, self.grid.shape))


@dataclass(frozen=True)
class VectorField:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "values",
            checked_values(self.values, (self.grid.dim,) + self.grid.shape)
        )


# -- norms -----------------------------------------------------------------


def _component_list(field) -> list:
    if isinstance(field, ScalarField):
        return [field.values]
    if isinstance(field, VectorField):
        return [field.values[i] for i in range(field.grid.dim)]
    raise FieldError(f"expected ScalarField or VectorField, got {type(field)}")


def sobolev_norm(field, s: int) -> float:
    """||f||_s with the quadrature-L2 normalization; vector fields sum
    component squares before the square root."""
    grid = field.grid
    hermitian = np.full(grid.n // 2 + 1, 2.0)
    hermitian[0] = hermitian[-1] = 1.0
    scale = grid.box_length**grid.dim / grid.n ** (2 * grid.dim)
    power = np.abs(grid.fft(field.values)) ** 2
    weight = (1.0 + grid.k_squared) ** s
    return math.sqrt(float(np.sum(weight * hermitian * power)) * scale)


def quadrature_l2(grid: Grid, values: np.ndarray) -> float:
    """Physical-space L2 norm: (h^dim * sum of squares)^(1/2)."""
    return math.sqrt(float(np.sum(values**2)) * grid.cell_volume)


def multi_indices(dim: int, total: int) -> list:
    """Distinct multi-indices of the given total order, with multinomial
    multiplicity total!/prod(order_i!) attached."""
    out = []
    for combo in combinations_with_replacement(range(dim), total):
        order = [0] * dim
        for axis in combo:
            order[axis] += 1
        mult = math.factorial(total)
        for o in order:
            mult //= math.factorial(o)
        out.append((tuple(order), mult))
    return out


def weighted_seminorm(weight: ScalarField, u: VectorField, k: int) -> float:
    """|w grad^k u|_2: Frobenius contraction of all k-th partials of every
    component of u against |w|, physical quadrature."""
    if weight.grid != u.grid:
        raise FieldError("weight and field live on different grids")
    if k < 1 or k > MAX_DERIVATIVE_ORDER:
        raise FieldError(f"weighted seminorm order {k} outside 1..{MAX_DERIVATIVE_ORDER}")
    grid = u.grid
    w2 = weight.values**2
    spectrum = grid.fft(u.values)
    total = 0.0
    for order, mult in multi_indices(grid.dim, k):
        d = grid.ifft(grid.derivative_multiplier(order) * spectrum)
        total += mult * float(np.sum(w2 * d**2))
    return math.sqrt(total * grid.cell_volume)


# -- support margin ----------------------------------------------------------


def support_margin(density: ScalarField, threshold: float = 1e-12) -> float:
    """Distance from the support {|rho| > threshold} to the nearest box face.

    The periodic seam sits at coordinate 0 (equivalently L); data meant to
    mimic a whole-space profile must keep its support away from it. Returns
    +inf when the field has no support at the threshold.
    """
    grid = density.grid
    mask = np.abs(density.values) > threshold
    if not mask.any():
        return math.inf
    margin = math.inf
    x = np.arange(grid.n) * grid.spacing
    dist_axis = np.minimum(x, grid.box_length - x)
    for axis in range(grid.dim):
        present = mask.any(
            axis=tuple(a for a in range(grid.dim) if a != axis)
        )
        margin = min(margin, float(dist_axis[present].min()))
    return margin


# -- snapshot format ---------------------------------------------------------

_HEADER = struct.Struct("<8sIIII16sdd")


def save_snapshot(path, field, role: str, time: float = 0.0) -> None:
    """Write the binary snapshot: fixed header then C-order little-endian
    float64 payload, one block per component."""
    grid = field.grid
    comps = _component_list(field)
    role_b = role.encode("ascii")
    if len(role_b) > 16:
        raise FieldError(f"role string too long: {role!r}")
    header = _HEADER.pack(
        SNAPSHOT_MAGIC,
        SNAPSHOT_VERSION,
        grid.dim,
        grid.n,
        len(comps),
        role_b.ljust(16, b"\x00"),
        grid.box_length,
        time,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        for comp in comps:
            fh.write(np.ascontiguousarray(comp, dtype="<f8").tobytes())


def load_snapshot(path):
    """Read a snapshot; returns (field, role, time). Component count 1 maps
    to ScalarField, dim components to VectorField."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise FieldError(f"snapshot {path} truncated in header")
        magic, version, dim, n, ncomp, role_b, length, time = _HEADER.unpack(raw)
        if magic != SNAPSHOT_MAGIC:
            raise FieldError(f"snapshot {path} has bad magic {magic!r}")
        if version != SNAPSHOT_VERSION:
            raise FieldError(f"snapshot {path} has unsupported version {version}")
        grid = Grid(dim=dim, n=n, box_length=length)
        count = n**dim
        comps = []
        for _ in range(ncomp):
            buf = fh.read(8 * count)
            if len(buf) != 8 * count:
                raise FieldError(f"snapshot {path} truncated in payload")
            comps.append(np.frombuffer(buf, dtype="<f8").reshape(grid.shape))
        if fh.read(1):
            raise FieldError(f"snapshot {path} has trailing bytes")
    role = role_b.rstrip(b"\x00").decode("ascii")
    # On a 1-d grid a single block could be either kind; the role settles it.
    if ncomp == dim and (ncomp > 1 or role == "velocity"):
        field = VectorField(grid, np.stack(comps))
    elif ncomp == 1:
        field = ScalarField(grid, comps[0])
    else:
        raise FieldError(f"snapshot {path} has {ncomp} components on a {dim}-d grid")
    return field, role, time
