"""Spectral diagnostics: discrete eigenvalues, resolvent norms along the
imaginary axis, transcendental characteristic roots of the continuous
problems, and the Dirichlet-Robin eigenvalue curve with its critical constant.

The discrete spectrum has a scalar oracle as well, det(lam*I - A) in closed
form (``charpoly.discrete_characteristic_function``).  For a CSR
internal-friction A ``eigenvalues`` takes its certified roots
(``charpoly.certified_roots``), and LAPACK's ``eig`` for a dense A, for
Kelvin-Voigt and where the certificate fails.

The characteristic function is evaluated through the entire functions
sinh(sqrt(y))/sqrt(y) and cosh(sqrt(y)) of y = kappa^2, which removes the
square-root branch ambiguity, and in a scaled form with exp(-|Re kappa|)
factored out so that large |kappa| cannot overflow.  The scale factor is
positive, so zeros, residual thresholds and winding numbers are unaffected.

The characteristic roots are enumerated by the argument principle, one
subdivision level at a time: the winding walks, cut lines and Newton
iterations of all rectangles of a level share each call of the
characteristic function, whose fixed cost per call is that of about a
hundred points.  Every rectangle keeps its own stop rules and errors, so the
roots equal, bit for bit, those of a search that takes the rectangles one at
a time.  The search reuses its samples: boundary points are recursive
midpoints of the corners, a rectangle is cut through the midpoints of its
longer sides, its children's walks start from its samples and the cut
line's, and Newton makes one run in a rectangle of one root, from the
first moment of that root over its walk's last ring (Delves and Lyness,
Math. Comp. 21 (1967)), or its real part where the rectangle is symmetric
about the real axis and the root therefore real.  F has real coefficients,
so its roots are closed under conjugation: a rectangle symmetric about the
real axis and taller than wide is cut along Im = +-h, not along the axis,
into a strip about the axis, which holds the real roots, and the halves
above and below it, of which only the upper one is searched and its roots
reported with their exact conjugates.

The Robin solver works on the analytic transcendental equation directly; it
is deliberately independent of the matrix discretization so it can act as an
oracle for it.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg as sla
# called nowhere here: perfbench's tracer and its contract test look it up by name
from scipy.linalg import lapack  # noqa: F401

from .charpoly import certified_roots, discrete_characteristic_function  # the second re-exported
from .core import DampingLaw, Params
from .discretization import DiscreteGenerator, shifted_lu


class EigensolverError(RuntimeError):
    """An eigensolver failed to converge."""


class BetaNearSpectrumError(RuntimeError):
    """The requested shift i*beta sits too close to the spectrum."""


class RobinOverflowError(OverflowError):
    """The first Dirichlet-Robin eigenvalue lies below the most negative float."""


class SingularRegionError(ValueError):
    """The search region contains a singular point of the characteristic function."""


class RootEnumerationError(RuntimeError):
    """Winding count and refined roots disagree, or the contour is unusable.

    Usually the region boundary passes too close to a root; shrink or move
    the region and retry.
    """


# ---------------------------------------------------------------------------
# discrete spectrum


@dataclass(eq=False)
class SpectrumReport:
    """All eigenvalues of a discrete generator, with axis diagnostics."""

    eigenvalues: np.ndarray
    spectral_abscissa: float
    min_distance_to_imaginary_axis: float


def eigenvalues(gen: DiscreteGenerator) -> SpectrumReport:
    """Full spectrum of the real generator matrix, sorted by ``np.sort_complex``.

    The form of A and the damping law pick the path.  A CSR internal-friction
    A with mu != 0, from ``assemble_generator``, gives the n certified roots
    of ``discrete_characteristic_function`` (``charpoly.certified_roots``),
    with no dense A built.  A dense A, a Kelvin-Voigt one, and a CSR A whose
    roots fail their certificate give LAPACK's ``eig`` of the dense A.  Both
    results are closed under conjugation bit for bit.
    """
    vals = None
    if gen.grid is not None and not isinstance(gen.operator, np.ndarray):
        vals = certified_roots(gen.params, gen.grid)
    if vals is None:
        try:
            vals = sla.eig(gen.matrix, right=False)
        except sla.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
            raise EigensolverError(f"dense eigensolver failed on the "
                                   f"{gen.label.value} generator: {exc}") from exc
    vals = np.sort_complex(vals)
    return SpectrumReport(
        eigenvalues=vals,
        spectral_abscissa=float(vals.real.max()),
        min_distance_to_imaginary_axis=float(np.abs(vals.real).min()),
    )


# ---------------------------------------------------------------------------
# resolvent norms


NEAR_SPECTRUM_CONDITION = 1e14  # largest accepted energy-norm condition number
GENERATOR_NORM_TOL = 1e-2  # Lanczos tolerance of the guard's ||A||_G (31 matvecs at n = 480)


def resolvent_norm(gen: DiscreteGenerator, beta: float) -> float:
    """Operator norm of (i*beta*I - A)^{-1} in the energy norm.

    Exact up to roundoff.  The form of A picks the path: for a dense A,
    below ``discretization.SPARSE_MIN_DIM``, one dense SVD, for a CSR A
    one sparse LU and one Lanczos run.  Both paths raise
    :class:`BetaNearSpectrumError` for a shift too close to the spectrum,
    and a failed Lanczos run raises :class:`EigensolverError`.
    A non-finite beta raises ``ValueError``.
    """
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    if isinstance(gen.operator, np.ndarray):
        return _dense_resolvent_norm(gen, beta)
    return _sparse_resolvent_norm(gen, beta)


def _near_spectrum(beta: float, reason: str) -> BetaNearSpectrumError:
    return BetaNearSpectrumError(f"beta={beta} too close to spectrum ({reason})")


def _dense_resolvent_norm(gen: DiscreteGenerator, beta: float) -> float:
    """1/sigma_min(i*beta*I - B) with B = ``gen.weighted_matrix``.

    The guard is the exact condition number sigma_max/sigma_min.
    """
    s = sla.svdvals(1j * beta * np.eye(gen.dim) - gen.weighted_matrix)
    if not s[-1] > s[0] / NEAR_SPECTRUM_CONDITION:
        raise _near_spectrum(beta, f"energy-norm condition number "
                                   f"{s[0] / max(s[-1], 1e-300):.2e} above 1e14")
    return float(1.0 / s[-1])


def _sparse_resolvent_norm(gen: DiscreteGenerator, beta: float) -> float:
    """||R||_G for R = (i*beta*I - A)^{-1}, applied through one sparse LU.

    The guard bounds the condition number by (beta + ||A||_G) * ||R||_G,
    which is at least sigma_max/sigma_min of i*beta - B, so it never fires
    later than the dense path's; an exactly singular LU fires it too.
    ||R||_G is about 1/beta, so R is applied times ``scale``, the largest
    power of two not above max(beta, 1): the Lanczos operator then stays
    near 1 instead of underflowing, and dividing by ``scale`` is exact.
    """
    lu = shifted_lu(gen, 1j * beta, 1.0)
    if lu is None:
        raise _near_spectrum(beta, "i*beta - A is exactly singular")
    scale = math.ldexp(0.5, math.frexp(max(beta, 1.0))[1])
    norm = _energy_norm(gen, lambda x: scale * lu.solve(x),
                        lambda y: scale * lu.solve(y, trans="H"),
                        f"the resolvent at beta={beta}") / scale
    if gen.generator_norm is None:
        a = gen.operator
        # Lanczos stops with its Ritz value theta within tol*theta of the top
        # eigenvalue, so sqrt(1 + tol) * sqrt(theta) bounds ||A||_G from above
        gen.generator_norm = math.sqrt(1.0 + GENERATOR_NORM_TOL) * _energy_norm(
            gen, a.dot, a.T.dot, "the generator", tol=GENERATOR_NORM_TOL)
    bound = (beta + gen.generator_norm) * norm
    if not bound <= NEAR_SPECTRUM_CONDITION:
        raise _near_spectrum(beta, f"energy-norm condition number bound "
                                   f"{bound:.2e} above 1e14")
    return norm


def _energy_norm(gen: DiscreteGenerator, forward, adjoint, what: str,
                 tol: float = 0.0) -> float:
    """||T||_G for the operator T applied by ``forward``, T^H by ``adjoint``.

    ||T||_G^2 is the largest eigenvalue of the Hermitian J^{-T} T^H J^T J T J^{-1},
    G = J^T J with J the energy's factor (``DiscreteGenerator.factor_product``),
    taken by ARPACK (``eigsh``) from a fixed start vector to the relative
    tolerance ``tol``, where 0 means machine precision.  An ARPACK failure,
    such as reaching its iteration limit, raises :class:`EigensolverError`.
    """
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    def apply(v):
        t = gen.factor_product(forward(gen.factor_solve(v)))
        return gen.factor_solve(adjoint(gen.factor_product(t, transpose=True)), transpose=True)

    n = gen.dim
    try:
        lam = eigsh(LinearOperator((n, n), matvec=apply, dtype=complex), k=1,
                    which="LM", v0=np.sin(np.arange(1.0, n + 1.0)).astype(complex),
                    tol=tol, return_eigenvectors=False)
    except ArpackError as exc:
        raise EigensolverError(f"Lanczos for the energy norm of {what} "
                               f"failed: {exc}") from exc
    return float(math.sqrt(lam[0]))


@dataclass(eq=False)
class ResolventScan:
    """Resolvent norms along i*beta and the fitted log-log growth trend.

    The slope is fitted only over the pre-saturation window beta <= the
    largest eigenfrequency the grid resolves: a finite matrix cannot show
    unbounded resolvent growth, so beyond that point the norms merely decay.
    ``spectrum`` holds the generator's eigenvalues the cutoff was taken from,
    as ``eigenvalues`` gives them: for a CSR internal-friction A the
    certified roots of F_h, with no dense A built, where they pass their
    certificate, else LAPACK's ``eig``.
    """

    betas: np.ndarray
    norms: np.ndarray
    fitted_loglog_slope: float
    presaturation_cutoff: float
    spectrum: np.ndarray


def sorted_betas(betas) -> np.ndarray:
    """The scan frequencies as a sorted array; every beta must be finite and
    positive."""
    betas = np.asarray(sorted(float(b) for b in betas))
    if not np.all(np.isfinite(betas) & (betas > 0.0)):
        raise ValueError(f"betas must be finite and positive, got {betas.tolist()}")
    return betas


def resolvent_scan(gen: DiscreteGenerator, betas) -> ResolventScan:
    """Evaluate the resolvent norm at each beta and fit the log-log trend.

    The slope is NaN when fewer than two distinct betas leave nothing to fit.
    """
    betas = sorted_betas(betas)
    norms = np.array([resolvent_norm(gen, b) for b in betas])
    spectrum = eigenvalues(gen).eigenvalues
    cutoff = float(np.abs(spectrum.imag).max())
    # the pre-saturation window, else every beta; one distinct beta has no slope
    slope = math.nan
    for fit in (betas <= cutoff, slice(None)):
        if np.unique(betas[fit]).size >= 2:
            slope = float(np.polyfit(np.log(betas[fit]), np.log(norms[fit]), 1)[0])
            break
    return ResolventScan(betas=betas, norms=norms, fitted_loglog_slope=slope,
                         presaturation_cutoff=cutoff, spectrum=spectrum)


# ---------------------------------------------------------------------------
# characteristic roots of the continuous problems


WINDING_MIN_SAMPLES = 32    # boundary samples per side of the first walk
WINDING_MAX_SAMPLES = 8192  # per-side cap on the doubling refinement
NEWTON_MAX_ITER = 200
ROOT_RESIDUAL_TOL = 1e-10   # |F| below which Newton accepts a root
CONTAINS_SLACK = 1e-12      # tolerance of Rectangle.contains on refined roots


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned search region in the complex plane."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError("rectangle must have positive width and height")

    def contains(self, z: complex) -> bool:
        """Whether z lies in the rectangle, widened by CONTAINS_SLACK."""
        slack = CONTAINS_SLACK
        return (self.re_min - slack <= z.real <= self.re_max + slack
                and self.im_min - slack <= z.imag <= self.im_max + slack)

    @property
    def centre(self) -> complex:
        return complex((self.re_min + self.re_max) / 2, (self.im_min + self.im_max) / 2)


@dataclass(frozen=True)
class CharacteristicRoot:
    lam: complex
    residual: float
    multiplicity_hint: int = 1


def characteristic_function(p: Params) -> Callable:
    """Entire function whose zeros are the continuous eigenvalues.

    Internal friction: with kappa^2 = lam*(lam + a),
        F(lam) = lam^2 sinh(k)/k + cosh(k) + mu*lam*e^{-lam*tau} sinh(k)/k,
    obtained from u(x) = sinh(kappa*x)/kappa and the dynamic boundary relation
    u'(1) = -(lam^2 + mu*lam*e^{-lam*tau}) u(1).  For SHIFTED params the
    whole function is evaluated at lam + shift (the operator shift moves the
    spectrum rigidly; see the module docs for the design note).

    Kelvin-Voigt: kappa^2 = lam^2/(1 + a*lam) and
        F(lam) = lam^2 sinh(k)/k + (1 + a*lam) cosh(k)
                 + mu*lam*e^{-lam*tau} sinh(k)/k.
    This representation has an essential singularity at lam = -1/a, so
    Kelvin-Voigt search regions must exclude that point; F is inf there.

    The returned function takes a complex number or an array and returns F
    with the same shape.  Values carry a positive scale factor
    exp(-|Re kappa|); zeros, residuals and winding numbers are unchanged by
    it.  An overflow of e^{-lam*tau} becomes inf, so F is not finite there.
    """
    a, mu, tau, shift = p.a, p.mu, p.tau, p.shift
    is_kv = p.law is DampingLaw.KELVIN_VOIGT

    def f(lam):
        lam = np.asarray(lam, dtype=complex) + shift
        lam2 = lam * lam
        with np.errstate(all="ignore"):
            if is_kv:
                den = 1.0 + a * lam
                y = lam2 / den
            else:
                y = lam * (lam + a)
            # sinh(k)/k and cosh(k) for k = sqrt(y), scaled by exp(-|Re k|):
            # entire in y, with the series where the exponentials cancel
            k = np.sqrt(y)
            r = np.abs(k.real)
            ep = np.exp(k - r)
            em = np.exp(-k - r)
            s = (ep - em) / (k + k)
            c = (ep + em) / 2.0
            small = np.abs(k) < 1e-2
            if small.any():
                scale = np.exp(-r)
                s = np.where(small, scale * (1 + y / 6 * (1 + y / 20 * (1 + y / 42))), s)
                c = np.where(small, scale * (1 + y / 2 * (1 + y / 12 * (1 + y / 30))), c)
            out = lam2 * s + (den * c if is_kv else c)
            if mu != 0.0:
                delay = np.exp(-lam * tau)
                delay = np.where(np.isfinite(delay), delay, math.inf)
                out = out + mu * lam * delay * s
            if is_kv:
                out = np.where(den == 0.0, math.inf, out)
        return out[()]

    return f


def _side_points(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """n + 1 points from a to b, n a power of two, along the last axis: each
    inner point is the midpoint 0.5*p + 0.5*q of two points placed before
    it, which keeps exactly a coordinate that p and q share.

    A half of the side, or the side walked backwards, holds the same floats
    as the side itself.
    """
    pts = np.empty(np.shape(a) + (n + 1,), dtype=complex)
    pts[..., 0], pts[..., n] = a, b
    h = n
    while h > 1:
        pts[..., h // 2::h] = 0.5 * pts[..., :-1:h] + 0.5 * pts[..., h::h]
        h //= 2
    return pts


class _Boundary:
    """The samples of F on the walked boundaries of one root search.

    Side k (bottom, right, top, left) of walk w holds its d + 1 samples,
    d = ``dens[w, k]`` a power of two and 0 before its first round, as the
    entries ``start[w, k] + step[w, k]*j``, j = 0..d, of the flat buffers
    ``z`` (points) and ``v`` (values of F); ``step`` is -1 where the walk
    runs against the order the entries were stored in.  A child's side on
    its parent's boundary, on the cut line or on its mirror image points
    into those entries, so a child walk evaluates only the points its parent
    and the cut lack.
    ``final[w]`` is the samples per side of walk w's last ring.
    """

    def __init__(self):
        # a reference-region search fits unresized; the points start finite,
        # since ``fill`` reads a fresh walk's first entries before placing it
        self.z = np.zeros(1 << 15, dtype=complex)
        self.v = np.zeros(1 << 15, dtype=complex)
        self.used = 0
        self.start = np.empty((0, 4), dtype=np.intp)
        self.step = np.empty((0, 4), dtype=np.intp)
        self.dens = np.empty((0, 4), dtype=np.intp)
        self.final = np.empty(0, dtype=np.intp)

    def walks(self, start, step, dens) -> np.ndarray:
        """Ids of new walks whose sides have the records (start, step, dens)."""
        first = len(self.final)
        self.start = np.concatenate([self.start, start])
        self.step = np.concatenate([self.step, step])
        self.dens = np.concatenate([self.dens, dens])
        self.final = np.concatenate([self.final, np.zeros(len(start), dtype=np.intp)])
        return np.arange(first, len(self.final))

    def fresh(self, count: int) -> np.ndarray:
        """Ids of ``count`` new walks that hold no samples yet."""
        zero = np.zeros((count, 4), dtype=np.intp)
        return self.walks(zero, zero + 1, zero)

    def append(self, z: np.ndarray, v: np.ndarray) -> int:
        """Stores the points z and values v; returns the entry of the first."""
        first, end = self.used, self.used + z.size
        if end > self.z.size:
            size = max(2 * self.z.size, end)
            self.z = np.concatenate([self.z[:first], np.empty(size - first, dtype=complex)])
            self.v = np.concatenate([self.v[:first], np.empty(size - first, dtype=complex)])
        self.z[first:end], self.v[first:end] = z, v
        self.used = end
        return first

    def fill(self, f, ids: np.ndarray, corners: np.ndarray, n: int) -> None:
        """Brings every side of the walks ``ids``, with corners ``corners``,
        to at least n samples, in one call of f, or none where they hold
        them.  A side that lacks them holds none or n/2.  One that holds
        none belongs to a fresh walk, in its first round, which lacks all
        four: they are placed from its corners, the last sample of each side
        the first of the next, so each corner is evaluated once.  One that
        holds n/2 gets the n/2 midpoints; in the first round, n =
        WINDING_MIN_SAMPLES, that is an upright side of the upper child of a
        ``_mirrors`` cut, a quarter of a side of 64."""
        w, k = np.nonzero(self.dens[ids] < n)
        if not w.size:
            return
        rows = ids[w]
        z = np.empty((w.size, n + 1), dtype=complex)
        v = np.empty_like(z)
        at = (self.start[rows, k][:, None]
              + self.step[rows, k][:, None] * np.arange(n // 2 + 1))
        z[:, ::2], v[:, ::2] = self.z[at], self.v[at]
        z[:, 1::2] = 0.5 * z[:, :-1:2] + 0.5 * z[:, 2::2]
        fresh = np.flatnonzero(self.dens[rows, k] == 0)
        if fresh.size:
            z[fresh] = _side_points(corners[w[fresh], k[fresh]],
                                    corners[w[fresh], (k[fresh] + 1) % 4], n)
            new = np.zeros(z.shape, dtype=bool)
            new[:, 1::2] = True
            new[fresh, :n] = True
            v[new] = f(z[new])
            v[fresh, n] = v[fresh + np.where(k[fresh] == 3, -3, 1), 0]
        else:
            v[:, 1::2] = f(z[:, 1::2])
        first = self.append(z.ravel(), v.ravel())
        self.start[rows, k] = first + (n + 1) * np.arange(w.size)
        self.step[rows, k] = 1
        self.dens[rows, k] = n

    def index(self, ids: np.ndarray, n: int) -> np.ndarray:
        """Entries of the rings of walks ``ids`` at n samples per side, shape
        (len(ids), 4*n), each ring from its lower left corner on."""
        stride = self.step[ids] * (self.dens[ids] // n)
        at = self.start[ids][..., None] + stride[..., None] * np.arange(n)
        return at.reshape(len(ids), 4 * n)


def _corners(rects: list[Rectangle]) -> np.ndarray:
    return np.array([[complex(r.re_min, r.im_min), complex(r.re_max, r.im_min),
                      complex(r.re_max, r.im_max), complex(r.re_min, r.im_max)]
                     for r in rects]).reshape(len(rects), 4)


def _winding_number(f, rects: list[Rectangle], boundary: _Boundary | None = None,
                    ids: np.ndarray | None = None) -> list[int]:
    """Winding numbers of f along the boundaries of ``rects``.

    Each boundary gets a trapezoid walk, refined until every phase increment
    is below pi/2 and the total stabilizes at an integer within 1e-3.  A root
    on (or next to) a boundary never satisfies the phase criterion, so the
    per-side sample count is capped at WINDING_MAX_SAMPLES rather than
    refined indefinitely.  The samples of a side are its recursive midpoints
    (``_side_points``), and each refinement doubles them, so only the new
    midpoints are evaluated.  Walks ``ids`` of ``boundary`` start from the
    samples their sides already hold, their parent's and their cut line's;
    without a boundary the walks start afresh.  The walks advance together:
    each round is at most one call of f, for the points the walks still open
    lack, and none where they hold them all.  A round takes the phase steps,
    their largest size and their total for all its walks in a few
    whole-array calls; each walk then keeps its own stop rule, cap and
    errors, and the first round in which a walk fails raises, for the first
    such rectangle in list order.
    """
    if boundary is None:
        boundary = _Boundary()
        ids = boundary.fresh(len(rects))
    corners = _corners(rects)
    n = WINDING_MIN_SAMPLES
    counts: list[int] = [0] * len(rects)
    prev: list[float | None] = [None] * len(rects)
    walks = list(range(len(rects)))  # rectangle of each open walk
    while True:
        boundary.fill(f, ids[walks], corners[walks], n)
        rings = boundary.v[boundary.index(ids[walks], n)]
        usable = rings.all(axis=1) & np.isfinite(rings).all(axis=1)
        # unusable rows raise; a ratio that overflows or underflows shows in the total
        with np.errstate(all="ignore"):
            dargs = np.angle(np.roll(rings, -1, axis=1) / rings)
        steep = np.abs(dargs).max(axis=1) > 0.5 * math.pi
        totals = dargs.sum(axis=1) / (2.0 * math.pi)
        del dargs, rings  # not held through the next call of f
        going = []  # open walks that refine again
        for row, i in enumerate(walks):
            if not usable[row]:
                raise RootEnumerationError(
                    "characteristic function vanishes or overflows on the region "
                    "boundary; shrink or move the region")
            if steep[row]:
                prev[i] = None
            else:
                total = totals[row]
                if prev[i] is not None and abs(total - prev[i]) < 1e-3:
                    if abs(total - round(total)) > 1e-3:
                        raise RootEnumerationError(
                            f"winding number {total:.6f} along the region boundary is "
                            f"not integral; the boundary is too close to a root")
                    counts[i] = int(round(total))
                    boundary.final[ids[i]] = n
                    continue
                prev[i] = total
            going.append(i)
        if not going:
            return counts
        n *= 2
        if n > WINDING_MAX_SAMPLES:
            raise RootEnumerationError(
                "winding number did not stabilize; the region boundary is too "
                "close to a root")
        walks = going


def _newton(f, seeds: list[complex],
            rects: list[Rectangle]) -> list[tuple[complex, float] | None]:
    """Newton refinement from each seed, with a central-difference derivative,
    confined near its rectangle.

    A run stops at |f| below ROOT_RESIDUAL_TOL, at a negligible step or after
    NEWTON_MAX_ITER steps.  Stopped at a small |f|, it takes one more step,
    since |f| < ROOT_RESIDUAL_TOL leaves a point up to about
    ROOT_RESIDUAL_TOL/|f'| from the root; it returns the point that step
    reaches if |f| is that small there too, else the point it stopped at.
    Stopped on a step or at the cap, it returns the final point only if |f|
    is that small there.  The runs step in lockstep: each iteration is one
    call of f at z and z +- h of every open run and at the final point of
    every run that stopped in the iteration before.  The difference quotient,
    h = 1e-7*(1 + |z|), is no derivative where roots lie closer than h: a
    caller with such roots must use an exact derivative, as
    ``charpoly.certified_roots`` does for F_h.
    """
    z = list(seeds)
    bound = [4.0 * max(r.re_max - r.re_min, r.im_max - r.im_min) for r in rects]
    center = [r.centre for r in rects]
    steps = [0] * len(z)
    out: list[tuple[complex, float] | None] = [None] * len(z)
    runs, last = list(range(len(z))), []  # open runs; runs owing a final value
    while runs or last:
        hs = [1e-7 * (1.0 + abs(z[i])) for i in runs]
        pts = [w for i, h in zip(runs, hs) for w in (z[i], z[i] + h, z[i] - h)]
        vals = f(np.array(pts + [z[i] for i in last])).tolist()
        for i, fz in zip(last, vals[len(pts):]):
            if abs(fz) < ROOT_RESIDUAL_TOL:
                out[i] = (z[i], abs(fz))
        going, last = [], []
        for j, (i, h) in enumerate(zip(runs, hs)):
            fz, fp, fm = vals[3 * j:3 * j + 3]
            if not cmath.isfinite(fz):
                continue
            small = abs(fz) < ROOT_RESIDUAL_TOL
            if small:
                out[i] = (z[i], abs(fz))
            df = (fp - fm) / (2.0 * h)
            if df == 0.0 or not cmath.isfinite(df):
                continue
            dz = fz / df
            z[i] = z[i] - dz
            if abs(z[i] - center[i]) > bound[i]:
                continue
            steps[i] += 1
            if small or abs(dz) < 5e-16 * (1.0 + abs(z[i])) or steps[i] == NEWTON_MAX_ITER:
                last.append(i)
            else:
                going.append(i)
        runs = going
    return out


def _mirrors(rect: Rectangle) -> bool:
    """Whether the cut of ``rect`` runs along Im = +-h: a rectangle
    symmetric about the real axis and taller than wide, whose cut would
    otherwise run along the axis.  Its children are the strip |Im| < h and
    the half above it, which stands for its mirror image below the strip as
    well, since the roots are closed under conjugation."""
    return rect.im_min == -rect.im_max and rect.re_max - rect.re_min < rect.im_max - rect.im_min


# The sides of the two children of a cut, in ring order, for a cut across the
# imaginary side (row 0, the lower child first), one across the real side
# (row 1, the left child first) and the cut along Im = +-h of ``_mirrors``
# (row 2, the strip first): (source, offset, length), where the source is
# side k of the parent (k = 0..3), the cut line (4) or its mirror image (5),
# and offset and length count quarters of the source, a negative length
# walking it backwards.  _CUT_ENDS holds the (side, quarter) of the parent
# sample each row's cut line starts and ends at.
_CHILD_SIDES = np.array([
    [[(0, 0, 4), (1, 0, 2), (4, 4, -4), (3, 2, 2)], [(4, 0, 4), (1, 2, 2), (2, 0, 4), (3, 0, 2)]],
    [[(0, 0, 2), (4, 0, 4), (2, 2, 2), (3, 0, 4)], [(0, 2, 2), (1, 0, 4), (2, 0, 2), (4, 4, -4)]],
    [[(5, 0, 4), (1, 1, 2), (4, 4, -4), (3, 1, 2)], [(4, 0, 4), (1, 3, 1), (2, 0, 4), (3, 0, 1)]],
])
_CUT_ENDS = np.array([[(3, 2), (1, 2)], [(0, 2), (2, 2)], [(3, 1), (1, 3)]])


def _split(f, rects: list[Rectangle], boundary: _Boundary,
           ids: np.ndarray) -> tuple[list[Rectangle], np.ndarray]:
    """Each rectangle, walked as walk ``ids`` of ``boundary``, cut in two
    across its longer side (the real one on a tie).

    The cut runs through the midpoints of the two opposite sides, which the
    walk holds, or, where ``_mirrors`` holds, along Im = h = im_max/2, through
    samples the walk holds too, and its mirror image Im = -h.  Its inner
    samples at 2*WINDING_MIN_SAMPLES = 64 intervals, 63 points, are
    evaluated in one call of f for all rectangles: both children need the
    cut at that density in their second round, and this way they do not
    evaluate it twice.  The mirror image Im = -h takes the conjugate points
    and values, which are F's own there, bit for bit, since F has real
    coefficients.  The children's sides then point at their parent's
    samples and the cut's; the upright sides of the upper child of a
    ``_mirrors`` cut are the top quarters of the parent's.  Where one of the
    cut's 33 values at WINDING_MIN_SAMPLES intervals is zero or not finite,
    or a phase step between them exceeds pi/2, the cut would pass too close
    to a root: that rectangle is cut instead along the candidate line (or
    mirrored pair of lines) that keeps |f| largest, the centre first on a
    tie, all such rectangles' candidates in one more call, and its children
    start fresh walks.  Returns the children, two per rectangle in order,
    and their walk ids.
    """
    kind = np.array([1 if r.re_max - r.re_min >= r.im_max - r.im_min else 2 if _mirrors(r) else 0
                     for r in rects])
    st, sp, dn = boundary.start[ids], boundary.step[ids], boundary.dens[ids]
    rows = np.arange(len(rects))
    r2 = rows[:, None]
    side, quarter = _CUT_ENDS[kind, :, 0], _CUT_ENDS[kind, :, 1]
    ends = st[r2, side] + sp[r2, side] * (dn[r2, side] * quarter // 4)
    n = 2 * WINDING_MIN_SAMPLES
    line = _side_points(boundary.z[ends[:, 0]], boundary.z[ends[:, 1]], n)
    vals = np.empty_like(line)
    vals[:, 0], vals[:, n] = boundary.v[ends[:, 0]], boundary.v[ends[:, 1]]
    vals[:, 1:n] = f(line[:, 1:n])
    first = vals[:, ::2]
    with np.errstate(divide="ignore", invalid="ignore"):
        clear = (np.isfinite(first).all(axis=1) & first.all(axis=1)
                 & (np.abs(np.angle(first[:, 1:] / first[:, :-1])).max(axis=1) <= 0.5 * math.pi))
    cut = boundary.append(line.ravel(), vals.ravel()) + (n + 1) * rows
    below = np.zeros(len(rects), dtype=np.intp)
    pairs = kind == 2
    below[pairs] = (boundary.append(line[pairs].conj().ravel(), vals[pairs].conj().ravel())
                    + (n + 1) * np.arange(pairs.sum()))
    # the children's side records, (rect, child, side), from the sources
    # (rect, source): the parent's four sides, the cut and its mirror image
    st = np.column_stack([st, cut, below])
    sp = np.column_stack([sp, np.ones((len(rects), 2), dtype=np.intp)])
    dn = np.column_stack([dn, np.full((len(rects), 2), n)])
    code = _CHILD_SIDES[kind]
    source, offset, length = code[..., 0], code[..., 1], code[..., 2]
    r3 = rows[:, None, None]
    whole, step = dn[r3, source], sp[r3, source]
    start = st[r3, source] + step * (whole * offset // 4)
    dens = whole * np.abs(length) // 4
    step = step * np.sign(length)
    fallback = np.flatnonzero(~clear)
    start[fallback], step[fallback], dens[fallback] = 0, 1, 0  # fresh walks
    lines = dict(zip(fallback.tolist(),
                     _clearest_lines(f, [rects[i] for i in fallback])))
    children = []
    for i, (r, k) in enumerate(zip(rects, kind.tolist())):
        if k == 1:
            m = lines.get(i, 0.5 * r.re_min + 0.5 * r.re_max)
            children += [Rectangle(r.re_min, m, r.im_min, r.im_max),
                         Rectangle(m, r.re_max, r.im_min, r.im_max)]
        else:
            m = lines.get(i, 0.5 * r.im_max if k == 2 else 0.5 * r.im_min + 0.5 * r.im_max)
            children += [Rectangle(r.re_min, r.re_max, -m if k == 2 else r.im_min, m),
                         Rectangle(r.re_min, r.re_max, m, r.im_max)]
    return children, boundary.walks(start.reshape(-1, 4), step.reshape(-1, 4),
                                    dens.reshape(-1, 4))


def _clearest_lines(f, rects: list[Rectangle]) -> list[float]:
    """For each rectangle, the coordinate of the candidate line across its
    longer side that keeps |f| largest; ties go to the earlier candidate,
    the centre first.  All candidates are sampled in one call of f.  Where
    ``_mirrors`` holds, the candidates are the lines Im = h across its upper
    half, each standing for the pair Im = +-h, on which |f| is the same."""
    if not rects:
        return []
    grids = []
    for r in rects:
        vertical = (r.re_max - r.re_min) >= (r.im_max - r.im_min)
        lo, hi, span = ((r.re_min, r.re_max, (r.im_min, r.im_max)) if vertical
                        else (0.0 if _mirrors(r) else r.im_min, r.im_max, (r.re_min, r.re_max)))
        ts = np.linspace(span[0], span[1], 33)
        ms = lo + np.array([0.5, 0.46, 0.54, 0.42, 0.58, 0.38, 0.62]) * (hi - lo)
        grids.append((ms, ms[:, None] + 1j * ts if vertical else ts + 1j * ms[:, None]))
    pts = np.array([g for _, g in grids])
    clear = np.abs(f(pts)).min(axis=2)
    return [float(ms[np.argmax(c)]) for (ms, _), c in zip(grids, clear)]


def _log_scale(p: Params) -> Callable:
    """z -> |Re kappa| at lam = z (+ shift): the log of the positive factor
    that ``characteristic_function(p)`` divides F by."""
    a, shift = p.a, p.shift
    is_kv = p.law is DampingLaw.KELVIN_VOIGT

    def scale(z):
        lam = z + shift
        with np.errstate(all="ignore"):
            return np.sqrt(lam * lam / (1.0 + a * lam) if is_kv else lam * (lam + a)).real

    return scale


def _moment_seed(z: np.ndarray, v: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """First-moment estimate of the one root inside each ring: row j of
    ``z`` walks a boundary of winding number 1 from z0 = z[j, 0], with F
    values ``v`` and |Re kappa| ``scale``.

    The root is z0 - (1/(2 pi i)) oint log F~ dz for the analytic
    F~ = F*exp(|Re kappa|), with the phase unwrapped from z0, so that it
    arrives back at z0 one turn up; the integral is the trapezoid rule over
    the ring.
    """
    with np.errstate(all="ignore"):  # a seed that comes out non-finite fails its run
        steps = np.angle(np.roll(v, -1, axis=-1) / v)
    phase = np.cumsum(np.concatenate([np.angle(v[:, :1]), steps], axis=1), axis=1)
    logs = np.log(np.abs(v)) + scale
    logf = np.concatenate([logs, logs[:, :1]], axis=1) + 1j * phase
    dz = np.diff(np.concatenate([z, z[:, :1]], axis=1), axis=1)
    integral = 0.5 * ((logf[:, 1:] + logf[:, :-1]) * dz).sum(axis=1)
    return z[:, 0] - integral / (2j * math.pi)


def _moment_seeds(boundary: _Boundary, ids: np.ndarray, scale: Callable) -> list[complex]:
    """``_moment_seed`` over the last ring of each walk ``ids``, the walks
    whose rings have one size together."""
    seeds = np.empty(len(ids), dtype=complex)
    final = boundary.final[ids]
    for n in np.unique(final).tolist():
        rows = np.flatnonzero(final == n)
        at = boundary.index(ids[rows], n)
        z = boundary.z[at]
        seeds[rows] = _moment_seed(z, boundary.v[at], scale(z))
    return seeds.tolist()


def _enumerate(f, region: Rectangle, scale: Callable) -> tuple[int, list[tuple[complex, float]]]:
    """The winding number of ``region`` and its roots, found one subdivision
    level at a time; ``scale`` is ``_log_scale`` of F's parameters.

    A rectangle of count 0 is dropped.  One of count 1, or one below 1e-6 on
    both sides, gets one Newton run, all of the level in one ``_newton``
    call: for count 1 from the first-moment seed of its walk's last ring,
    or its real part where the rectangle is symmetric about the real axis
    and its root therefore real, else from its centre.  A tiny rectangle
    reports its refined point ``count`` times, and raises if the run fails
    or leaves it.  Every other rectangle, and one of count 1 whose run
    fails or leaves it, is split, all of the level together, and the walks
    of all children give the next level.  A rectangle that stands for its
    mirror image as well (the upper child of a ``_mirrors`` cut and all its
    descendants) reports each root together with its conjugate, of the same
    residual.  Reaching level 81 raises.
    """
    boundary = _Boundary()
    ids = boundary.fresh(1)
    (total,) = _winding_number(f, [region], boundary, ids)
    found: list[tuple[complex, float]] = []
    level, depth = [(region, total, ids[0], False)], 0
    while True:
        if depth > 80:
            raise RootEnumerationError("subdivision depth exhausted during root search")
        split, refine = [], []
        for rect, count, walk, mirrored in level:
            tiny = (rect.re_max - rect.re_min) < 1e-6 and (rect.im_max - rect.im_min) < 1e-6
            if count == 1 or (tiny and count != 0):
                refine.append((rect, count, tiny, walk, mirrored))
            elif count != 0:
                split.append((rect, walk, mirrored))
        walks = np.array([item[3] for item in refine if item[1] == 1], dtype=np.intp)
        moments = iter(_moment_seeds(boundary, walks, scale))
        seeds = [next(moments) if count == 1 else rect.centre for rect, count, *_ in refine]
        # a lone root of a rectangle symmetric about the real axis is real
        seeds = [complex(z.real) if rect.im_min == -rect.im_max else z
                 for z, (rect, *_) in zip(seeds, refine)]
        got = _newton(f, seeds, [item[0] for item in refine]) if refine else []
        for (rect, count, tiny, walk, mirrored), g in zip(refine, got):
            if g is not None and rect.contains(g[0]):
                z, r = g
                found += ([(z, r), (z.conjugate(), r)] if mirrored else [(z, r)]) * count
            elif tiny:
                raise RootEnumerationError(f"could not refine a root cluster of winding "
                                           f"count {count} near {rect.centre}")
            else:
                split.append((rect, walk, mirrored))
        if not split:
            return total, found
        children, ids = _split(f, [rect for rect, _, _ in split], boundary,
                               np.array([walk for _, walk, _ in split], dtype=np.intp))
        mirrored = [m or (half == 1 and _mirrors(rect))
                    for rect, _, m in split for half in (0, 1)]
        level = list(zip(children, _winding_number(f, children, boundary, ids), ids, mirrored))
        depth += 1


def characteristic_roots(p: Params, region: Rectangle) -> list[CharacteristicRoot]:
    """All characteristic roots inside ``region``.

    Argument-principle winding counts enumerate the roots, one subdivision
    level at a time, Newton refines them, and the total multiplicity is
    reconciled against the winding count of the full region; disagreement
    raises :class:`RootEnumerationError`.  So does an unusable contour or
    cluster: the full region's walk is checked first, then each level in
    turn, where a tiny cluster whose Newton run fails raises before the walks
    of the level's children, and a walk failure raises in the first
    refinement round in which any child's walk fails.  A region symmetric
    about the real axis is searched in a strip about the axis and the half
    above it, whose roots come with their exact conjugates (``_mirrors``);
    the reconciliation counts each of them twice.  Roots are listed by
    ascending real part; roots whose real parts agree to 1e-7*(1 + |lam|),
    such as a conjugate pair, by ascending imaginary part.
    """
    if p.law is DampingLaw.KELVIN_VOIGT and p.a > 0.0:
        pole = -1.0 / p.a
        if region.re_min <= pole <= region.re_max and region.im_min <= 0.0 <= region.im_max:
            raise SingularRegionError(
                f"Kelvin-Voigt characteristic function is singular at "
                f"lam = -1/a = {pole}; choose a region excluding that point")
    total, raw = _enumerate(characteristic_function(p), region, _log_scale(p))

    merged: list[list] = []  # [lam, residual, multiplicity]
    for z, r in sorted(raw, key=lambda t: (t[0].real, t[0].imag)):
        for entry in merged:
            if abs(z - entry[0]) < 1e-7 * (1.0 + abs(z)):
                entry[2] += 1
                entry[1] = min(entry[1], r)
                break
        else:
            merged.append([z, r, 1])

    if sum(m for _, _, m in merged) != total:
        raise RootEnumerationError(
            f"winding count {total} of the region disagrees with the "
            f"{sum(m for _, _, m in merged)} refined roots; the region "
            f"boundary is probably too close to a root")
    # rows by ascending Re; real parts equal up to the merge tolerance, like
    # those of a conjugate pair, form one group listed by ascending Im
    groups: list[list] = []
    for entry in merged:
        z = entry[0]
        if groups and abs(z.real - groups[-1][0][0].real) < 1e-7 * (1.0 + abs(z)):
            groups[-1].append(entry)
        else:
            groups.append([entry])
    return [CharacteristicRoot(lam=z, residual=r, multiplicity_hint=m)
            for group in groups for z, r, m in sorted(group, key=lambda e: e[0].imag)]


# ---------------------------------------------------------------------------
# Dirichlet-Robin eigenvalue curve


def _robin_determinant(lam: float, c: float) -> float:
    """h(lam) whose smallest root is the first Dirichlet-Robin eigenvalue.

    For -u'' = lam*u with u(0) = 0 and u'(1) + c*u(1) = 0:
    h(lam) = cos(sqrt(lam)) + c*sin(sqrt(lam))/sqrt(lam) for lam > 0, extended
    through h(0) = 1 + c and the hyperbolic branch for lam < 0.
    """
    if lam > 1e-12:
        s = math.sqrt(lam)
        return math.cos(s) + c * math.sin(s) / s
    if lam < -1e-12:
        s = math.sqrt(-lam)
        try:
            return math.cosh(s) + c * math.sinh(s) / s
        except OverflowError:
            return math.inf if c > -s else -math.inf
    # series around lam = 0
    return (1.0 + c) - lam * (0.5 + c / 6.0) + lam * lam * (1.0 / 24.0 + c / 120.0)


ROBIN_BISECTION_TOL = 1e-12  # absolute width at which the Robin bisections stop


def _bisect(f: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    """Midpoint of [lo, hi] narrowed around a sign change of f to width tol.

    The end whose value has the sign of f(lo) moves; a zero counts as
    negative.  The midpoint halves each end first, which is exact and cannot
    overflow, and the loop also stops when no float midpoint is left.
    """
    positive = f(lo) > 0.0
    while hi - lo > tol:
        mid = 0.5 * lo + 0.5 * hi
        if not lo < mid < hi:
            break
        if (f(mid) > 0.0) == positive:
            lo = mid
        else:
            hi = mid
    return 0.5 * lo + 0.5 * hi


def robin_eigenvalue(c: float) -> float:
    """First eigenvalue C(c) of -u'' on (0,1) with u(0) = 0, u'(1) + c*u(1) = 0.

    Bisection on the analytic determinant, accurate to the absolute
    ROBIN_BISECTION_TOL = 1e-12, not relative to C(c): ``robin --robin_c
    -0.9999999999999999`` prints 2.81e-13, while C(c) is about
    3*(1 + c) = 3.3e-16.  The sign of C(c) is that of 1 + c exactly.
    For c > -1 the eigenvalue lies in (0, pi^2]; for c < -1 there is exactly
    one negative eigenvalue, bracketed by geometric expansion; c = -1 gives 0.
    That eigenvalue is about -c^2 for large |c|; where it lies below the most
    negative float, :class:`RobinOverflowError` is raised; a NaN ``c`` is a
    ``ValueError``.
    """
    if math.isnan(c):  # every comparison below would be false
        raise ValueError("the Robin constant c is NaN")
    if c == math.inf:  # u(1) = 0; the series would give h(0) = inf - 0*inf = nan
        return math.pi ** 2
    h0 = 1.0 + c
    if h0 == 0.0:
        return 0.0
    if h0 > 0.0:
        # h(s^2) = cos(s) + c*sin(s)/s changes sign exactly once for s in
        # (0, 1.0005*pi]: tan(s) = -s/c has one root there, in (pi/2, pi) for
        # c > 0, in (0, pi/2) for -1 < c < 0, and s = pi/2 for c = 0.  At
        # s = 1.0005*pi cos and sin are both negative, so h < 0 for every
        # c > -1, also above c = 2.6e16, where h(fl(pi)^2) > 0.
        lo, hi = 0.0, (1.0005 * math.pi) ** 2
    else:
        # unique negative eigenvalue: expand left until h turns positive,
        # up to the most negative float
        width = 1.0
        while _robin_determinant(-width, c) <= 0.0:
            if width == sys.float_info.max:
                raise RobinOverflowError(
                    f"the first Dirichlet-Robin eigenvalue for c={c} is below "
                    f"-{sys.float_info.max:.6g}")
            width = min(2.0 * width, sys.float_info.max)
        lo, hi = -width, 0.0
    return _bisect(lambda lam: _robin_determinant(lam, c), lo, hi, ROBIN_BISECTION_TOL)


def find_c_star() -> float:
    """The unique negative c with a vanishing first Dirichlet-Robin eigenvalue.

    Bisection on c -> robin_eigenvalue(c) over [-1.5, 0], to width
    ROBIN_BISECTION_TOL.  On the unit interval the answer is -1.
    """
    # the sign of C(c) is that of 1 + c exactly, so C(-1.5) < 0 < C(0)
    return _bisect(robin_eigenvalue, -1.5, 0.0, ROBIN_BISECTION_TOL)
