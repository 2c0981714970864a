"""Spectral diagnostics: discrete eigenvalues, resolvent norms along the
imaginary axis, transcendental characteristic roots of the continuous
problems, and the Dirichlet-Robin eigenvalue curve with its critical constant.

The characteristic function is evaluated through the entire functions
sinh(sqrt(y))/sqrt(y) and cosh(sqrt(y)) of y = kappa^2, which removes the
square-root branch ambiguity, and in a scaled form with exp(-|Re kappa|)
factored out so that large |kappa| cannot overflow.  The scale factor is
positive, so zeros, residual thresholds and winding numbers are unaffected.

The characteristic roots are enumerated by the argument principle, one
subdivision level at a time: the winding walks, split lines and Newton
iterations of all rectangles of a level share each call of the
characteristic function, whose fixed cost per call is that of about a
hundred points.  Every rectangle keeps its own stop rules and errors, so the
roots equal, bit for bit, those of a search that takes the rectangles one at
a time.

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
from scipy.linalg import lapack  # perfbench's tracer also wraps this attribute by name

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
    """Full spectrum of the dense real generator matrix."""
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

    ||T||_G^2 is the largest eigenvalue of the Hermitian L^{-1} T^H G T L^{-T},
    G = L L^T, taken by ARPACK (``eigsh``) from a fixed start vector to the
    relative tolerance ``tol``, where 0 means machine precision.  An ARPACK
    failure, such as reaching its iteration limit, raises
    :class:`EigensolverError`.
    """
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    factor, gram = gen.gram_factor, gen.gram_product

    def apply(v):
        x = lapack.ztbtrs(factor, v, uplo="L", trans="T")[0]
        return lapack.ztbtrs(factor, adjoint(gram(forward(x))), uplo="L")[0]

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
    ``spectrum`` holds the generator's eigenvalues the cutoff was taken from.
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


def _winding_number(f, rects: list[Rectangle]) -> list[int]:
    """Winding numbers of f along the boundaries of ``rects``.

    Each boundary gets a trapezoid walk, refined until every phase increment
    is below pi/2 and the total stabilizes at an integer within 1e-3.  A root
    on (or next to) a boundary never satisfies the phase criterion, so the
    per-side sample count is capped at WINDING_MAX_SAMPLES rather than
    refined indefinitely.  Each refinement halves the step, a power of two,
    so the previous samples are reused exactly and only the midpoints are
    evaluated.  The walks advance together: their first samples are one call
    of f, and each refinement round is one call for the midpoints of every
    walk still open.  A round takes the phase steps, their largest size and
    their total for all its walks in a few whole-array calls; each walk
    then keeps its own stop rule, cap and errors, and the first round in
    which a walk fails raises, for the first such rectangle in list order.
    """
    corners = np.array([[complex(r.re_min, r.im_min), complex(r.re_max, r.im_min),
                         complex(r.re_max, r.im_max), complex(r.re_min, r.im_max)]
                        for r in rects])
    start, side = corners[..., None], (corners[:, [1, 2, 3, 0]] - corners)[..., None]
    n = WINDING_MIN_SAMPLES
    vals = f(start + np.arange(n) * (side / n))  # (walk, side, sample)
    counts: list[int] = [0] * len(rects)
    prev: list[float | None] = [None] * len(rects)
    walks = list(range(len(rects)))  # rectangle of each row of vals
    while True:
        rings = vals.reshape(len(walks), -1)
        usable = rings.all(axis=1) & np.isfinite(rings).all(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):  # unusable rows raise
            dargs = np.angle(np.roll(rings, -1, axis=1) / rings)
        steep = np.abs(dargs).max(axis=1) > 0.5 * math.pi
        totals = dargs.sum(axis=1) / (2.0 * math.pi)
        del dargs  # not held through the next call of f
        going = []  # rows of vals whose walk refines again
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
                    continue
                prev[i] = total
            going.append(row)
        if not going:
            return counts
        n *= 2
        if n > WINDING_MAX_SAMPLES:
            raise RootEnumerationError(
                "winding number did not stabilize; the region boundary is too "
                "close to a root")
        walks = [walks[row] for row in going]
        refined = np.empty((len(walks), 4, n), dtype=complex)
        refined[..., 0::2] = vals[going]
        refined[..., 1::2] = f(start[walks] + np.arange(1, n, 2) * (side[walks] / n))
        vals = refined


def _newton(f, seeds: list[complex],
            rects: list[Rectangle]) -> list[tuple[complex, float] | None]:
    """Newton refinement from each seed, with a central-difference derivative,
    confined near its rectangle.

    A run stops at |f| below ROOT_RESIDUAL_TOL, at a negligible step or after
    NEWTON_MAX_ITER steps; the last two accept the final point only if |f| is
    that small there.  The runs step in lockstep: each iteration is one call
    of f at z and z +- h of every open run and at the final point of every
    run that stopped in the iteration before.
    """
    z = list(seeds)
    bound = [4.0 * max(r.re_max - r.re_min, r.im_max - r.im_min) for r in rects]
    center = [complex((r.re_min + r.re_max) / 2, (r.im_min + r.im_max) / 2)
              for r in rects]
    steps = [0] * len(z)
    out: list[tuple[complex, float] | None] = [None] * len(z)
    runs, last = list(range(len(z))), []  # open runs; runs owing a final value
    while runs or last:
        hs = [1e-7 * (1.0 + abs(z[i])) for i in runs]
        pts = [w for i, h in zip(runs, hs) for w in (z[i], z[i] + h, z[i] - h)]
        vals = f(np.array(pts + [z[i] for i in last])).tolist()
        for i, fz in zip(last, vals[len(pts):]):
            out[i] = (z[i], abs(fz)) if abs(fz) < ROOT_RESIDUAL_TOL else None
        going, last = [], []
        for j, (i, h) in enumerate(zip(runs, hs)):
            fz, fp, fm = vals[3 * j:3 * j + 3]
            if not cmath.isfinite(fz):
                continue
            if abs(fz) < ROOT_RESIDUAL_TOL:
                out[i] = (z[i], abs(fz))
                continue
            df = (fp - fm) / (2.0 * h)
            if df == 0.0 or not cmath.isfinite(df):
                continue
            dz = fz / df
            z[i] = z[i] - dz
            if abs(z[i] - center[i]) > bound[i]:
                continue
            steps[i] += 1
            if abs(dz) < 5e-16 * (1.0 + abs(z[i])) or steps[i] == NEWTON_MAX_ITER:
                last.append(i)
            else:
                going.append(i)
        runs = going
    return out


def _seeds(rect: Rectangle) -> list[complex]:
    """Newton seeds of a rectangle, in the order they are tried: the centre,
    then the four quarter points."""
    seeds = [complex((rect.re_min + rect.re_max) / 2,
                     (rect.im_min + rect.im_max) / 2)]
    seeds += [complex(rect.re_min + sr * (rect.re_max - rect.re_min),
                      rect.im_min + si * (rect.im_max - rect.im_min))
              for sr in (0.25, 0.75) for si in (0.25, 0.75)]
    return seeds


def _split(f, rects: list[Rectangle]) -> list[tuple[Rectangle, Rectangle]]:
    """Each rectangle cut in two across its longer side (the real one on a
    tie), along the candidate line that keeps |f| largest.

    Avoids cutting through a root, which would make the sub-contours
    unusable.  The candidate lines of all rectangles are evaluated in one
    call; ties go to the earlier candidate, the centre first.
    """
    cuts, grids = [], []
    for r in rects:
        vertical = (r.re_max - r.re_min) >= (r.im_max - r.im_min)
        lo, hi, span = ((r.re_min, r.re_max, (r.im_min, r.im_max)) if vertical
                        else (r.im_min, r.im_max, (r.re_min, r.re_max)))
        ts = np.linspace(span[0], span[1], 33)
        ms = lo + np.array([0.5, 0.46, 0.54, 0.42, 0.58, 0.38, 0.62]) * (hi - lo)
        grids.append(ms[:, None] + 1j * ts if vertical else ts + 1j * ms[:, None])
        cuts.append((ms, vertical))
    clear = np.abs(f(np.array(grids))).min(axis=2)
    parts = []
    for r, (ms, vertical), c in zip(rects, cuts, clear):
        m = float(ms[np.argmax(c)])
        parts.append((Rectangle(r.re_min, m, r.im_min, r.im_max),
                      Rectangle(m, r.re_max, r.im_min, r.im_max)) if vertical else
                     (Rectangle(r.re_min, r.re_max, r.im_min, m),
                      Rectangle(r.re_min, r.re_max, m, r.im_max)))
    return parts


def _enumerate(f, region: Rectangle, total: int) -> list[tuple[complex, float]]:
    """Roots in ``region``, whose winding number ``total`` the caller computed,
    found one subdivision level at a time.

    A rectangle of count 0 is dropped.  One of count 1, or one below 1e-6 on
    both sides, is refined by Newton from its seeds in turn, all runs of the
    level in lockstep, a further seed only where the one before failed or
    left the rectangle; a tiny rectangle reports its refined point ``count``
    times, and raises if no seed converges.  Every other rectangle is split,
    all of the level together, and the walks of all children give the next
    level.  Reaching level 81 raises.
    """
    found: list[tuple[complex, float]] = []
    level, depth = [(region, total)], 0
    while True:
        if depth > 80:
            raise RootEnumerationError("subdivision depth exhausted during root search")
        split, refine = [], []
        for rect, count in level:
            tiny = (rect.re_max - rect.re_min) < 1e-6 and (rect.im_max - rect.im_min) < 1e-6
            if count == 1 or (tiny and count != 0):
                refine.append((rect, count, tiny, _seeds(rect)))
            elif count != 0:
                split.append(rect)
        for k in range(5):  # the seeds in turn
            if not refine:
                break
            got = _newton(f, [seeds[k] for *_, seeds in refine], [rect for rect, *_ in refine])
            failed = []
            for item, g in zip(refine, got):
                if g is not None and item[0].contains(g[0]):
                    found += [g] * item[1]
                else:
                    failed.append(item)
            refine = failed
        for rect, count, tiny, seeds in refine:
            if tiny:
                raise RootEnumerationError(
                    f"could not refine a root cluster of winding count {count} "
                    f"near {seeds[0]}")
            split.append(rect)
        if not split:
            return found
        children = [part for pair in _split(f, split) for part in pair]
        level = list(zip(children, _winding_number(f, children)))
        depth += 1


def characteristic_roots(p: Params, region: Rectangle) -> list[CharacteristicRoot]:
    """All characteristic roots inside ``region``.

    Argument-principle winding counts enumerate the roots, one subdivision
    level at a time, Newton refines them, and the total multiplicity is
    reconciled against the winding count of the full region; disagreement
    raises :class:`RootEnumerationError`.  So does an unusable contour or
    cluster: the full region's walk is checked first, then each level in
    turn, where a tiny cluster that no seed refines raises before the walks
    of the level's children, and a walk failure raises in the first
    refinement round in which any child's walk fails.  Roots are listed by
    ascending real part; roots whose real parts agree to 1e-7*(1 + |lam|),
    such as a conjugate pair, by ascending imaginary part.
    """
    if p.law is DampingLaw.KELVIN_VOIGT and p.a > 0.0:
        pole = -1.0 / p.a
        if region.re_min <= pole <= region.re_max and region.im_min <= 0.0 <= region.im_max:
            raise SingularRegionError(
                f"Kelvin-Voigt characteristic function is singular at "
                f"lam = -1/a = {pole}; choose a region excluding that point")
    f = characteristic_function(p)
    (total,) = _winding_number(f, [region])
    raw = _enumerate(f, region, total)

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

    Bisection on c -> robin_eigenvalue(c) over an expanding negative bracket,
    to width ROBIN_BISECTION_TOL.  On the unit interval the answer is -1.
    """
    lo = -1.5
    while robin_eigenvalue(lo) >= 0.0:
        lo *= 2.0
    return _bisect(robin_eigenvalue, lo, 0.0, ROBIN_BISECTION_TOL)
