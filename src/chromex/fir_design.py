"""FIR filters that evaluate chromatic derivatives from unit-spaced samples.

The design is weighted least squares on a band-edge-clustered frequency
grid, optionally refined by Lawson iterations (iteratively reweighted
least squares, which drives the solution toward the minimax optimum).
The tap parity is imposed structurally by one basis, _design_matrix's:
cosines for even operator orders and sines for odd ones, matching the
parity of the target i^n p_n(w).  Real taps of that parity reproduce K^n
only where p_n(-w) = (-1)^n p_n(w), as in the symmetric families; for
jacobi(a, b) with a != b the misfit shows in passband_max_error.

The design matrix A is factored once, and every solve runs on that one
QR, the reported condition number included (_solve_ls); the report reads
the response on its 8001 dense frequencies from one real FFT of the taps
(_response), so its cost does not grow with the half-width.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .basis_functions import _CHUNK, kbasis_closed
from .errors import NumericError, ParameterError, UnsupportedFamilyError
from .families import FamilyId, family_spec, parse_family, require_finite
from .orthopoly import eval_p_grid


@dataclass(frozen=True)
class FirFilter:
    family: FamilyId
    operator_order: int
    half_width: int
    taps: np.ndarray          # c_{-N} .. c_{N}
    passband_edge: float
    stopband_edge: float

    def __post_init__(self):  # checked wherever it is built: design_ls, load_filter or by hand
        for name in ("operator_order", "half_width"):  # int() would read 2.7 as 2 and true as 1
            value = getattr(self, name)
            if not _integral(value):
                raise ParameterError(f"{name} {value!r} is not an integer")
        N = self.half_width
        if N < 1:
            raise ParameterError(f"half_width {N} is below 1")
        if np.size(self.taps) != 2 * N + 1:
            raise ParameterError(f"{np.size(self.taps)} taps, not 2*half_width+1 = {2 * N + 1}")
        if not np.all(np.isfinite(self.taps)):
            raise ParameterError("non-finite taps")
        _check_edges(self.passband_edge, self.stopband_edge)

    def tap(self, k: int) -> float:
        if not _integral(k):
            raise ParameterError(f"tap index {k!r} is not an integer")
        if abs(k) > self.half_width:
            raise ParameterError(f"tap {k} outside -{self.half_width}..{self.half_width}")
        return float(self.taps[self.half_width + k])


@dataclass(frozen=True)
class DesignReport:
    passband_max_error: float
    stopband_max_magnitude: float
    grid_size: int
    condition_number: float
    passband_median_relative_error: float


def _integral(value):
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_edges(passband_edge, stopband_edge):
    if not 0.0 < passband_edge < stopband_edge <= math.pi:
        raise ParameterError("need 0 < passband_edge < stopband_edge <= pi")


def _design_matrix(omegas, n, half_width):
    """The parity basis of K^n's taps c_0 and c_{+-k}, k = 1..half_width, at frequencies
    omegas, written into one array: a column of ones for c_0 (even n only), then 2 cos(w k)
    for even n or 2 sin(w k) for odd n, matching the parity of i^n p_n(w)."""
    A = np.empty((omegas.size, half_width + 1 - n % 2))
    A[:, :1 - n % 2] = 1.0
    trig = A[:, 1 - n % 2 :]
    np.multiply.outer(omegas, np.arange(1, half_width + 1), out=trig)
    (np.sin if n % 2 else np.cos)(trig, out=trig)
    trig *= 2.0
    return A


def _target_values(spec, n, omegas, target):
    if target == "operator":
        vals = eval_p_grid(spec, n, omegas)[n]
    elif target == "monomial":
        vals = (omegas / math.pi) ** n
    else:
        raise ParameterError(f"unknown target {target!r}")
    # real projection of i^n vals: i^n is (-1)^(n//2), times i for odd n
    return (-1.0) ** (n // 2) * vals


_DENSE = 8000  # the report reads the response at j pi / _DENSE, j = 0.._DENSE


def _response(taps, n):
    """H(w_j) = sum_k c_k e^{i k w_j} at w_j = j pi / _DENSE, in the parity basis.
    rfft gives the conjugate of H, which is real for even n and i times the
    sine sum for odd n."""
    half_width = taps.size // 2
    x = np.zeros(2 * _DENSE)
    np.add.at(x, np.arange(-half_width, half_width + 1) % x.size, taps)  # c_k at k mod 2 _DENSE
    X = np.fft.rfft(x)
    return X.real if n % 2 == 0 else -X.imag


def _design_grid(half_width, passband_edge, stopband_edge, grid_density):
    total = grid_density * (2 * half_width + 1)
    npass = max(int(total * 0.85), 8)
    nstop = max(total - npass, 8)
    # cosine clustering concentrates points at band edges
    om_pass = passband_edge * 0.5 * (1.0 - np.cos(np.linspace(0, math.pi, npass)))
    om_stop = stopband_edge + (math.pi - stopband_edge) * 0.5 * (
        1.0 - np.cos(np.linspace(0, math.pi, nstop))
    )
    omegas = np.concatenate([om_pass, om_stop])
    in_pass = np.concatenate([np.ones(npass, bool), np.zeros(nstop, bool)])
    return omegas, in_pass


def _check_rank(sv, m, n):
    """Refuse an m x n system with a singular value in sv below eps max(m, n) sv_max,
    the default rank threshold of numpy's least squares."""
    rank = int(np.count_nonzero(sv > np.finfo(float).eps * max(m, n) * sv[0]))
    if rank < n:
        raise NumericError(f"ill-conditioned design system (rank {rank} of {n})")


def _solve_ls(A, tgt, w, iterations):
    """The coefficients c of the weighted least-squares fit A c ~ tgt after
    `iterations` Lawson updates of the weights w, and the condition number of
    the last weighted system W^1/2 A.  A is overwritten.

    A is factored once, A = QR, and B = A R^-1 spans range(A) with orthonormal
    columns to rounding.  Every solve, the first, each reweighting and the last,
    is the (h+1)-square system (B^T W B) y = B^T W tgt, whose residual B y - tgt
    is A's; c = R^-1 y, by the R^-1 that formed B, so A c is B y.  With
    L = chol(B^T W B), (W^1/2 A)^T (W^1/2 A) = (L^T R)^T (L^T R), so L^T R has
    the weighted singular values.
    """
    m, n = A.shape
    R = np.empty((0, n))
    for s in range(0, m, _CHUNK):  # R of A = QR, _CHUNK rows at a time: qr copies its argument
        R = np.linalg.qr(np.vstack([R, A[s : s + _CHUNK]]), mode="r")
    _check_rank(np.linalg.svd(R, compute_uv=False), m, n)  # R's singular values are A's
    Rinv = np.linalg.inv(R)
    for s in range(0, m, _CHUNK):  # B = A R^-1 overwrites A, _CHUNK rows at a time
        A[s : s + _CHUNK] = A[s : s + _CHUNK] @ Rinv
    B = A
    Bs = np.empty((min(m, _CHUNK), n))
    for it in range(iterations + 1):
        sw = np.sqrt(w)[:, None]
        G = np.zeros((n, n))
        for s in range(0, m, _CHUNK):  # B^T W B, _CHUNK weighted rows at a time
            bs = np.multiply(B[s : s + _CHUNK], sw[s : s + _CHUNK], out=Bs[: m - s])
            G += bs.T @ bs
        try:
            y = np.linalg.solve(G, B.T @ (w * tgt))
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"Lawson iteration {it + 1}: {exc}") from exc
        if not np.all(np.isfinite(y)):
            raise NumericError(f"Lawson iteration {it + 1} has a non-finite solution")
        if it < iterations:
            r = np.abs(B @ y - tgt)
            w = w * (r + 1e-3 * r.max())
            w *= m / w.sum()
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"the final weighted system: {exc}") from exc
    sv = np.linalg.svd(L.T @ R, compute_uv=False)
    _check_rank(sv, m, n)
    return Rinv @ y, float(sv[0] / sv[-1])


def design_ls(family, n: int, half_width: int,
              passband_edge: float = 0.9 * math.pi,
              stopband_edge: float = 0.98 * math.pi,
              grid_density: int = 16,
              weight_ratio: float = 10.0,
              refine_iterations: int = 8,
              target: str = "operator"):
    """Design taps for K^n (or the monomial contrast target (w/pi)^n).

    Returns (FirFilter, DesignReport).  weight_ratio is the stopband
    weight relative to the passband; refine_iterations Lawson
    reweightings follow the initial least-squares solve.
    """
    spec = family_spec(family)
    if spec.support != "[-pi, pi]":
        raise UnsupportedFamilyError(
            f"{spec.tag} support is not contained in [-pi, pi]"
        )
    if n < 0 or half_width < 1:
        raise ParameterError("need n >= 0 and half_width >= 1")
    if n > 2 * half_width:
        raise ParameterError(f"operator order n={n} exceeds 2*half_width={2*half_width}")
    _check_edges(passband_edge, stopband_edge)
    if grid_density < 1:
        raise ParameterError(f"need grid_density >= 1, got {grid_density}")
    if not (math.isfinite(weight_ratio) and weight_ratio > 0):
        raise ParameterError(f"need a finite weight_ratio > 0, got {weight_ratio}")
    if refine_iterations < 0:
        raise ParameterError(f"need refine_iterations >= 0, got {refine_iterations}")

    omegas, in_pass = _design_grid(half_width, passband_edge, stopband_edge, grid_density)
    tgt = np.where(in_pass, _target_values(spec, n, omegas, target), 0.0)
    w = np.where(in_pass, 1.0, float(weight_ratio))

    coef, cond = _solve_ls(_design_matrix(omegas, n, half_width), tgt, w, refine_iterations)

    c0 = coef[0] if n % 2 == 0 else 0.0
    taps = np.r_[(-1.0) ** n * coef[: -half_width - 1 : -1], c0, coef[-half_width:]]
    filt = FirFilter(spec.id, n, half_width, taps, passband_edge, stopband_edge)

    dense = np.linspace(0.0, math.pi, _DENSE + 1)
    dpass = dense <= passband_edge
    dstop = dense >= stopband_edge
    td = _target_values(spec, n, dense, target)
    H = _response(taps, n)
    err = np.abs(H - td)
    nonzero = dpass & (np.abs(td) > 1e-300)
    rel_median = float(np.median(err[nonzero] / np.abs(td[nonzero]))) if nonzero.any() else np.inf
    report = DesignReport(
        passband_max_error=float(err[dpass].max()),
        stopband_max_magnitude=float(np.abs(H[dstop]).max()),
        grid_size=int(omegas.size),
        condition_number=cond,
        passband_median_relative_error=rel_median,
    )
    return filt, report


def transfer_function(filt: FirFilter, omega):
    """H(w) = sum_k c_k e^{i w k}; omega scalar or array."""
    om = require_finite(np.asarray(omega, dtype=float), "omega")
    ks = np.arange(-filt.half_width, filt.half_width + 1)
    H = np.exp(1j * np.multiply.outer(om, ks)) @ filt.taps
    return complex(H) if om.ndim == 0 else H


def apply_filter(filt: FirFilter, samples, t: int):
    """sum_k c_k samples[t+k]; samples indexed 0..len-1, unit spacing."""
    if not _integral(t):  # a float index would fail the slice, and True would read as 1
        raise ParameterError(f"sample index {t!r} is not an integer")
    samples = np.asarray(samples)
    N = filt.half_width
    if t - N < 0 or t + N >= samples.size:
        raise ParameterError(
            f"index {t} needs samples on [{t-N}, {t+N}] but 0..{samples.size-1} given"
        )
    window = samples[t - N : t + N + 1]
    out = np.add.reduce(filt.taps * window)
    return complex(out) if samples.dtype.kind == "c" else float(out)


def shannon_decay_report(n: int, t: float, m_range: int):
    """Rows (m, |K^n[sinc](t - m)|) for |m| <= m_range (Legendre family).

    Documents the O(1/|m|) decay that makes evaluating chromatic
    derivatives by differentiating the Shannon expansion impractical.
    """
    ms = np.arange(-m_range, m_range + 1)
    ks = np.abs(kbasis_closed("legendre", n, t - ms))
    return [(int(m), k) for m, k in zip(ms, ks)]


# ---------------------------------------------------------------------------
# serialization

FILTER_FORMAT_VERSION = 1


def save_filter(filt: FirFilter, path: str) -> None:
    doc = {
        "format_version": FILTER_FORMAT_VERSION,
        "family": str(filt.family),
        "operator_order": filt.operator_order,
        "half_width": filt.half_width,
        "passband_edge": f"{filt.passband_edge:.17g}",
        "stopband_edge": f"{filt.stopband_edge:.17g}",
        "taps": [f"{c:.17g}" for c in filt.taps],
    }
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def load_filter(path: str) -> FirFilter:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format_version") != FILTER_FORMAT_VERSION:
        raise ParameterError(f"{path} is not a filter file of format version {FILTER_FORMAT_VERSION}")
    try:
        return FirFilter(
            family=parse_family(doc["family"]),
            operator_order=doc["operator_order"],
            half_width=doc["half_width"],
            taps=np.array([float(c) for c in doc["taps"]]),
            passband_edge=float(doc["passband_edge"]),
            stopband_edge=float(doc["stopband_edge"]),
        )
    except (KeyError, TypeError, AttributeError) as exc:  # AttributeError: a family that is no string
        raise ParameterError(f"filter file {path} lacks or mistypes {exc}") from exc
    except ParameterError as exc:  # the file parsed, and FirFilter or parse_family refused it
        raise ParameterError(f"filter file {path}: {exc}") from exc
