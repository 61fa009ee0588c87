"""Moment functionals: recursion coefficients, the forward recurrence,
moments and Gauss quadrature.

Eight families are supported.  Each is defined by the recursion
coefficients (gamma_n, beta_n) of its orthonormal polynomials

    p_{n+1}(w) = ((w + beta_n)/gamma_n) p_n(w) - (gamma_{n-1}/gamma_n) p_{n-1}(w)

with p_{-1} = 0, gamma_{-1} = 1, together with the moments mu_k of the
normalized measure (mu_0 = 1).  The symmetric tridiagonal Jacobi matrix
(diagonal -beta_n, off-diagonal gamma_n) encodes multiplication by w and
supplies both a moment oracle and Gauss quadrature.

Sign convention: the Jacobi matrix diagonal entry n is -beta_n.  For the
Laguerre family beta_n = -(2n+1), so the diagonal is +(2n+1), matching the
classical Laguerre operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import NumericError, ParameterError, UnsupportedFamilyError

FAMILY_TAGS = (
    "legendre",
    "chebyshev_t",
    "chebyshev_u",
    "gegenbauer",
    "jacobi",
    "hermite",
    "laguerre",
    "herron",
)

_SYMMETRIC = frozenset(
    ("legendre", "chebyshev_t", "chebyshev_u", "gegenbauer", "hermite", "herron")
)

PI_LD = np.longdouble("3.141592653589793238462643383279502884")
_COEFF_BLOCK = 4096  # orders per array expression, so 80-bit temporaries stay small


@dataclass(frozen=True)
class FamilyId:
    """A family tag plus its parameters (gegenbauer: a; jacobi: a, b)."""

    tag: str
    a: float | None = None
    b: float | None = None

    def __post_init__(self):
        if self.tag not in FAMILY_TAGS:
            raise ParameterError(f"unknown family tag {self.tag!r}")
        if self.tag == "gegenbauer":
            if self.a is None or not (-0.5 < self.a < math.inf) or self.a == 0.0:
                raise ParameterError("gegenbauer requires a finite a > -1/2 and a != 0")
        elif self.tag == "jacobi":
            if self.a is None or self.b is None or not (-1.0 < self.a < math.inf and -1.0 < self.b < math.inf):
                raise ParameterError("jacobi requires finite a > -1 and b > -1")
        elif self.a is not None or self.b is not None:
            raise ParameterError(f"family {self.tag!r} takes no parameters")
        for name in ("a", "b"):  # -0.0 + 0.0 is +0.0: one spelling, one cache key, one name
            if getattr(self, name) is not None:
                object.__setattr__(self, name, getattr(self, name) + 0.0)

    def __str__(self):
        if self.tag == "gegenbauer":
            return f"gegenbauer({self.a:g})"
        if self.tag == "jacobi":
            return f"jacobi({self.a:g},{self.b:g})"
        return self.tag


def parse_family(text: str) -> FamilyId:
    """Parse identifiers like ``legendre`` or ``jacobi(0.5,-0.25)``."""
    text = text.strip().lower()
    if "(" in text:
        if not text.endswith(")"):
            raise ParameterError(f"malformed family string {text!r}")
        tag, args = text[:-1].split("(", 1)
        parts = [p.strip() for p in args.split(",") if p.strip()]
        try:
            vals = [float(p) for p in parts]
        except ValueError as exc:
            raise ParameterError(f"malformed family parameters in {text!r}") from exc
        if tag == "gegenbauer" and len(vals) == 1:
            return FamilyId("gegenbauer", a=vals[0])
        if tag == "jacobi" and len(vals) == 2:
            return FamilyId("jacobi", a=vals[0], b=vals[1])
        raise ParameterError(f"wrong parameter count for {tag!r}")
    return FamilyId(text)


@dataclass(frozen=True)
class FamilySpec:
    """A family plus the metadata the rest of the library consults."""

    id: FamilyId
    symmetric: bool
    growth_exponent: float          # p in the weak-boundedness definition
    support: str
    rho: float

    @property
    def tag(self):
        return self.id.tag

    def __str__(self):
        return str(self.id)


def family_spec(family) -> FamilySpec:
    """Build a FamilySpec from a FamilyId, tag string, or pass one through."""
    if isinstance(family, FamilySpec):
        return family
    return _spec_of(family if isinstance(family, FamilyId) else str(family))


@lru_cache(maxsize=64)
def _spec_of(family) -> FamilySpec:
    """family_spec of a FamilyId or a string, parsed and built once per key."""
    fid = family if isinstance(family, FamilyId) else parse_family(family)
    tag = fid.tag
    # jacobi(a, a) has gegenbauer(a + 1/2)'s measure
    symmetric = tag in _SYMMETRIC or (tag == "jacobi" and fid.a == fid.b)
    if tag in ("legendre", "chebyshev_t", "chebyshev_u", "gegenbauer", "jacobi"):
        p, support, rho = 0.0, "[-pi, pi]", 0.0
    elif tag == "hermite":
        p, support, rho = 0.5, "real line", 0.0
    elif tag == "laguerre":
        p, support, rho = 1.0, "half line", 1.0
    else:  # herron
        p, support, rho = 1.0, "real line", 2.0 / math.pi
    return FamilySpec(fid, symmetric, p, support, rho)


def _gamma_beta_ld(spec: FamilySpec, nn: np.ndarray):
    """(gamma_n, beta_n) in extended precision for a longdouble array of orders."""
    tag = spec.tag
    zero = np.zeros_like(nn)
    if tag == "legendre":
        return PI_LD * (nn + 1) / np.sqrt(4 * (nn + 1) ** 2 - 1), zero
    if tag == "chebyshev_t":
        return np.where(nn == 0, PI_LD / np.sqrt(np.longdouble(2.0)), PI_LD / 2), zero
    if tag == "chebyshev_u":
        return np.full_like(nn, PI_LD / 2), zero
    if tag == "gegenbauer":
        a = np.longdouble(spec.id.a)
        return PI_LD / 2 * np.sqrt((nn + 1) * (nn + 2 * a) / ((nn + a) * (nn + a + 1))), zero
    if tag == "jacobi":
        a, b = np.longdouble(spec.id.a), np.longdouble(spec.id.b)
        s = 2 * nn + a + b
        # at n = 0 the printed forms are 0/0 if a+b+1 = 0 (gamma) or a+b = 0 (beta)
        with np.errstate(invalid="ignore", divide="ignore"):
            g = 2 * PI_LD / (s + 2) * np.sqrt(
                (nn + 1) * (nn + a + 1) * (nn + b + 1) * (nn + a + b + 1) / ((s + 1) * (s + 3)))
            beta = PI_LD * (a - b) * (a + b) / ((s + 2) * s)
        g0 = 2 * PI_LD / (a + b + 2) * np.sqrt((a + 1) * (b + 1) / (a + b + 3))
        g = np.where((nn == 0) & (a + b + 1 == 0), g0, g)
        return g, np.where(nn == 0, PI_LD * (a - b) / (a + b + 2), beta)
    if tag == "hermite":
        return np.sqrt((nn + 1) / 2), zero
    if tag == "laguerre":
        return nn + 1, -(2 * nn + 1)
    return nn + 1, zero  # herron


def recursion_coefficients(family, n: int):
    """(gamma_n, beta_n) as floats; gamma_n > 0 for every n >= 0."""
    spec = family_spec(family)
    require_nonnegative(n, "n")
    g, b = _gamma_beta_ld(spec, np.array([n], dtype=np.longdouble))
    return float(g[0]), float(b[0])


@lru_cache(maxsize=16)
def _first_block(family: FamilyId, dt):
    """gamma_n and beta_n, n < _COEFF_BLOCK, in dtype dt, read-only: the formulas
    are elementwise, so every horizon's prefix is these bits."""
    nn = np.arange(_COEFF_BLOCK, dtype=np.longdouble)
    gam, bet = np.array(_gamma_beta_ld(family_spec(family), nn), dtype=dt)
    gam.flags.writeable = bet.flags.writeable = False
    return gam, bet


def gamma_beta_arrays(family, horizon: int, longdouble: bool = False):
    """gamma_0..gamma_horizon and beta_0..beta_horizon as arrays."""
    spec = family_spec(family)
    dt = np.longdouble if longdouble else np.float64
    gam0, bet0 = _first_block(spec.id, dt)
    if 0 <= horizon + 1 <= _COEFF_BLOCK:
        return gam0[: horizon + 1].copy(), bet0[: horizon + 1].copy()
    gam = np.empty(horizon + 1, dtype=dt)
    bet = np.empty(horizon + 1, dtype=dt)
    gam[:_COEFF_BLOCK], bet[:_COEFF_BLOCK] = gam0, bet0
    for lo in range(_COEFF_BLOCK, horizon + 1, _COEFF_BLOCK):
        nn = np.arange(lo, min(lo + _COEFF_BLOCK, horizon + 1), dtype=np.longdouble)
        gam[lo : lo + nn.size], bet[lo : lo + nn.size] = _gamma_beta_ld(spec, nn)
    return gam, bet


def three_term(gam, bet, x) -> np.ndarray:
    """p_0..p_{len(gam)-1} at x, a float or a float64 array (then one row
    per order), by the forward recurrence from p_{-1} = 0, p_0 = 1; at a
    float, by _recur."""
    out = np.empty(gam.shape + np.shape(x))
    out[0] = 1.0
    if not np.ndim(x):
        _recur(gam, bet, (float(x),), _p_steps, (0.0, 1.0), (out,))
        return out
    p_prev, p, g_prev = np.zeros_like(x), np.ones_like(x), 1.0
    for j, g, b in zip(range(1, len(gam)), memoryview(gam[:-1]), memoryview(bet)):
        p_prev, p = p, ((x + b) * p - g_prev * p_prev) / g
        out[j] = p
        g_prev = g
    return out


def three_term_pair(gam, bet, x: float, y: float):
    """(three_term(gam, bet, x), three_term(gam, bet, y)) from one loop."""
    rows = np.ones(len(gam)), np.ones(len(gam))
    _recur(gam, bet, (x, y), _pair_steps, (0.0, 1.0, 0.0, 1.0), rows)
    return rows


def three_term_ends(gam, bet, x: float, y: float):
    """(p_{n-1}(x), p_n(x), p_{n-1}(y), p_n(y)), n = len(gam) - 1 >= 1, keeping no array of n."""
    return _recur(gam, bet, (x, y), _ends_steps, (0.0, 1.0, 0.0, 1.0))


def three_term_jet_ends(gam, bet, x: float):
    """(p_{n-1}, p_n, p'_{n-1}, p'_n) at x, n = len(gam) - 1 >= 1, keeping no array of n."""
    return _recur(gam, bet, (x,), _jet_ends_steps, (0.0, 1.0, 0.0, 0.0))


_HEAD = 4096        # orders up to this run on the float loops, bit for bit at every length
_BLOCK = 64         # orders per lane
_LANES = 256        # blocks per chunk, so the lane buffers stay a few hundred kB
_MIN_BLOCKS = 64    # below this many whole blocks past the head, the float loop is as fast (measured)


def _recur(gam, bet, xs, steps, state, rows=None):
    """The state at order n = len(gam) - 1 from the state at order 0, for the floats xs.

    steps, one of the float loops below, runs orders 1.._HEAD and the last partial
    block; _lanes runs the whole blocks between, _LANES at a time, and below _MIN_BLOCKS
    of them steps runs every order.  Where rows are given, orders 1..n are stored there.
    An overflow stays inf or NaN at every later step, so the end values show it."""
    n = len(gam) - 1
    nblocks = (n - _HEAD) // _BLOCK
    if nblocks < _MIN_BLOCKS:
        return steps(gam, bet, xs, 0, n, state, rows)
    mid = _HEAD + nblocks * _BLOCK
    state = steps(gam, bet, xs, 0, _HEAD, state, rows)
    with np.errstate(over="ignore", invalid="ignore"):  # silent, as Python floats overflow
        for s in range(_HEAD, mid, _LANES * _BLOCK):
            state = _lanes(gam, bet, xs, s, min(_LANES, (mid - s) // _BLOCK), state, rows)
    return steps(gam, bet, xs, mid, n, state, rows)


# The float loops: orders lo + 1..hi from the state at lo, on Python floats through
# memoryviews, several times faster than numpy scalars.  Each runs three_term's step,
# operand for operand, so their values are its bits.

def _p_steps(gam, bet, xs, lo, hi, state, rows):
    """p at x; stored in rows[0]."""
    (x,), (p_prev, p), out = xs, state, memoryview(rows[0])
    g_prev = float(gam[lo - 1]) if lo else 1.0
    for j, g, b in zip(range(lo + 1, hi + 1), memoryview(gam[lo:hi]), memoryview(bet[lo:hi])):
        p_prev, p = p, ((x + b) * p - g_prev * p_prev) / g
        out[j] = p
        g_prev = g
    return p_prev, p


def _pair_steps(gam, bet, xs, lo, hi, state, rows):
    """p at x and at y; stored in rows[0] and rows[1]."""
    (x, y), (px_prev, px, py_prev, py), out_x, out_y = xs, state, memoryview(rows[0]), memoryview(rows[1])
    g_prev = float(gam[lo - 1]) if lo else 1.0
    for j, g, b in zip(range(lo + 1, hi + 1), memoryview(gam[lo:hi]), memoryview(bet[lo:hi])):
        px_prev, px = px, ((x + b) * px - g_prev * px_prev) / g
        py_prev, py = py, ((y + b) * py - g_prev * py_prev) / g
        out_x[j], out_y[j], g_prev = px, py, g
    return px_prev, px, py_prev, py


def _ends_steps(gam, bet, xs, lo, hi, state, rows):
    """p at x and at y, stored nowhere."""
    (x, y), (px_prev, px, py_prev, py) = xs, state
    g_prev = float(gam[lo - 1]) if lo else 1.0
    for g, b in zip(memoryview(gam[lo:hi]), memoryview(bet[lo:hi])):
        px_prev, px = px, ((x + b) * px - g_prev * px_prev) / g
        py_prev, py, g_prev = py, ((y + b) * py - g_prev * py_prev) / g, g
    return px_prev, px, py_prev, py


def _jet_ends_steps(gam, bet, xs, lo, hi, state, rows):
    """p and p' at x, stored nowhere."""
    (x,), (p_prev, p, d_prev, d) = xs, state
    g_prev = float(gam[lo - 1]) if lo else 1.0
    for g, b in zip(memoryview(gam[lo:hi]), memoryview(bet[lo:hi])):
        d_prev, d = d, (p + (x + b) * d - g_prev * d_prev) / g
        p_prev, p, g_prev = p, ((x + b) * p - g_prev * p_prev) / g, g
    return p_prev, p, d_prev, d


def _lanes(gam, bet, xs, s, nb, state, rows):
    """The state at order s + nb _BLOCK from the state at s, for the floats xs:
    (p_{s-1}, p_s) per x, or (p_{s-1}, p_s, p'_{s-1}, p'_s) at one x.  Where rows are
    given, the state is p alone, and rows get p per x at the orders between.

    Each of the nb blocks of _BLOCK orders, from its order t, runs as numpy lanes from
    two starts: (p_{t-1}, p_t) = (1, -1) gives U, (1, 1) gives V, and U', V' (d/dx)
    run from 0.  _join then gives p_{t+i} = a U_i + c V_i, with (a, c) =
    (p_{t-1} - p_t, p_{t-1} + p_t) / 2, and p'_{t+i} = a U'_i + c V'_i + e U_i + f V_i,
    with (e, f) likewise from p'.  The unit starts (1, 0), (0, 1) would cancel about
    64-fold in a U + c V: Laguerre's step tends to a Jordan block with eigenvector
    (1, -1), and at a band edge it is (1, +-1)."""
    width = len(state) // len(xs)
    starts = np.array([[1.0, 1.0, 0.0, 0.0], [-1.0, 1.0, 0.0, 0.0]])[:, None, :width, None]

    def cols(a, at):  # entry [i, k] is order at + k _BLOCK + i of a
        return a[at : at + nb * _BLOCK].reshape(nb, _BLOCK).T

    # step i: xb[i] is (len(xs), 1, nb), the lanes (len(xs), width, nb)
    xb = cols(bet, s)[:, None, None, :] + np.array(xs)[:, None, None]
    g, g_prev = cols(gam, s), cols(gam, s - 1)
    store = None if rows is None else np.empty((_BLOCK, len(xs), width, nb))
    prev, cur = starts.repeat(nb, axis=3)
    for i in range(_BLOCK):
        new = np.multiply(xb[i], cur, out=None if store is None else store[i])
        if width == 4:
            new[:, 2:] += cur[:, :2]
        new -= g_prev[i] * prev
        new /= g[i]
        prev, cur = cur, new
    coef = []
    ends = np.concatenate([prev[:, :2], cur[:, :2], prev[:, 2:], cur[:, 2:]], axis=1)
    state = sum((_join(state[q * width : q * width + width], e, coef) for q, e in enumerate(ends)), ())
    if store is None:
        return state
    # p = a U + c V, in place
    for q, (a, c) in enumerate(np.array(coef).reshape(len(xs), nb, 2).transpose(0, 2, 1)):
        p, t = store[:, q, 0], store[:, q, 1]
        p *= a
        t *= c
        p += t
        cols(rows[q], s + 1)[:] = p
    return state


def _join(state, ends, coef):
    """_lanes' float loop over the blocks at one x: the state after each block, from the
    lanes' last two orders (U, V, then U', V'); each block's a, c (e, f) go to coef."""
    for u_prev, v_prev, u, v, *d_ends in zip(*map(memoryview, ends)):
        p_prev, p, *d_state = state
        a, c = (p_prev - p) * 0.5, (p_prev + p) * 0.5
        state = a * u_prev + c * v_prev, a * u + c * v
        coef += a, c
        if d_state:
            (d_prev, d), (du_prev, dv_prev, du, dv) = d_state, d_ends
            e, f = (d_prev - d) * 0.5, (d_prev + d) * 0.5
            state += a * du_prev + c * dv_prev + e * u_prev + f * v_prev, a * du + c * dv + e * u + f * v
            coef += e, f
    return state


def require_nonnegative(n: int, name: str = "N") -> int:
    if n < 0:
        raise ParameterError(f"{name} must be nonnegative")
    return n


def require_finite(x, name: str):
    """x, once checked finite: a NaN or infinite argument is a ParameterError naming it."""
    if not np.isfinite(x).all():
        raise ParameterError(f"non-finite argument; {name} must be finite")
    return x


def jacobi_matrix(family, dimension: int) -> np.ndarray:
    """The truncated Jacobi matrix: -beta_n on the diagonal, gamma_n beside it."""
    if dimension < 1:
        raise ParameterError("dimension must be positive")
    gam, bet = gamma_beta_arrays(family, dimension - 1)
    J = np.diag(-bet)
    J += np.diag(gam[: dimension - 1], 1) + np.diag(gam[: dimension - 1], -1)
    return J


@lru_cache(maxsize=None)
def euler_numbers(nmax: int):
    """E_0..E_nmax as exact integers (odd indices are zero), by Seidel's boustrophedon: each row
    is the running sums of the one before, reversed, and row k ends in the zigzag number A_k,
    with E_2n = (-1)^n A_2n.  That is O(nmax^2) additions, no products."""
    E, row = [1], [1]
    for k in range(1, nmax + 1):
        row = list(accumulate(reversed(row), initial=0))
        E.append(0 if k % 2 else (-1) ** (k // 2) * row[-1])
    return tuple(E)


def moment_analytic(family, k: int) -> float:
    """mu_k from the closed forms of moment_over_factorial_ld; gegenbauer/jacobi have none."""
    spec = family_spec(family)
    require_nonnegative(k, "k")
    if spec.tag in ("gegenbauer", "jacobi"):
        raise UnsupportedFamilyError(
            f"{spec.tag} has no closed moment form; use moment_jacobi_matrix"
        )
    if k % 2 and spec.symmetric:  # _finite_moment's 0.0, before herron's E_k is computed
        return 0.0
    return _finite_moment(spec, k, moment_over_factorial_ld(spec, k)[k])


def _finite_moment(spec, k: int, over_factorial: np.longdouble) -> float:
    """mu_k = k! (mu_k / k!) in 80-bit, refused past float64.  Only a symmetric measure's
    odd moment is 0.0: any other zero mu_k / k! has underflowed 80-bit, and past k = 1754,
    where k! overflows 80-bit, it gives inf * 0 = nan."""
    if k % 2 and spec.symmetric:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # both are refused below
        mu = float(np.prod(np.arange(1, k + 1, dtype=np.longdouble)) * over_factorial)
    if over_factorial == 0 or not math.isfinite(mu):
        raise NumericError(f"mu_{k} of {spec} overflows float64 (max 1.8e308); "
                           "use a smaller k, or moment_over_factorial_ld for mu_k / k!")
    return mu


def _jacobi_powers(spec: FamilySpec, dim: int, kmax: int):
    """v_k = J^k e_0 / k! in 80-bit for k = 0..kmax, J the dim-square Jacobi matrix, each as
    a view of the levels 0..min(k, dim - 1) it lives on: one array, updated in place."""
    gam, bet = gamma_beta_arrays(spec, dim, longdouble=True)
    diag, off = -bet[:dim], gam[: dim - 1]
    v = np.zeros(dim, dtype=np.longdouble)
    v[0] = 1.0
    yield v[:1]
    for k in range(1, kmax + 1):
        live = min(k, dim - 1) + 1  # the rest of v stays +0
        u, o = v[:live], off[: live - 1]
        w = diag[:live] * u
        w[:-1] += o * u[1:]
        w[1:] += o * u[:-1]
        np.divide(w, np.longdouble(k), out=u)
        yield u


def moment_over_factorial_ld(family, kmax: int) -> np.ndarray:
    """mu_k / k! for k <= kmax in extended precision (table base row): the closed
    forms, and entry 0 of _jacobi_powers for gegenbauer/jacobi."""
    spec = family_spec(family)
    tag = spec.tag
    require_nonnegative(kmax, "kmax")
    out = np.zeros(kmax + 1, dtype=np.longdouble)
    out[0] = 1.0
    if tag == "laguerre":  # mu_k = k!
        out[:] = 1.0
    elif tag in ("gegenbauer", "jacobi"):
        for k, v in enumerate(_jacobi_powers(spec, kmax // 2 + 2, kmax)):
            out[k] = v[0]
    elif tag == "herron":
        # mu_2n = |E_2n|: sech z = sum E_2n z^2n / (2n)! and m^(k)(0) = i^k mu_k
        E = euler_numbers(kmax)
        for n in range(1, kmax // 2 + 1):
            fr = Fraction(abs(E[2 * n]), math.factorial(2 * n))
            # scaled into [1/2, 2) so that neither part goes subnormal, then scaled back
            e = fr.numerator.bit_length() - fr.denominator.bit_length()
            fr /= Fraction(2) ** e
            hi = float(fr)  # a double-double split keeps ~32 significant digits
            out[2 * n] = np.ldexp(np.longdouble(hi) + np.longdouble(float(fr - Fraction(hi))), e)
    else:
        # odd mu_k are 0; out[2n] is the product of the ratios mu_2j (2j - 2)! / (mu_2j-2 (2j)!), j <= n
        n = np.arange(1, kmax // 2 + 1, dtype=np.longdouble)
        if tag == "legendre":  # mu_2n = pi^2n / (2n + 1)
            ratios = PI_LD * PI_LD / (2 * n * (2 * n + 1))
        elif tag == "chebyshev_t":  # mu_2n = pi^2n C(2n, n) / 4^n
            ratios = PI_LD * PI_LD / (4 * n * n)
        elif tag == "chebyshev_u":  # mu_2n = pi^2n C(2n, n) / (4^n (n + 1)), C(2n, n) / (n + 1) Catalan's
            ratios = PI_LD * PI_LD / (4 * n * (n + 1))
        else:  # hermite: mu_2n = (2n - 1)!! / 2^n
            ratios = 1 / (4 * n)
        out[2::2] = np.cumprod(ratios)
    return out


def moment_jacobi_matrix(family, k: int) -> float:
    """mu_k from entry 0 of J^k e_0 / k!: the oracle independent of the closed forms."""
    spec = family_spec(family)
    require_nonnegative(k, "k")
    *_, v = _jacobi_powers(spec, k // 2 + 2, k)
    return _finite_moment(spec, k, v[0])


def _gauss_pass(spec: FamilySpec, n: int, nrows: int = 0):
    """gauss_quadrature's (nodes, weights), plus Q[k, i] = p_k(x_i) sqrt(w_i)
    for k < nrows, from one pass of the recurrence over all nodes.

    Where |p| passes 1e140 at a node, p, p_{-1} and the rows stored so far
    are scaled by 1e-140 there and the running sum s = sum_k p_k^2 by
    1e-280, so Q = rows / sqrt(s * sum w) stays accurate where the weight
    w = 1/s itself underflows.
    """
    J = jacobi_matrix(spec, n)
    try:
        nodes = np.linalg.eigvalsh(J)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails here
        raise NumericError("Jacobi matrix eigendecomposition failed") from exc
    gam, bet = gamma_beta_arrays(spec, n - 1)
    s = np.ones(n)
    E = np.zeros(n)  # rescales per node; 280 E is log10 of the factor taken out of s
    rows = np.empty((nrows, n))
    rows[:1] = 1.0
    p_prev, p, g_prev = np.zeros(n), np.ones(n), 1.0
    # three_term's step, inlined: the rescale must act between steps
    for j, g, b in zip(range(1, n), memoryview(gam[:-1]), memoryview(bet)):
        p_prev, p = p, ((nodes + b) * p - g_prev * p_prev) / g
        g_prev = g
        big = np.abs(p) > 1e140
        if big.any():
            p[big] *= 1e-140
            p_prev[big] *= 1e-140
            rows[:j, big] *= 1e-140
            s[big] *= 1e-280
            E += big
        s += p * p
        if j < nrows:
            rows[j] = p
    w = 10.0 ** (-280.0 * E) / s  # E = 0 gives exactly 1 / s
    total = w.sum()
    return nodes, w / total, rows / np.sqrt(s * total)


def gauss_quadrature(family, n: int):
    """n-point Gauss rule for the family's measure: (nodes, weights).

    Nodes are the eigenvalues of the n-by-n Jacobi matrix; weights are the
    Christoffel numbers 1/sum_k p_k(node)^2 (equal to the squared first
    eigenvector components), renormalized to sum to one.
    """
    if n < 1:
        raise ParameterError("n must be positive")
    nodes, w, _ = _gauss_pass(family_spec(family), n)
    return nodes, w
