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

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import NumericError, ParameterError

# per tag, the columns of families --list: whether the measure is even (jacobi(a, b) only
# when a == b), the growth exponent p of weak boundedness, the support, and rho
FAMILY_TABLE = {
    "legendre": (True, 0.0, "[-pi, pi]", 0.0),
    "chebyshev_t": (True, 0.0, "[-pi, pi]", 0.0),
    "chebyshev_u": (True, 0.0, "[-pi, pi]", 0.0),
    "gegenbauer": (True, 0.0, "[-pi, pi]", 0.0),
    "jacobi": (False, 0.0, "[-pi, pi]", 0.0),
    "hermite": (True, 0.5, "real line", 0.0),
    "laguerre": (False, 1.0, "half line", 1.0),
    "herron": (True, 1.0, "real line", 2.0 / math.pi),
}
FAMILY_TAGS = tuple(FAMILY_TABLE)

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

    @property
    def symmetric(self) -> bool:
        """Whether the measure is even; jacobi(a, a) has gegenbauer(a + 1/2)'s."""
        return FAMILY_TABLE[self.tag][0] or (self.tag == "jacobi" and self.a == self.b)

    @property
    def support(self) -> str:
        return FAMILY_TABLE[self.tag][2]

    def __str__(self):
        if self.tag == "gegenbauer":
            return f"gegenbauer({self.a:g})"
        if self.tag == "jacobi":
            return f"jacobi({self.a:g},{self.b:g})"
        return self.tag


@lru_cache(maxsize=64)
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


def family_spec(family) -> FamilyId:
    """The FamilyId of a family string, parsed once per string; a FamilyId passes through."""
    return family if isinstance(family, FamilyId) else parse_family(str(family))


def _gamma_beta_ld(spec: FamilyId, nn: np.ndarray):
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
        a = np.longdouble(spec.a)
        return PI_LD / 2 * np.sqrt((nn + 1) * (nn + 2 * a) / ((nn + a) * (nn + a + 1))), zero
    if tag == "jacobi":
        a, b = np.longdouble(spec.a), np.longdouble(spec.b)
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


_COEFF_STORE: dict = {}  # (FamilyId, dtype) -> (gamma, beta), in order of last use


def gamma_beta_arrays(family, horizon: int, longdouble: bool = False):
    """gamma_0..gamma_horizon and beta_0..beta_horizon as read-only views of one store per
    (family, dtype), kept for the 16 last used.  A store grows by whole _COEFF_BLOCK blocks of
    _gamma_beta_ld, each cast once; the formulas are elementwise, so every horizon's prefix is
    the same bits in any call order.  A beta that is +0.0 at every order, by its bits (so not
    jacobi(-0.5,-0.5)'s -0.0), takes no memory: 16 zero bytes read with stride 0."""
    if require_integer(horizon, "horizon") < -1:
        raise ParameterError("horizon must be at least -1")
    key = family_spec(family), np.longdouble if longdouble else np.float64
    gam, bet = _COEFF_STORE.pop(key, None) or (np.empty(0, key[1]), None)
    if horizon >= gam.size:
        gam, bet = _grown(key, gam, bet, -(-(horizon + 1) // _COEFF_BLOCK) * _COEFF_BLOCK)
    _COEFF_STORE[key] = gam, bet
    if len(_COEFF_STORE) > 16:
        del _COEFF_STORE[next(iter(_COEFF_STORE))]
    return gam[: horizon + 1], bet[: horizon + 1]


def _grown(key, gam, bet, size: int):
    """The store (gam, bet) of key, extended by whole blocks to size orders."""
    spec, dt = key
    old, gam = gam.size, np.pad(gam, (0, size - gam.size))
    bet = np.pad(bet, (0, size - old)) if old and bet.strides[0] else None  # None: +0.0 so far
    for lo in range(old, size, _COEFF_BLOCK):
        hi = lo + _COEFF_BLOCK
        gam[lo:hi], b = _gamma_beta_ld(spec, np.arange(lo, hi, dtype=np.longdouble))
        if bet is not None or b.any() or np.signbit(b).any():
            bet = np.zeros(size, dt) if bet is None else bet  # the orders before lo were +0.0
            bet[lo:hi] = b
    if bet is None:
        bet = np.ndarray(size, dt, bytes(16), strides=(0,))
    gam.flags.writeable = bet.flags.writeable = False
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


_BLOCK = 64         # orders per lane; the first block runs on the float loops, as a lane block reads gamma_{s-1}
_LANES = 1024       # blocks per chunk at one x, half as many at two, so a chunk stores about 1 MB of lanes
_MIN_BLOCKS = 64    # below this many whole blocks past the first, the float loop is as fast (measured)


def _recur(gam, bet, xs, steps, state, rows=None):
    """The state (p_{n-1}, p_n) per x at order n = len(gam) - 1 from the state at order 0,
    for the floats xs.

    steps, one of the float loops below, runs orders 1.._BLOCK and the last partial
    block; _lanes runs the whole blocks between, in round(nblocks / lanes) chunks of
    near-equal size, lanes = _LANES / len(xs), as a small last chunk costs about as much
    as a full one; below _MIN_BLOCKS of them steps runs every order.  Where rows are
    given, orders 1..n are stored there.  An overflow stays inf or NaN at every later
    step, so the end values show it."""
    n = len(gam) - 1
    nblocks = (n - _BLOCK) // _BLOCK
    if nblocks < _MIN_BLOCKS:
        return steps(gam, bet, xs, 0, n, state, rows)
    chunks = max(1, round(nblocks / max(_LANES // len(xs), 1)))
    state = steps(gam, bet, xs, 0, _BLOCK, state, rows)
    with np.errstate(over="ignore", invalid="ignore"):  # silent, as Python floats overflow
        for k in range(chunks):  # the whole blocks lo..hi - 1 past the first
            lo, hi = nblocks * k // chunks, nblocks * (k + 1) // chunks
            state = _lanes(gam, bet, xs, _BLOCK + lo * _BLOCK, hi - lo, state, rows)
    return steps(gam, bet, xs, _BLOCK + nblocks * _BLOCK, n, state, rows)


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


def _lanes(gam, bet, xs, s, nb, state, rows):
    """The state (p_{s-1}, p_s) per x at order s + nb _BLOCK from the state at s, for
    the floats xs.  Where rows are given, they get p per x at the orders between.

    Each of the nb blocks of _BLOCK orders, from its order t, runs as numpy lanes from
    two starts: (p_{t-1}, p_t) = (1, -1) gives U, (1, 1) gives V.  _join then gives
    p_{t+i} = a U_i + c V_i, with (a, c) = (p_{t-1} - p_t, p_{t-1} + p_t) / 2.  The unit
    starts (1, 0), (0, 1) would cancel about 64-fold in a U + c V: Laguerre's step tends
    to a Jordan block with eigenvector (1, -1), and at a band edge it is (1, +-1)."""
    starts = np.array([[1.0, 1.0], [-1.0, 1.0]])[:, None, :, None]

    def cols(a, at):  # entry [i, k] is order at + k _BLOCK + i of a
        return a[at : at + nb * _BLOCK].reshape(nb, _BLOCK).T

    # step i writes x + beta_i into xb, (len(xs), 1, nb), and gamma_{i-1} prev into gp, shaped as the lanes
    x, b, g, g_prev = np.array(xs)[:, None, None], cols(bet, s), cols(gam, s), cols(gam, s - 1)
    store = None if rows is None else np.empty((_BLOCK, len(xs), 2, nb))
    prev, cur = starts.repeat(nb, axis=3)
    xb, gp = np.empty((len(xs), 1, nb)), np.empty((len(xs), 2, nb))
    for i in range(_BLOCK):
        new = np.multiply(np.add(x, b[i], out=xb), cur, out=None if store is None else store[i])
        new -= np.multiply(g_prev[i], prev, out=gp)
        new /= g[i]
        prev, cur = cur, new
    ends = np.concatenate([prev, cur], 1)  # per x, the lanes at the last two orders
    coef = np.empty((len(xs), 2, nb))
    state = sum((_join(state[2 * q : 2 * q + 2], ends[q], coef[q]) for q in range(len(xs))), ())
    if store is None:
        return state
    # p = a U + c V, in place
    for q, (a, c) in enumerate(coef):
        p, t = store[:, q, 0], store[:, q, 1]
        p *= a
        t *= c
        p += t
        cols(rows[q], s + 1)[:] = p
    return state


def _join(state, ends, coef):
    """_lanes' float loop over the blocks at one x: (p_{t-1}, p_t) after each block, from
    U, V at the lanes' last two orders; each block's a, c go to coef[0], coef[1]."""
    p_prev, p = state
    a_out, c_out = map(memoryview, coef)
    for k, u_prev, v_prev, u, v in zip(range(len(a_out)), *map(memoryview, ends)):
        a, c = (p_prev - p) * 0.5, (p_prev + p) * 0.5
        p_prev, p = a * u_prev + c * v_prev, a * u + c * v
        a_out[k], c_out[k] = a, c
    return p_prev, p


def require_integer(n, name: str) -> int:
    """n, once checked an int or numpy integer: an order, size or index of 2.5, 2.0 or True
    (which would read as 1) is a ParameterError naming it."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ParameterError(f"{name} {n!r} is not an integer")
    return n


def require_nonnegative(n: int, name: str = "N") -> int:
    if require_integer(n, name) < 0:
        raise ParameterError(f"{name} must be nonnegative")
    return n


def require_finite(x, name: str):
    """x, once no point of it is NaN or infinite, else a ParameterError naming it; x may be
    complex (a jet's center, a function's data), which require_real refuses."""
    if not (cmath.isfinite(x) if isinstance(x, (int, float, complex)) else np.isfinite(x).all()):
        raise ParameterError(f"non-finite argument; {name} must be finite")
    return x


def require_real(x, name: str):
    """x as a float, or as a float64 array if it has dimensions: a complex x, whose imaginary
    part a cast would drop, or a NaN or infinite one is a ParameterError naming it."""
    if isinstance(x, (int, float)):  # a plain number, checked without numpy
        return require_finite(float(x), name)
    x = np.asarray(x)
    if x.dtype.kind == "c":
        raise ParameterError(f"{name} must be real")
    x = require_finite(np.asarray(x, dtype=np.float64), name)
    return float(x) if x.ndim == 0 else x


def jacobi_matrix(family, dimension: int) -> np.ndarray:
    """The truncated Jacobi matrix: -beta_n on the diagonal, gamma_n beside it."""
    if require_integer(dimension, "dimension") < 1:
        raise ParameterError("dimension must be positive")
    gam, bet = gamma_beta_arrays(family, dimension - 1)
    J = np.zeros((dimension, dimension))
    flat = J.reshape(-1)
    np.subtract(0.0, bet, out=flat[:: dimension + 1])  # a zero diagonal entry is +0
    flat[1 :: dimension + 1] = flat[dimension :: dimension + 1] = gam[: dimension - 1]
    return J


@lru_cache(maxsize=None)
def euler_numbers(nmax: int):
    """E_0..E_nmax as exact integers (odd indices are zero), by Seidel's boustrophedon: each row
    is the running sums of the one before, reversed, and row k ends in the zigzag number A_k,
    with E_2n = (-1)^n A_2n.  That is O(nmax^2) additions, no products."""
    E, row = [1], [1]
    for k in range(1, require_nonnegative(nmax, "nmax") + 1):
        row = list(accumulate(reversed(row), initial=0))
        E.append(0 if k % 2 else (-1) ** (k // 2) * row[-1])
    return tuple(E)


def moment_analytic(family, k: int) -> float:
    """mu_k from the closed forms of moment_over_factorial_ld; gegenbauer/jacobi have none."""
    spec = family_spec(family)
    require_nonnegative(k, "k")
    if spec.tag in ("gegenbauer", "jacobi"):
        raise ParameterError(f"{spec.tag} has no closed moment form; use moment_jacobi_matrix")
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


def _jacobi_powers(spec: FamilyId, dim: int, kmax: int):
    """v_k = J^k e_0 / k! in 80-bit for k = 0..kmax, J the dim-square Jacobi matrix, each as
    a view of the levels 0..min(k, dim - 1) it lives on: one array, updated in place.

    Where J's diagonal is 0, v_k is 0 off the levels of k's parity: step k sums those from the
    others as the full step does, less its diagonal term (a zero times a zero, which changes
    no sum), and sets the others to +0, the full step's value there."""
    gam, bet = gamma_beta_arrays(spec, dim, longdouble=True)
    diag, off = -bet[:dim], gam[: dim - 1]
    v = np.zeros(dim, dtype=np.longdouble)
    v[0] = 1.0
    yield v[:1]
    parity = not diag.any()
    for k in range(1, kmax + 1):
        live = min(k, dim - 1) + 1  # the rest of v stays +0
        u, o = v[:live], off[: live - 1]
        if parity:  # the levels t of k's parity, from the levels q of the others
            p, q = k % 2, 1 - k % 2
            t = u[p::2]  # +0 since step k - 1
            np.multiply(o[p::2], u[p + 1 :: 2], out=t[: (live - p) // 2])  # gamma_j v_j+1
            t[q:] += o[q::2] * u[q:-1:2]  # + gamma_j-1 v_j-1
            t /= np.longdouble(k)
            u[q::2] = 0.0
        else:
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
        from fractions import Fraction  # imported here: it loads decimal, off the start-up path
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


@lru_cache(maxsize=64)
def _gauss_nodes(spec: FamilyId, n: int) -> np.ndarray:
    """eigvalsh of the n-square Jacobi matrix, read-only: every n-point Gauss rule's nodes."""
    try:
        nodes = np.linalg.eigvalsh(jacobi_matrix(spec, n))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails here
        raise NumericError("Jacobi matrix eigendecomposition failed") from exc
    nodes.flags.writeable = False
    return nodes


def _gauss_pass(spec: FamilyId, n: int, nrows: int = 0):
    """gauss_quadrature's (nodes, weights), plus Q[k, i] = p_k(x_i) sqrt(w_i)
    for k < nrows, from one pass of the recurrence over _gauss_nodes' shared nodes.

    Where |p| passes 1e140 at a node, p, p_{-1} and the rows stored so far
    are scaled by 1e-140 there and the running sum s = sum_k p_k^2 by
    1e-280, so Q = rows / sqrt(s * sum w) stays accurate where the weight
    w = 1/s itself underflows.  Each step, and Q's division, runs in place;
    the mask of nodes to rescale is formed only when max|p| passes 1e140.
    """
    nodes = _gauss_nodes(spec, n)
    gam, bet = gamma_beta_arrays(spec, n - 1)
    s = np.ones(n)
    E = np.zeros(n)  # rescales per node; 280 E is log10 of the factor taken out of s
    rows = np.empty((nrows, n))
    rows[:1] = 1.0
    p_prev, p, tmp, g_prev = np.zeros(n), np.ones(n), np.empty(n), 1.0
    # three_term's step, inlined and in place: the rescale must act between steps
    for j, g, b in zip(range(1, n), memoryview(gam[:-1]), memoryview(bet)):
        np.multiply(np.add(nodes, b, out=tmp), p, out=tmp)
        p_prev *= g_prev
        np.subtract(tmp, p_prev, out=p_prev)
        p_prev /= g
        p_prev, p = p, p_prev
        g_prev = g
        if np.abs(p, out=tmp).max() > 1e140:
            big = tmp > 1e140
            p[big] *= 1e-140
            p_prev[big] *= 1e-140
            rows[:j, big] *= 1e-140
            s[big] *= 1e-280
            E += big
        s += np.multiply(p, p, out=tmp)
        if j < nrows:
            rows[j] = p
    w = 10.0 ** (-280.0 * E) / s  # E = 0 gives exactly 1 / s
    total = w.sum()
    return nodes, w / total, np.divide(rows, np.sqrt(s * total), out=rows)


def gauss_quadrature(family, n: int):
    """n-point Gauss rule for the family's measure: (nodes, weights).

    Nodes are a writable copy of the eigenvalues of the n-by-n Jacobi matrix,
    solved once per (family, n) (_gauss_nodes); weights are the Christoffel
    numbers 1/sum_k p_k(node)^2 (the squared first eigenvector components),
    renormalized to sum to one.
    """
    if require_integer(n, "n") < 1:
        raise ParameterError("n must be positive")
    nodes, w, _ = _gauss_pass(family_spec(family), n)
    return nodes.copy(), w
