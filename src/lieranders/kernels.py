"""Batch float kernels behind the sweep machinery.

Each kernel takes its flags as contiguous (dim, n) columns, one row per
coordinate, as the sweep draws them: V as ``v``, and the plane as its
bivector columns w = U^V (:func:`wedge_batch`, one row per index pair i < j
in ``itertools.combinations`` order, the order of the compiled ``R2`` and
``G2``; the draw reads G2(w) from them for its rejection test).  Each
compiled form it is given, g(Q, .), ``R2`` on w (K^g = R2(w) / G2(w)),
``A`` and ``C``, is evaluated as its ``IntegerForm.rounded()`` monomials with
:func:`form_batch`: the cost is proportional to the nonzero terms, and no
dense table is built.  No kernel transposes, copies or writes into its
inputs.

:func:`format_csv_block` writes the sweep's CSV rows: per value the bytes of
``"%.12g" % x``, from word tables built on first use (so importing this
module costs nothing for them), with one ``%`` call per block for the values
whose correct rounding the scaled float cannot decide.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np


def _horner(terms: list, x: np.ndarray, depth: int) -> np.ndarray:
    """sum over sorted ``terms`` of coef * x[idx[depth]] * ...; terms sharing
    x[i] at ``depth`` share one product by it, the last index is one dot."""
    if depth == len(terms[0][0]) - 1:
        if len(terms) == 1:
            (idx, coef), = terms
            return x[idx[depth]] if coef == 1 else x[idx[depth]] * coef
        ks = [idx[depth] for idx, _ in terms]
        rows = slice(ks[0], ks[-1] + 1) if ks[-1] - ks[0] + 1 == len(ks) else ks
        return np.array([coef for _, coef in terms]) @ x[rows]
    # summed as they come, so one group's product is alive at a time
    groups = itertools.groupby(terms, key=lambda term: term[0][depth])
    i, group = next(groups)
    total = x[i] * _horner(list(group), x, depth + 1)
    for i, group in groups:
        total += x[i] * _horner(list(group), x, depth + 1)
    return total


def form_batch(terms, x: np.ndarray) -> np.ndarray:
    """sum of coef * x[i] * x[j] * ... over the (index tuple, coef) ``terms``,
    per column of the rows x[i]; x[k] itself (a view) for the one term x_k.
    On ``Fraction`` object arrays with exact coefficients it is exact."""
    if not terms:
        return np.zeros(x.shape[1], dtype=x.dtype)
    return _horner(sorted(terms), x, 0)


def eval_f_batch(gvv: np.ndarray, beta, v: np.ndarray) -> np.ndarray:
    """F(y) = sqrt(g(y,y)) + g(Q,y) per column of v; ``beta`` is g(Q, .)."""
    f = np.sqrt(gvv)
    f += form_batch(beta, v)
    return f


def wedge_batch(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Bivector columns w_(ij) = U_i V_j - U_j V_i of w = U^V, one row per
    i < j in ``itertools.combinations`` order (the order of R2 and G2)."""
    dim = len(u)
    w = np.empty((dim * (dim - 1) // 2, u.shape[1]), dtype=np.result_type(u, v))
    scratch = np.empty_like(w[0])
    for t, (i, j) in enumerate(itertools.combinations(range(dim), 2)):
        np.multiply(u[i], v[j], out=w[t])
        w[t] -= np.multiply(u[j], v[i], out=scratch)
    return w


def sectional_batch(r2, w: np.ndarray, g2w: np.ndarray) -> np.ndarray:
    """Sectional curvature K^g = R2(w) / G2(w) per column of the bivectors w,
    given ``g2w`` = G2(w)."""
    return form_batch(r2, w) / g2w


def correction_batch(a, c, v: np.ndarray, F: np.ndarray) -> np.ndarray:
    """(3 A(V)^2 - 2 F C(V)) / (4 F^4), the Douglas flag-curvature correction,
    per column of v; F^4 is (F F)^2."""
    quad, cubic = form_batch(a, v), form_batch(c, v)
    out = quad * 3.0
    out *= quad
    t = F * 2.0
    t *= cubic
    out -= t
    np.multiply(F, F, out=t)
    t *= t
    t *= 4.0
    out /= t
    return out


# %.12g of a finite nonzero |x| is N = round(|x| 10^(11-e)) in [1e11, 1e12),
# e = floor(log10 |x|), in fixed notation for -4 <= e < 12.  Each value is a
# cell of eight uint32 words, NUL-padded: the prefix (sign, "0." and the zeros
# of e < 0), one word per three digits of N, the suffix ("e+XX", separator).
_E_MIN, _E_MAX = -324, 308  # row e - _E_MIN + 1; row 0 writes 0 (and -0)
# y = |x|·10^(11-e) takes two roundings at most, the power's and the product's
# (2^128 prescales e < -297 exactly): a fraction this close to 1/2 is in doubt.
_TIE_BOUND = 3 * 2.0**-53 * 1e12
_PADDING = b"\0 "  # the fallback pads with spaces, which %.12g never writes


def _group_word(v: int, state: int, later: bool) -> bytes:
    """The 3-digit group ``v``: ``max(state - 1, 0)`` integer digits, for states
    1-3 a point, then fraction digits, whose trailing zeros (and a point
    before none) go unless a ``later`` group is nonzero."""
    ints, s = max(state - 1, 0), b"%03d" % v
    frac = s[ints:] if later else s[ints:].rstrip(b"0")
    return s[:ints] + (b"." if 0 < state < 4 and frac else b"") + frac


def _packed(words, width: int, dtype) -> np.ndarray:
    return np.frombuffer(b"".join(w.ljust(width, b"\0") for w in words), dtype=dtype)


@functools.cache
def _g12_tables():
    """Group words (index 10v + 2 state + later; v = 1000 and 1001 are "inf"
    and "nan"), per exponent row the two scale factors, the four group states
    (as 2 state), the prefix and the suffix, and the words of "-", "," and
    "\\n".  Built on first use, so that importing the module stays cheap."""
    words = [_group_word(v, state, later)
             for v in range(1000) for state in range(5) for later in (0, 1)]
    words += [w for w in (b"inf", b"nan") for _ in range(10)]
    pre, scale, states, prefix, suffix = [1.0], [1.0], [[2, 0, 0, 0]], [b"\0"], [b""]
    for e in range(_E_MIN, _E_MAX + 1):
        p, big = 11 - e, 11 - e > 308
        pre.append(2.0**128 if big else 1.0)
        scale.append(10 ** max(p, 0) / (10 ** max(-p, 0) * 2 ** (128 * big)))
        fixed = -4 <= e < 12
        q = (e + 1 if e >= 0 else 0) if fixed else 1  # digits before the point
        states.append([min(max(q - 3 * g + 1, 0), 4) if q else 0 for g in range(4)])
        prefix.append(b"\0" + (b"0." + b"0" * (-e - 1) if fixed and e < 0 else b""))
        suffix.append(b"" if fixed else b"e%+03d" % e)
    marks = _packed([b"-", b"\0" * 7 + b",", b"\0" * 7 + b"\n"], 8, np.uint64)
    return (_packed(words, 4, np.uint32), np.array(pre), np.array(scale), 2 * np.array(states).T,
            _packed(prefix, 8, np.uint64), _packed(suffix, 8, np.uint64), marks)


def format_csv_block(block: np.ndarray) -> bytes:
    """The CSV rows of a (rows, k) float block: per row, the bytes of
    ``",".join("%.12g" % x for x in row) + "\\n"``, for every double.

    One fixed-width cell per value, from table words, then NUL padding
    dropped by one ``bytes.translate``.  A value whose rounding is in doubt
    (a fraction within ``_TIE_BOUND`` of 1/2, or N >= 1e12) is formatted by
    ``%`` instead, all of a block's in one call.
    """
    words, pre, scale, states, prefix, suffix, marks = _g12_tables()
    block = np.asarray(block, dtype=np.float64)
    rows, k = block.shape
    x = block.ravel()
    with np.errstate(all="ignore"):
        a = np.abs(x)
        e = np.log10(a)
        np.floor(e, out=e)
        e -= _E_MIN - 1
        np.fmax(e, 0, out=e)  # 0 and nan take row 0, inf the last
        np.fmin(e, _E_MAX - _E_MIN + 1, out=e)
        ei = e.astype(np.intp)
        y = a * pre[ei]
        y *= scale[ei]
        nb = y + 2.0**52  # round half even into the low mantissa bits
        n = nb - 2.0**52
        # floor(log10 |x|) overshoots e only where log10 |x| is a few ulps
        # (each <= 2^-44) below e: there |x| > 10^e (1 - 1e-12), so y > 1e11 - 1/2
        # and N = 1e11 is the correct rounding; y < 1e11 needs no fallback
        ok = np.abs(y - n) < 0.5 - _TIE_BOUND
        ok &= n < 1e12
    r = nb.view(np.int64)
    r -= 0x4330000000000000  # the bits of 2^52
    neg = np.signbit(x)
    fallback = ()
    if not ok.all():
        bad = np.flatnonzero(~ok)
        xb = x[bad]
        special = ~np.isfinite(xb)
        fallback = bad[~special]
        r[fallback] = 10**11
        sp, xs = bad[special], xb[special]
        nan = np.isnan(xs)
        r[sp] = (1000 + nan) * 10**9
        ei[sp] = 0  # no prefix, no exponent
        neg[sp[nan]] = False
    cells = np.empty((len(x), 8), dtype=np.uint32)
    for g, c in enumerate((10**9, 10**6, 10**3)):
        v = r // c
        r -= v * c
        v *= 10
        v += np.minimum(r, 1)  # a later group is nonzero
        v += states[g][ei]
        cells[:, 2 + g] = words[v]
    r *= 10
    r += states[3][ei]
    cells[:, 5] = words[r]
    c64 = cells.view(np.uint64)
    c64[:, 0] = prefix[ei] | neg * marks[0]
    sep = marks[[1] * (k - 1) + [2]]
    c64[:, 3] = (suffix[ei].reshape(rows, k) | sep).ravel()
    if len(fallback):
        text = ("%-24.12g" * len(fallback)) % tuple(x[fallback].tolist())
        cells.view(np.uint8)[fallback, :24] = np.frombuffer(text.encode(), np.uint8).reshape(-1, 24)
        c64[fallback, 3] = sep[fallback % k]
    return cells.tobytes().translate(None, _PADDING)
