"""Random expression ASTs for round-trip and derivative property tests."""

import numpy as np

from upkolmo import exprdsl as E

SMOOTH_FUNCS = ("sin", "cos", "exp", "tanh")
ALL_VARS = ("lambda", "x", "s", "t")


def random_expr(rng, depth, smooth=True):
    """Random AST of depth at most ``depth``.

    With ``smooth=True`` the result is C-infinity and denominators are
    bounded away from zero, so central differences are a valid oracle.
    """
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.45:
            return E.Num(round(float(rng.uniform(-3.0, 3.0)), 3))
        return E.Var(ALL_VARS[rng.integers(len(ALL_VARS))])
    roll = rng.random()
    if roll < 0.45:
        op = "+-*"[rng.integers(3)]
        return E.BinOp(op, random_expr(rng, depth - 1, smooth),
                       random_expr(rng, depth - 1, smooth))
    if roll < 0.55:
        den = random_expr(rng, depth - 1, smooth)
        if smooth:
            den = E.BinOp("+", E.Num(1.5), E.BinOp("^", den, E.Num(2.0)))
        return E.BinOp("/", random_expr(rng, depth - 1, smooth), den)
    if roll < 0.65:
        return E.BinOp("^", random_expr(rng, depth - 1, smooth),
                       E.Num(float(rng.integers(0, 4))))
    if roll < 0.75:
        return E.Neg(random_expr(rng, depth - 1, smooth))
    if smooth:
        f = SMOOTH_FUNCS[rng.integers(len(SMOOTH_FUNCS))]
        return E.Call(f, (random_expr(rng, depth - 1, smooth),))
    f = E.FUNCTIONS[rng.integers(len(E.FUNCTIONS))]
    if f in ("min", "max"):
        return E.Call(f, (random_expr(rng, depth - 1, smooth),
                          random_expr(rng, depth - 1, smooth)))
    if f == "sqrt":
        inner = E.BinOp("+", E.Num(1.0),
                        E.BinOp("^", random_expr(rng, depth - 1, smooth),
                                E.Num(2.0)))
        return E.Call(f, (inner,))
    return E.Call(f, (random_expr(rng, depth - 1, smooth),))


def random_bindings(rng, lo=-2.0, hi=2.0):
    return {name: float(rng.uniform(lo, hi)) for name in ALL_VARS}


def usable_point(expr, bindings, seed, h=1e-5, cap=1e3):
    """True when the dual value and the five-point FD stencil are all finite
    and moderately sized at the point."""
    try:
        v = E.evaluate(expr, bindings)
        d = E.evaluate(E.diff(expr, seed), bindings)
        if not (np.isfinite(v) and np.isfinite(d)):
            return False
        if abs(float(v)) > cap or abs(float(d)) > cap:
            return False
        for delta in (-h, h, -0.5 * h, 0.5 * h):
            shifted = dict(bindings)
            shifted[seed] = bindings[seed] + delta
            w = E.evaluate(expr, shifted)
            if not np.isfinite(w) or abs(float(w)) > 10 * cap:
                return False
    except E.DomainError:
        return False
    return True


def central_difference(expr, bindings, seed, h=1e-5):
    up = dict(bindings)
    dn = dict(bindings)
    up[seed] = bindings[seed] + h
    dn[seed] = bindings[seed] - h
    return (E.evaluate(expr, up) - E.evaluate(expr, dn)) / (2.0 * h)
