import collections
import copy
import math
import pickle
import warnings

import numpy as np
import pytest

from upkolmo import exprdsl as E
from genexpr import ALL_VARS, central_difference, random_bindings, \
    random_expr, usable_point
from scenarios import BETA_TEXT


def ev(text, **bindings):
    return E.evaluate(E.parse(text), bindings)


def dual(expr, bindings, seed):
    """The value and d / d seed of ``expr``: it and its ``diff``, each
    evaluated."""
    return E.evaluate(expr, bindings), E.evaluate(E.diff(expr, seed), bindings)


class TestParseEval:
    def test_quadratic(self):
        assert ev("lambda^2/2", **{"lambda": 3.0}) == pytest.approx(4.5)

    def test_sin_zero(self):
        assert ev("sin(lambda)", **{"lambda": 0.0}) == pytest.approx(0.0)

    def test_negated_product(self):
        # hand evaluation: -(1+1)*2 = -4
        assert ev("-(x+1)*2", x=1.0) == pytest.approx(-4.0)

    def test_identity(self):
        assert ev("lambda", **{"lambda": 7.0}) == 7.0

    def test_exp_zero(self):
        assert ev("exp(0)") == pytest.approx(1.0)

    def test_mixed(self):
        assert ev("lambda^2/2 + sin(x)", x=0.0, **{"lambda": 2.0}) \
            == pytest.approx(2.0)

    def test_power_right_assoc(self):
        assert ev("2^3^2") == 512.0

    def test_subtraction_left_assoc(self):
        assert ev("2-3-4") == -5.0

    def test_scientific_notation(self):
        assert ev("1.5e-3 + 2E2") == pytest.approx(0.0015 + 200.0)

    def test_two_argument_functions(self):
        assert ev("min(2, 3)") == 2.0
        assert ev("max(2, 3)") == 3.0

    def test_array_broadcast(self):
        vals = E.evaluate(E.parse("lambda^2"), {"lambda": np.array([1.0, 2.0])})
        assert np.allclose(vals, [1.0, 4.0])


class TestErrors:
    def test_unbound_variable(self):
        with pytest.raises(E.UnboundVariableError):
            ev("x + s", x=1.0)

    def test_division_by_zero(self):
        with pytest.raises(E.DomainError):
            ev("1/x", x=0.0)

    def test_sqrt_negative(self):
        with pytest.raises(E.DomainError):
            ev("sqrt(x)", x=-1.0)

    def test_unknown_identifier_offset(self):
        with pytest.raises(E.ExprSyntaxError) as exc:
            E.parse("2 + foo")
        assert exc.value.offset == 4
        assert "foo" in str(exc.value)

    def test_unbalanced_paren(self):
        with pytest.raises(E.ExprSyntaxError) as exc:
            E.parse("(1 + 2")
        assert "')'" in exc.value.expected

    def test_trailing_input(self):
        with pytest.raises(E.ExprSyntaxError):
            E.parse("1 2")

    def test_missing_argument_count(self):
        with pytest.raises(E.ExprSyntaxError):
            E.parse("min(1)")

    def test_fractional_power_of_negative(self):
        with pytest.raises(E.DomainError):
            ev("x^0.5", x=-2.0)


class TestDual:
    def test_quadratic(self):
        v, d = dual(E.parse("lambda^2/2"), {"lambda": 3.0}, "lambda")
        assert (v, d) == (pytest.approx(4.5), pytest.approx(3.0))

    def test_sin(self):
        v, d = dual(E.parse("sin(lambda)"), {"lambda": 0.0}, "lambda")
        assert (v, d) == (pytest.approx(0.0), pytest.approx(1.0))

    def test_product_rule(self):
        # d/dl [l e^l] = (1 + l) e^l -> 2e at l = 1
        v, d = dual(E.parse("lambda*exp(lambda)"), {"lambda": 1.0}, "lambda")
        assert v == pytest.approx(math.e)
        assert d == pytest.approx(2.0 * math.e)
        fd = central_difference(E.parse("lambda*exp(lambda)"),
                                {"lambda": 1.0}, "lambda")
        assert d == pytest.approx(fd, abs=1e-8)

    def test_abs_kink_right_limit(self):
        _, d = dual(E.parse("abs(x)"), {"x": 0.0}, "x")
        assert d == 1.0

    def test_minmax_tie_first_argument(self):
        _, d = dual(E.parse("max(x, 2*x)"), {"x": 0.0}, "x")
        assert d == 1.0
        _, d = dual(E.parse("min(x, 2*x)"), {"x": 0.0}, "x")
        assert d == 1.0

    def test_unseeded_variable_zero(self):
        _, d = dual(E.parse("x + s"), {"x": 1.0, "s": 2.0}, "x")
        assert d == 1.0

    def test_negative_base_integer_power(self):
        v, d = dual(E.parse("lambda^2"), {"lambda": -3.0}, "lambda")
        assert v == pytest.approx(9.0)
        assert d == pytest.approx(-6.0)

    def test_array_dual(self):
        lam = np.linspace(-1, 1, 11)
        v, d = dual(E.parse("lambda^3"), {"lambda": lam}, "lambda")
        assert np.allclose(d, 3 * lam ** 2)

    @pytest.mark.parametrize("text, want", [
        ("lambda^3", lambda lam: 6.0 * lam),
        ("sin(lambda)", lambda lam: -np.sin(lam))])
    def test_second_derivative(self, text, want):
        # diff of a diff: the rules of its internal nodes, bit for bit here
        lam = np.linspace(-2.0, 2.0, 41)
        second = E.diff(E.diff(E.parse(text), "lambda"), "lambda")
        assert np.array_equal(E.evaluate(second, {"lambda": lam}), want(lam))
        assert E.evaluate(second, {"lambda": 0.5}) == want(0.5)


def test_dual_matches_central_difference_on_random_expressions():
    rng = np.random.default_rng(20240811)
    checked = 0
    while checked < 100:
        expr = random_expr(rng, depth=rng.integers(1, 7), smooth=True)
        point = random_bindings(rng)
        if not usable_point(expr, point, "lambda"):
            continue
        _, d = dual(expr, point, "lambda")
        fd = central_difference(expr, point, "lambda")
        assert abs(float(d) - float(fd)) <= 1e-6 * (1.0 + abs(float(d)))
        checked += 1


def test_print_round_trip_pointwise():
    rng = np.random.default_rng(77)
    for _ in range(60):
        expr = random_expr(rng, depth=rng.integers(1, 6), smooth=False)
        text = E.to_string(expr)
        back = E.parse(text)
        agreements = 0
        for _ in range(32):
            point = random_bindings(rng)
            try:
                a = E.evaluate(expr, point)
            except E.DomainError:
                continue
            b = E.evaluate(back, point)
            if np.isfinite(a) and np.isfinite(b):
                assert float(a) == pytest.approx(float(b), rel=1e-12,
                                                 abs=1e-12), text
                agreements += 1
        assert agreements > 0, f"no usable points for {text}"


def test_parse_is_deterministic():
    assert E.parse("1 + lambda*2") == E.parse("1 + lambda*2")


# --- compile against the tree-walking interpreter it replaced ---------------
#
# The reference below is the recursive evaluator `compile` replaced, with
# its power check and the refusal of a non-finite value of finite bindings:
# a compiled expression must return the same value, bit for bit and of the
# same type, or raise the same exception class.

def _check_pow_reference(base, expo, result):
    bad = ~np.isfinite(result) & np.isfinite(base) & np.isfinite(expo)
    if np.any(bad):
        raise E.DomainError("invalid power")


def _evaluate_reference(expr, bindings):
    """The tree walk, and a non-finite value of finite bindings refused."""
    with np.errstate(over="ignore", invalid="ignore"):
        r = _walk_reference(expr, bindings)
    free = _free_reference(expr)
    if not np.all(np.isfinite(r)) and all(
            np.all(np.isfinite(bindings[name])) for name in free):
        raise E.DomainError("overflow")
    return r


def _free_reference(expr):
    if isinstance(expr, E.Num):
        return set()
    if isinstance(expr, E.Var):
        return {expr.name}
    if isinstance(expr, E.Neg):
        return _free_reference(expr.arg)
    if isinstance(expr, E.BinOp):
        return _free_reference(expr.lhs) | _free_reference(expr.rhs)
    return set().union(*map(_free_reference, expr.args))


def _walk_reference(expr, bindings):
    if isinstance(expr, E.Num):
        return expr.value
    if isinstance(expr, E.Var):
        try:
            return bindings[expr.name]
        except KeyError:
            raise E.UnboundVariableError(expr.name) from None
    if isinstance(expr, E.Neg):
        return -_walk_reference(expr.arg, bindings)
    if isinstance(expr, E.BinOp):
        a = _walk_reference(expr.lhs, bindings)
        b = _walk_reference(expr.rhs, bindings)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        if expr.op == "*":
            return a * b
        if expr.op == "/":
            if np.any(np.asarray(b) == 0):
                raise E.DomainError("division by zero")
            return a / b
        with np.errstate(all="ignore"):
            r = np.power(a, b)
        _check_pow_reference(np.asarray(a, dtype=float),
                             np.asarray(b, dtype=float), np.asarray(r))
        return r
    a = _walk_reference(expr.args[0], bindings)
    if expr.func == "sqrt":
        if np.any(np.asarray(a) < 0):
            raise E.DomainError("sqrt of a negative number")
        return np.sqrt(a)
    if expr.func in ("sin", "cos", "exp", "tanh", "abs"):
        return getattr(np, expr.func)(a)
    b = _walk_reference(expr.args[1], bindings)
    return np.minimum(a, b) if expr.func == "min" else np.maximum(a, b)


def _outcome(fn, *args):
    """(type, dtype, shape, bytes) of a result, or the exception class."""
    try:
        with np.errstate(all="ignore"):
            r = fn(*args)
    except (E.DomainError, E.UnboundVariableError) as exc:
        return type(exc)
    a = np.asarray(r)
    return type(r), a.dtype, a.shape, a.tobytes()


def _array_bindings(rng):
    # open axes of different lengths, so results broadcast
    shapes = {"lambda": (5, 1), "x": (1, 4), "s": (4,), "t": (5, 4)}
    return {name: rng.uniform(-2.0, 2.0, shape)
            for name, shape in shapes.items()}


@pytest.mark.parametrize("smooth", [True, False])
def test_compiled_equals_the_tree_walk_bit_for_bit(smooth):
    rng = np.random.default_rng(6 if smooth else 7)
    raised = 0
    for _ in range(300):
        expr = random_expr(rng, depth=rng.integers(1, 7), smooth=smooth)
        fn, free = E.compile(expr)
        for bindings in (random_bindings(rng), _array_bindings(rng),
                         {"lambda": 0.0, "x": 0.0, "s": -1.0, "t": 1.0}):
            want = _outcome(_evaluate_reference, expr, bindings)
            assert _outcome(fn, bindings) == want, E.to_string(expr)
            assert _outcome(E.evaluate, expr, bindings) == want
            raised += isinstance(want, type)
            # only the free variables are read
            assert _outcome(fn, {n: bindings[n] for n in free}) == want
    if not smooth:
        assert raised > 0  # some points must reach a domain error


def test_free_variables():
    assert E.compile(E.parse("2 + 3"))[1] == frozenset()
    assert E.compile(E.parse("lambda^2/2"))[1] == {"lambda"}
    assert E.compile(E.parse("min(x, sqrt(t)) - -s"))[1] == {"x", "s", "t"}


@pytest.mark.parametrize("text, bindings, error", [
    ("1/x", {"x": 0.0}, E.DomainError),
    ("x/(s-s)", {"x": 1.0, "s": 0.3}, E.DomainError),
    ("1/x", {"x": np.array([1.0, 0.0])}, E.DomainError),
    ("x/0", {"x": 1.0}, E.DomainError),
    ("x/0", {}, E.UnboundVariableError),
    ("sqrt(x)", {"x": -1e-300}, E.DomainError),
    ("sqrt(x)", {"x": np.array([4.0, -1.0])}, E.DomainError),
    ("x^0.5", {"x": -2.0}, E.DomainError),
    ("x^(-1)", {"x": np.array([1.0, 0.0])}, E.DomainError),
    ("(lambda*1e200)^2", {"lambda": 1.0}, E.DomainError),
    ("(lambda*1e200)^2", {"lambda": np.array([1e-200, 1.0])}, E.DomainError),
    ("x + s", {"x": 1.0}, E.UnboundVariableError),
])
def test_compiled_raises_what_the_tree_walk_raises(text, bindings, error):
    expr = E.parse(text)
    assert _outcome(_evaluate_reference, expr, bindings) is error
    assert _outcome(E.compile(expr)[0], bindings) is error
    assert _outcome(E.evaluate, expr, bindings) is error


@pytest.mark.parametrize("text, bindings", [
    ("exp(lambda)", {"lambda": [1000.0]}),
    ("lambda*lambda", {"lambda": 1e200}),
    ("exp(1000*x)*0", {"x": np.linspace(0.0, 1.0, 5)}),
    ("x*1e200 - x*1e200*2", {"x": 1e200}),
    ("1e400", {}),
])
def test_a_non_finite_value_of_finite_bindings_raises(text, bindings):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(E.DomainError, match="overflow"):
            E.evaluate(E.parse(text), bindings)


def test_an_unchecked_closure_leaves_the_non_finite_value_to_its_caller():
    # the march's closures: the step tests what it computes, under errstate
    fn, free = E.compile(E.parse("exp(lambda)"), finite=False)
    assert free == {"lambda"}
    with np.errstate(over="ignore"):
        assert fn({"lambda": np.array([0.0, 1000.0])}).tolist() == \
            [1.0, np.inf]
    with pytest.raises(E.DomainError, match=r"\(overflow\)"):
        E.compile(E.parse("(lambda*1e200)^2"), finite=False)[0](
            {"lambda": 1.0})


def test_an_overflow_that_ends_finite_evaluates_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert E.evaluate(E.parse("1/exp(lambda)"), {"lambda": 1000.0}) == 0.0
        assert E.sup(E.parse("min(exp(x), 2)"), {"x": (0.0, 1000.0)}) == 2.0
    with pytest.raises(E.DomainError):
        E.sup(E.parse("exp(x)"), {"x": (0.0, 1000.0)})


@pytest.mark.parametrize("text, part", [
    ("exp(lambda)", "value"),
    # the value stays below 1e9, its slope overflows
    ("sin(1e300*lambda)*1e9", "derivative"),
])
def test_a_non_finite_dual_of_finite_bindings_raises(text, part):
    expr = E.parse(text)
    slope = E.diff(expr, "lambda")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if part == "derivative":
            assert abs(E.evaluate(expr, {"lambda": 1000.0})) <= 1e9
        for tree in (slope,) if part == "derivative" else (expr, slope):
            with pytest.raises(E.DomainError,
                               match="overflow to a non-finite value"):
                E.evaluate(tree, {"lambda": 1000.0})
        with pytest.raises(E.DomainError, match="non-finite"):
            E.sup(slope, {"lambda": (0.0, 1000.0)})
        # a non-finite binding is the caller's to refuse
        assert dual(E.parse("exp(lambda)"), {"lambda": np.inf},
                    "lambda") == (np.inf, np.inf)
    with np.errstate(over="ignore"):
        fn = E.compile(E.diff(E.parse("exp(lambda)"), "lambda"),
                       finite=False)[0]
        assert fn({"lambda": 1000.0}) == np.inf


def test_power_of_a_non_finite_operand_stays_allowed():
    # the check flags non-finite results of finite operands only
    for text, x in (("x^2", np.inf), ("x^2", np.nan), ("2^x", np.inf)):
        expr = E.parse(text)
        want = _outcome(_evaluate_reference, expr, {"x": x})
        assert not isinstance(want, type)
        assert _outcome(E.compile(expr)[0], {"x": x}) == want


# --- diff against the dual-number interpreter it replaced ------------------
#
# `diff` took over from a dual mode of `compile`, which took over from a
# second recursive walk of the AST; the copy below is that walk.  The value
# and the derivative, `compile(expr)` and `compile(diff(expr, seed))`, must
# match it bit for bit and in type, or the same exception class must be
# raised.  Its min and max take their value as the value walk does.

def _dual_reference(expr, bindings, seed):
    if isinstance(expr, E.Num):
        return expr.value, 0.0
    if isinstance(expr, E.Var):
        try:
            v = bindings[expr.name]
        except KeyError:
            raise E.UnboundVariableError(expr.name) from None
        if expr.name == seed:
            return v, np.ones_like(np.asarray(v, dtype=float)) if np.ndim(v) else 1.0
        return v, np.zeros_like(np.asarray(v, dtype=float)) if np.ndim(v) else 0.0
    if isinstance(expr, E.Neg):
        v, d = _dual_reference(expr.arg, bindings, seed)
        return -v, -d
    if isinstance(expr, E.BinOp):
        av, ad = _dual_reference(expr.lhs, bindings, seed)
        bv, bd = _dual_reference(expr.rhs, bindings, seed)
        if expr.op == "+":
            return av + bv, ad + bd
        if expr.op == "-":
            return av - bv, ad - bd
        if expr.op == "*":
            return av * bv, ad * bv + av * bd
        if expr.op == "/":
            if np.any(np.asarray(bv) == 0):
                raise E.DomainError("division by zero")
            return av / bv, (ad * bv - av * bd) / (bv * bv)
        with np.errstate(all="ignore"):
            v = np.power(av, bv)
            _check_pow_reference(np.asarray(av, dtype=float),
                                 np.asarray(bv, dtype=float), np.asarray(v))
            if np.all(np.asarray(bd) == 0):
                d = bv * np.power(av, bv - 1) * ad
                d = np.where(np.asarray(ad) == 0, 0.0, d)
            else:
                if np.any(np.asarray(av) <= 0):
                    raise E.DomainError("variable exponent, base <= 0")
                d = v * (bd * np.log(av) + bv * ad / av)
        if np.ndim(d) == 0:
            d = float(d)
        return v, d
    av, ad = _dual_reference(expr.args[0], bindings, seed)
    if expr.func == "sin":
        return np.sin(av), np.cos(av) * ad
    if expr.func == "cos":
        return np.cos(av), -np.sin(av) * ad
    if expr.func == "exp":
        v = np.exp(av)
        return v, v * ad
    if expr.func == "tanh":
        v = np.tanh(av)
        return v, (1.0 - v * v) * ad
    if expr.func == "sqrt":
        if np.any(np.asarray(av) < 0):
            raise E.DomainError("sqrt of a negative number")
        v = np.sqrt(av)
        with np.errstate(all="ignore"):
            d = ad / (2.0 * v)
        return v, d
    if expr.func == "abs":
        sign = np.where(np.asarray(av) >= 0, 1.0, -1.0)
        return np.abs(av), sign * ad
    bv, bd = _dual_reference(expr.args[1], bindings, seed)
    if expr.func == "min":
        v, take_a = np.minimum(av, bv), np.asarray(av) <= np.asarray(bv)
    else:
        v, take_a = np.maximum(av, bv), np.asarray(av) >= np.asarray(bv)
    return v, (np.where(take_a, ad, bd) if np.ndim(take_a)
               else (ad if take_a else bd))


def _eval_dual_reference(expr, bindings, seed):
    """The dual walk, and a non-finite value or derivative of finite
    bindings refused."""
    v, d = _dual_reference(expr, bindings, seed)
    if not (np.all(np.isfinite(v)) and np.all(np.isfinite(d))) and all(
            np.all(np.isfinite(bindings[name]))
            for name in _free_reference(expr)):
        raise E.DomainError("overflow")
    return v, d


def _dual_outcome(fn, *args):
    """The value's and the derivative's (type, dtype, shape, bytes), or the
    exception class."""
    try:
        with np.errstate(all="ignore"):
            pair = fn(*args)
    except (E.DomainError, E.UnboundVariableError) as exc:
        return type(exc)
    return tuple((type(r), np.asarray(r).dtype, np.shape(r),
                  np.asarray(r).tobytes()) for r in pair)


def _mixed_bindings(rng):
    # lambda and t on arrays, x and s scalars
    return {"lambda": rng.uniform(-2.0, 2.0, (3, 1)), "x": 0.0,
            "s": float(rng.uniform(-2.0, 2.0)),
            "t": rng.uniform(-2.0, 2.0, (4,))}


@pytest.mark.parametrize("smooth", [True, False])
def test_dual_mode_equals_the_dual_walk_bit_for_bit(smooth):
    rng = np.random.default_rng(16 if smooth else 17)
    raised = 0
    for _ in range(300):
        expr = random_expr(rng, depth=rng.integers(1, 7), smooth=smooth)
        for bindings in (random_bindings(rng), _array_bindings(rng),
                         {"lambda": 0.0, "x": 0.0, "s": -1.0, "t": 1.0},
                         _mixed_bindings(rng)):
            for seed in ("lambda", "x"):
                want = _dual_outcome(_eval_dual_reference, expr, bindings,
                                     seed)
                (value, free), (slope, reads) = (
                    E.compile(expr), E.compile(E.diff(expr, seed)))

                def pair(b):
                    return value(b), slope(b)
                assert _dual_outcome(pair, bindings) == want, \
                    E.to_string(expr)
                assert _dual_outcome(dual, expr, bindings, seed) == want
                raised += isinstance(want, type)
                # only the free variables are read
                assert reads == free
                assert _dual_outcome(pair, {n: bindings[n] for n in free}) \
                    == want
    if not smooth:
        assert raised > 0  # some points must reach a domain error


def test_dual_of_a_variable_exponent_needs_a_positive_base():
    expr = E.parse("x^lambda")
    for x in (0.0, -1.0):
        bindings = {"x": x, "lambda": 2.0}
        assert _dual_outcome(_dual_reference, expr, bindings, "lambda") \
            is E.DomainError
        with pytest.raises(E.DomainError, match="positive base"):
            dual(expr, bindings, "lambda")


def test_a_derivative_reads_what_its_expression_reads():
    # the seed of x is 0, shaped like x's binding, and x must be bound
    slope, free = E.compile(E.diff(E.parse("x"), "lambda"))
    assert free == {"x"} and slope({"x": 1.0}) == 0.0
    assert slope({"x": np.ones((2, 3))}).tolist() == [[0.0] * 3] * 2
    with pytest.raises(E.UnboundVariableError):
        slope({"lambda": 1.0})


@pytest.mark.parametrize("text, x, cause", [
    ("(x*1e200)^2", 1.0, r"\(overflow\)"),
    ("x^(-1)", 0.0, r"\(zero base with negative exponent\)"),
    ("x^0.5", -2.0, r"\(negative base with fractional exponent\)"),
    ("x^(-1.5)", np.array([0.0, -1.0, 1e-300]),
     r"\(zero base with negative exponent; negative base with fractional "
     r"exponent; overflow\)"),
])
def test_a_power_error_names_its_cause(text, x, cause):
    expr = E.parse(text)
    with pytest.raises(E.DomainError, match=cause):
        E.evaluate(expr, {"x": x})
    with pytest.raises(E.DomainError, match=cause):
        dual(expr, {"x": x}, "x")


# --- enclosures -----------------------------------------------------------------

def _points_of(lo, hi, k=4):
    """k points per axis of the box [lo, hi], its corners included, as
    open axes; clipped, so that no rounding puts one outside the box."""
    u = np.linspace(0.0, 1.0, k)
    return {name: np.clip(lo[i] * (1.0 - u) + hi[i] * u, lo[i], hi[i])
            .reshape([k if j == i else 1 for j in range(len(ALL_VARS))])
            for i, name in enumerate(ALL_VARS)}


@pytest.mark.parametrize("smooth", [True, False])
def test_an_enclosure_holds_every_point_value_and_dual(smooth):
    # three random boxes in one batch: wherever the enclosures of an
    # expression and of a derivative of it do not raise, both compile and
    # evaluate at every point of a box, and their values lie in the box's
    # ranges; the derivatives are by lambda, by x, and by lambda twice
    rng = np.random.default_rng(40 if smooth else 41)
    outcomes = set()
    for _ in range(120):
        expr = random_expr(rng, depth=rng.integers(1, 6), smooth=smooth)
        ends = np.sort(rng.uniform(-2.0, 2.0, (2, len(ALL_VARS), 3)), axis=0)
        box = dict(zip(ALL_VARS, zip(*ends)))
        slope = E.diff(expr, "lambda")
        for trees in ((expr,), (expr, slope), (expr, E.diff(expr, "x")),
                      (expr, slope, E.diff(slope, "lambda"))):
            try:
                ranges = [E.enclose(tree, box) for tree in trees]
            except E.DomainError:
                outcomes.add("raised")
                continue
            outcomes.add("enclosed")
            for j in range(3):
                points = _points_of(ends[0, :, j], ends[1, :, j])
                for tree, (lo, hi) in zip(trees, ranges):
                    with np.errstate(all="ignore"):
                        v = E.compile(tree)[0](points)
                    lo, hi = (np.broadcast_to(e, (3,))[j] for e in (lo, hi))
                    assert np.all((lo <= v) & (v <= hi)), (
                        E.to_string(expr), E.to_string(tree), j)
    # a smooth expression raises only where its box reaches a zero base
    # of a power's derivative, as the rule does at that point
    assert outcomes == {"enclosed", "raised"}


@pytest.mark.parametrize("text, box, error", [
    ("1/x", {"x": (-1.0, 1.0)}, "division by zero"),
    ("1/x", {"x": (0.0, 1.0)}, "division by zero"),
    ("1/x", {"x": (0.5, 1.0)}, None),
    ("x/(s - 0.5)", {"x": (0.0, 1.0), "s": (0.0, 1.0)}, "division by zero"),
    ("x/(s - 0.5)", {"x": (0.0, 1.0), "s": (0.6, 1.0)}, None),
    # one box of a batch is enough
    ("x/(s - 0.5)", {"x": (0.0, 1.0), "s": (np.array([0.6, 0.2]), 1.0)},
     "division by zero"),
    ("sqrt(x - 2)", {"x": (0.0, 1.0)}, "sqrt of a negative"),
    ("sqrt(x)", {"x": (0.0, 1.0)}, None),
    ("sqrt(x - 0.25)", {"x": (0.5, 1.0)}, None),
])
def test_an_enclosure_raises_where_its_box_reaches_a_domain_error(
        text, box, error):
    # a divisor range that holds 0, or a sqrt whose argument is negative
    # on the whole box
    expr = E.parse(text)
    if error is None:
        assert np.all(np.isfinite(E.enclose(expr, box)))
        return
    # enclose takes a batch of boxes, sup one box; d / dx divides by the
    # square of the divisor, and by twice the root
    one = all(np.ndim(v) == 0 for r in box.values() for v in r)
    for tree in (expr, E.diff(expr, "x")):
        with pytest.raises(E.DomainError, match=error):
            E.enclose(tree, box)
        if one:
            with pytest.raises(E.DomainError, match=error):
                E.sup(tree, box)


@pytest.mark.parametrize("text, box, want", [
    ("sqrt(x)", (-1e-300, 1.0), 1.0),
    ("sqrt(x - 0.25)", (0.0, 1.0), 0.75 ** 0.5),
    ("x^1.5", (-1.0, 1.0), 1.0),
])
def test_an_enclosed_root_holds_the_values_where_it_is_defined(
        text, box, want):
    # the part of the argument's range at or above 0: a box that reaches a
    # negative argument holds points that raise, so sup raises there, as
    # its point value at the lower corner does
    expr = E.parse(text)
    lo, hi = E.enclose(expr, {"x": box})
    assert lo == 0.0 and want <= hi <= want * (1 + 1e-15)
    with pytest.raises(E.DomainError, match="negative"):
        E.sup(expr, {"x": box})


@pytest.mark.parametrize("text, box, want", [
    # outward rounding takes x*x and x^2 past 1 at x = 1, and x - x^2 is
    # enclosed as x - x*x on a part, below 0 near x = 0: each argument's
    # range reaches below 0 on a part at a domain edge, where no point is
    # negative
    ("sqrt(1 - x*x)", (0.0, 1.0), 1.0),
    ("sqrt(1 - x^2)", (0.0, 1.0), 1.0),
    ("sqrt(x - x^2)", (0.0, 1.0), 0.5),
    ("sqrt(x - x^2)", (0.0, 1 / 16), (1 / 16 - 1 / 256) ** 0.5),
    ("(1 - x*x)^0.5", (0.0, 1.0), 1.0),
])
def test_a_root_that_reaches_its_domain_edge_is_enclosed(text, box, want):
    expr = E.parse(text)
    assert want <= E.sup(expr, {"x": box}) <= want * (1 + 1e-3)


def test_a_pole_between_the_points_raises_after_the_cuts():
    # 1/3 lies on no cut of (0, 1): the parts around it are cut until they
    # are too small or the budget ends, and still reach the pole
    with pytest.raises(E.DomainError, match="division by zero"):
        E.sup(E.parse("1/(3*x - 1)"), {"x": (0.0, 1.0)})
    # x - x*x + 1e-6 is enclosed below 0 on the parts next to x = 0 and
    # x = 1 of the first cut, by the dependency of x and x*x, and above 0
    # on the finer parts they are cut into
    got = E.sup(E.parse("1/(x - x*x + 1e-6)"), {"x": (0.0, 1.0)})
    assert 1e6 <= got <= 1e6 * (1 + 1e-3)


def test_zero_width_cuts_only_where_the_enclosure_may_vanish():
    box = {"x": (0.0, 1.0)}
    # no value near 0 on the box: one enclosure
    assert E.zero_width(E.parse("1 + x^2"), box, 1e-3) == (0.0, 1)
    # a root and a pole at 1/3, on no cut of (0, 1): only the parts around
    # it are cut again, until their width is at most 1e-3
    for text in ("3*x - 1", "1/(3*x - 1)"):
        width, spent = E.zero_width(E.parse(text), box, 1e-3)
        assert 0.0 < width <= 1e-3 and spent < 100
    # 0 everywhere: every part holds 0 until the budget of parts ends
    assert E.zero_width(E.parse("x - x"), box, 1e-3) == (1.0, 2 ** 13 - 1)


def test_on_slope_names_the_derivative_in_its_error():
    assert E.on_slope(E.parse("lambda^2/2"), E.evaluate,
                      {"lambda": 3.0}) == 3.0
    with pytest.raises(E.DomainError, match=(
            r"^d/dlambda of sin\(1e\+300 \* lambda\) \* 1000000000.0: "
            "overflow to a non-finite value$")):
        E.on_slope(E.parse("sin(1e300*lambda)*1e9"), E.sup,
                   {"lambda": (-1.0, 1.0)})


@pytest.mark.parametrize("x", [0.0, np.float64(0.0), np.array([1.0, 0.0])])
def test_a_derivative_at_a_pole_is_a_domain_error(x):
    # the quotient rule divides by x*x unchecked, and the non-finite
    # derivative is refused, for a Python float too
    with pytest.raises(E.DomainError, match="non-finite"):
        E.evaluate(E.diff(E.parse("1/x"), "x"), {"x": x})


def test_a_derivative_encloses_as_its_rules_state():
    box = {"lambda": (0.0, 1.0), "x": (1.0, 2.0), "s": (-1.0, 1.0)}
    # what does not read lambda has the derivative 0, exactly, and is not
    # walked: 1/s reaches its pole on the box, and 1/s alone raises
    assert E.enclose(E.diff(E.parse("sin(x)*s + 1/s"), "lambda"),
                     box) == (0.0, 0.0)
    with pytest.raises(E.DomainError, match="division by zero"):
        E.enclose(E.parse("1/s"), box)
    # a product encloses the one term whose factor reads lambda
    assert E.enclose(E.diff(E.parse("x*lambda"), "lambda"), box) == \
        E.enclose(E.parse("x*1"), box)
    # 1 - tanh^2 encloses the square, which holds no negative value
    lo, hi = E.enclose(E.diff(E.parse("tanh(lambda)"), "lambda"),
                       {"lambda": (-1.0, 1.0)})
    assert 1.0 - np.tanh(1.0) ** 2 < lo + 1e-12 and hi < 1.0 + 1e-12


def test_the_enclosed_power_takes_the_rule_of_its_exponent():
    # s^(lambda s) reads the seed in its exponent: on the slice s = 0 its
    # value is 1, and its rule needs a positive base there, where the
    # exponent's derivative s is 0 and the rule of a constant exponent
    # would accept the base
    expr = E.parse("s^(lambda*s)")
    box = {"s": (0.0, 0.0), "lambda": (-1.0, 1.0)}
    assert E.sup(expr, box) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(E.DomainError, match="positive base"):
        E.sup(E.diff(expr, "lambda"), box)


# --- one expression graph ---------------------------------------------------

def _operands(expr):
    if isinstance(expr, E.Neg):
        return (expr.arg,)
    if isinstance(expr, E.BinOp):
        return (expr.lhs, expr.rhs)
    return expr.args if isinstance(expr, E.Call) else ()


def _sizes(expr):
    """(nodes a walk of the tree visits, distinct node objects)."""
    walked, seen, stack = 0, set(), [expr]
    while stack:
        node = stack.pop()
        walked += 1
        seen.add(id(node))
        stack.extend(_operands(node))
    return walked, len(seen)


TEXT = f"{BETA_TEXT} + sin(lambda)"


def test_equal_trees_are_one_node():
    assert E.parse(TEXT) is E.parse(TEXT)
    # built in code or parsed, the same operands give the same node
    assert E.BinOp("*", E.Num(0.5), E.Var("x")) is E.parse("0.5*x")
    assert E.BinOp(rhs=E.Num(2.0), op="*", lhs=E.Var(name="x")) is \
        E.BinOp("*", E.Var("x"), rhs=E.Num(value=2.0)) is E.parse("x*2")
    for cls in (E.Num, E.Var, E.Neg, E.BinOp, E.Call):
        assert cls.__eq__ is object.__eq__
        assert cls.__hash__ is object.__hash__


def test_a_derivative_is_one_node_without_its_memo():
    expr = E.parse(TEXT)
    slope = E.diff(expr, "lambda")
    E._diff.cache_clear()  # the graph, not the memo, makes them one
    assert E.diff(expr, "lambda") is slope


def test_a_copy_or_a_pickle_of_a_node_is_the_node():
    expr = E.parse(TEXT)
    assert copy.deepcopy(expr) is expr and copy.copy(expr) is expr
    assert pickle.loads(pickle.dumps(expr)) is expr


@pytest.mark.parametrize("zeros", [(0.0, -0.0), (-0.0, 0.0)])
def test_each_zero_compiles_to_its_own_sign(zeros):
    assert E.Num(0.0) is not E.Num(-0.0)
    for zero in zeros:
        value = E.compile(E.Num(zero))[0]({})
        assert math.copysign(1.0, value) == math.copysign(1.0, zero)


@pytest.mark.parametrize("ones", [(1, 1.0), (1.0, 1)])
def test_an_int_and_a_float_literal_each_keep_their_type(ones):
    assert E.Num(1) is not E.Num(1.0)
    for one in ones:
        value = E.compile(E.Num(one))[0]({})
        assert type(value) is type(one) and value == 1


def test_the_bench_beta_derivatives_are_graphs_of_their_distinct_nodes():
    beta = E.parse(BETA_TEXT)
    slope = E.diff(beta, "lambda")
    assert _sizes(slope) == (351, 86)
    assert _sizes(E.diff(slope, "lambda")) == (3297, 240)


def _computed(expr, ranges):
    """How many distinct nodes of each operation a compiled call computes:
    a ``same`` computes one of its trees, and a division by a nonzero
    literal is settled when it is compiled, outside the table."""
    seen, want = set(), collections.Counter()

    def walk(node):
        while isinstance(node, E.Call) and node.func == "same":
            node = node.args[ranges]
        if id(node) in seen or not _operands(node):
            return
        seen.add(id(node))
        name = ("neg" if isinstance(node, E.Neg) else
                node.op if isinstance(node, E.BinOp) else node.func)
        if not (name == "/" and isinstance(node.rhs, E.Num)
                and node.rhs.value != 0):
            want[name] += 1
        for operand in _operands(node):
            walk(operand)
    walk(expr)
    return want


@pytest.mark.parametrize("ranges", [False, True])
def test_a_compiled_call_applies_each_distinct_operation_once(
        monkeypatch, ranges):
    curvature = E.diff(E.diff(E.parse(BETA_TEXT), "lambda"), "lambda")
    applied, table = collections.Counter(), "_RANGE" if ranges else "_VALUE"

    def counted(name, op):
        def count(*args):
            applied[name] += 1
            return op(*args)
        return count
    monkeypatch.setattr(E, table, {name: counted(name, op) for name, op
                                   in getattr(E, table).items()})
    lam = np.linspace(-1.9, 1.9, 7)
    if ranges:
        E.enclose(curvature, {"lambda": (lam, lam + 0.01), "x": (0.4, 0.5),
                              "s": (0.5, 0.6)})
    else:
        E.compile(curvature)[0]({"lambda": lam, "x": 0.4, "s": 0.6})
    assert applied == _computed(curvature, ranges)
    assert sum(applied.values()) < 240
