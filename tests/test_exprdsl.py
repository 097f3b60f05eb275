import math
import warnings

import numpy as np
import pytest

from upkolmo import exprdsl as E
from genexpr import central_difference, random_bindings, random_expr, \
    usable_point


def ev(text, **bindings):
    return E.evaluate(E.parse(text), bindings)


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
        v, d = E.eval_dual(E.parse("lambda^2/2"), {"lambda": 3.0}, "lambda")
        assert (v, d) == (pytest.approx(4.5), pytest.approx(3.0))

    def test_sin(self):
        v, d = E.eval_dual(E.parse("sin(lambda)"), {"lambda": 0.0}, "lambda")
        assert (v, d) == (pytest.approx(0.0), pytest.approx(1.0))

    def test_product_rule(self):
        # d/dl [l e^l] = (1 + l) e^l -> 2e at l = 1
        v, d = E.eval_dual(E.parse("lambda*exp(lambda)"), {"lambda": 1.0},
                           "lambda")
        assert v == pytest.approx(math.e)
        assert d == pytest.approx(2.0 * math.e)
        fd = central_difference(E.parse("lambda*exp(lambda)"),
                                {"lambda": 1.0}, "lambda")
        assert d == pytest.approx(fd, abs=1e-8)

    def test_abs_kink_right_limit(self):
        _, d = E.eval_dual(E.parse("abs(x)"), {"x": 0.0}, "x")
        assert d == 1.0

    def test_minmax_tie_first_argument(self):
        _, d = E.eval_dual(E.parse("max(x, 2*x)"), {"x": 0.0}, "x")
        assert d == 1.0
        _, d = E.eval_dual(E.parse("min(x, 2*x)"), {"x": 0.0}, "x")
        assert d == 1.0

    def test_unseeded_variable_zero(self):
        _, d = E.eval_dual(E.parse("x + s"), {"x": 1.0, "s": 2.0}, "x")
        assert d == 1.0

    def test_negative_base_integer_power(self):
        v, d = E.eval_dual(E.parse("lambda^2"), {"lambda": -3.0}, "lambda")
        assert v == pytest.approx(9.0)
        assert d == pytest.approx(-6.0)

    def test_array_dual(self):
        lam = np.linspace(-1, 1, 11)
        v, d = E.eval_dual(E.parse("lambda^3"), {"lambda": lam}, "lambda")
        assert np.allclose(d, 3 * lam ** 2)


def test_dual_matches_central_difference_on_random_expressions():
    rng = np.random.default_rng(20240811)
    checked = 0
    while checked < 100:
        expr = random_expr(rng, depth=rng.integers(1, 7), smooth=True)
        point = random_bindings(rng)
        if not usable_point(expr, point, "lambda"):
            continue
        _, dual = E.eval_dual(expr, point, "lambda")
        fd = central_difference(expr, point, "lambda")
        assert abs(float(dual) - float(fd)) <= 1e-6 * (1.0 + abs(float(dual)))
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
        assert E.sample_sup(E.parse("min(exp(x), 2)"), ("x",),
                            [(0.0, 1000.0)]) == 2.0
    with pytest.raises(E.DomainError):
        E.sample_sup(E.parse("exp(x)"), ("x",), [(0.0, 1000.0)])


def test_power_of_a_non_finite_operand_stays_allowed():
    # the check flags non-finite results of finite operands only
    for text, x in (("x^2", np.inf), ("x^2", np.nan), ("2^x", np.inf)):
        expr = E.parse(text)
        want = _outcome(_evaluate_reference, expr, {"x": x})
        assert not isinstance(want, type)
        assert _outcome(E.compile(expr)[0], {"x": x}) == want


# --- the dual mode against the dual-number interpreter it replaced ----------
#
# `compile(expr, wrt)` took over from a second recursive walk of the AST;
# the copy below is that walk.  Value and derivative must match it bit for
# bit and in type, or the same exception class must be raised.

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
        take_a = np.asarray(av) <= np.asarray(bv)
    else:
        take_a = np.asarray(av) >= np.asarray(bv)
    return (np.where(take_a, av, bv), np.where(take_a, ad, bd)) \
        if np.ndim(take_a) else ((av, ad) if take_a else (bv, bd))


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
                want = _dual_outcome(_dual_reference, expr, bindings, seed)
                fn, free = E.compile(expr, seed)
                assert _dual_outcome(fn, bindings) == want, E.to_string(expr)
                assert _dual_outcome(E.eval_dual, expr, bindings, seed) == want
                raised += isinstance(want, type)
                # only the free variables are read
                assert free == E.compile(expr)[1]
                assert _dual_outcome(fn, {n: bindings[n] for n in free}) \
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
            E.eval_dual(expr, bindings, "lambda")


def test_dual_needs_its_seed_bound():
    with pytest.raises(E.UnboundVariableError):
        E.eval_dual(E.parse("x"), {"x": 1.0}, "lambda")


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
        E.eval_dual(expr, {"x": x}, "x")


# --- blocked sampling ----------------------------------------------------------
#
# `sample_sup` and `sample_min` evaluate a box in blocks of at most
# `ELEMENT_BUDGET` elements.  One evaluation over the whole box is the
# reference: the result must match it bit for bit, NaN included, or the
# same exception class must be raised.

BOX_NAMES = ("lambda", "x", "s", "t")
BOX_RANGES = [(-2.0, 2.0), (-1.5, 2.5), (0.0, 1.0), (-2.0, 0.5)]


def _whole_box(expr, names, ranges, n, wrt, reduce):
    dims = len(ranges)
    axes = {name: np.linspace(lo, hi, k).reshape(
                [k if j == i else 1 for j in range(dims)])
            for i, (name, (lo, hi), k) in enumerate(zip(names, ranges, n))}
    vals = E.compile(expr, wrt)[0](axes)
    if wrt is not None:
        vals = vals[1]
    return float(reduce(np.asarray(vals, dtype=float)))


def _bits(fn, *args, **kwargs):
    """A float's bits, one token for every NaN, or the exception class."""
    try:
        with np.errstate(all="ignore"):
            r = fn(*args, **kwargs)
    except (E.DomainError, E.UnboundVariableError) as exc:
        return type(exc)
    return "nan" if math.isnan(r) else np.float64(r).tobytes()


def _sup_and_min(expr, names, ranges, n, wrt):
    """(blocked, whole) outcomes of the sup of |.| and of the signed min;
    a min of zeros may differ in the sign of zero only, so it is compared
    as a float."""
    def signed(fn, *args, **kwargs):
        out = _bits(fn, *args, **kwargs)
        return np.frombuffer(out)[0] + 0.0 if isinstance(out, bytes) else out

    return ((_bits(E.sample_sup, expr, names, ranges, n=n, wrt=wrt),
             _bits(_whole_box, expr, names, ranges, n, wrt,
                   lambda v: np.max(np.abs(v)))),
            (signed(E.sample_min, expr, names, ranges, n=n, wrt=wrt),
             signed(_whole_box, expr, names, ranges, n, wrt, np.min)))


@pytest.mark.parametrize("smooth", [True, False])
def test_blocked_sampling_equals_one_whole_box_evaluation(smooth, monkeypatch):
    rng = np.random.default_rng(26 if smooth else 27)
    n = (6, 5, 4, 3)
    outcomes = set()
    # NaN at x = 2.5 alone, then a domain error in the first slice of s
    planted = [E.parse(text) for text in (
        "exp(400*x) - exp(400*x)", "max(exp(400*x) - exp(400*x), lambda)",
        "x / s", "sqrt(x)")]
    for expr in planted + [random_expr(rng, depth=rng.integers(1, 7),
                                       smooth=smooth) for _ in range(150)]:
        for wrt in (None, "lambda", "x"):
            # 1 and 7 elements cut every read axis into slices of one
            # point; 40 into slices of a few points; 1 << 16 leaves one block
            for budget in (1, 7, 40, 1 << 16):
                monkeypatch.setattr(E, "ELEMENT_BUDGET", budget)
                for got, want in _sup_and_min(expr, BOX_NAMES, BOX_RANGES, n,
                                              wrt):
                    assert got == want, (E.to_string(expr), wrt, budget)
                    outcomes.add(want if want == "nan"
                                 or isinstance(want, type) else "value")
    assert {"value", "nan", E.DomainError} <= outcomes


def test_blocked_sampling_at_the_module_budget():
    # 40 * 41 * 42 = 68,880 samples: more than one block of 65,536
    rng = np.random.default_rng(28)
    n = (40, 41, 42, 1)
    assert math.prod(n) > E.ELEMENT_BUDGET
    for _ in range(20):
        expr = random_expr(rng, depth=rng.integers(2, 6), smooth=False)
        for wrt in (None, "lambda"):
            for got, want in _sup_and_min(expr, BOX_NAMES, BOX_RANGES, n, wrt):
                assert got == want, E.to_string(expr)


def test_a_variable_exponent_samples_the_same_whole_and_blocked(monkeypatch):
    names, ranges = ("x", "lambda"), [(0.25, 2.0), (-1.0, 1.0)]
    expr = E.parse("x^lambda")
    whole = E.sample_sup(expr, names, ranges, n=64, wrt="lambda")
    assert whole == _whole_box(expr, names, ranges, (64, 64), "lambda",
                               lambda v: np.max(np.abs(v)))
    monkeypatch.setattr(E, "ELEMENT_BUDGET", 64)
    assert E.sample_sup(expr, names, ranges, n=64, wrt="lambda") == whole
    # The power's rule is the exponent's, whatever a slice holds: on the
    # slice s = 0 alone the exponent's derivative s is 0, where the rule
    # for a constant exponent would accept the base s = 0
    expr = E.parse("s^(lambda*s)")
    for budget in (1 << 16, 8):
        monkeypatch.setattr(E, "ELEMENT_BUDGET", budget)
        with pytest.raises(E.DomainError, match="positive base"):
            E.sample_sup(expr, ("s", "lambda"), [(0.0, 1.0), (-1.0, 1.0)],
                         n=(9, 8), wrt="lambda")
