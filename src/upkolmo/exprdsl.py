"""Arithmetic expression DSL for fluxes, sources and boundary/initial data.

Expressions are parsed into a small immutable AST over the variables
``lambda``, ``x``, ``s``, ``t``, the binary operators ``+ - * / ^``, unary
minus, and the functions ``sin cos exp tanh sqrt abs min max``.  Evaluation
is plain IEEE double arithmetic and broadcasts over numpy arrays, so the
same AST backs both scalar checks and whole-grid evaluation.

``compile(expr)`` is the only walk of the tree.  It returns a closure
and the expression's free variables (the names it reads); code that
evaluates one expression many times holds the closure, and
``evaluate(expr, bindings)`` is ``compile(expr)[0](bindings)``.  The
closure applies the same numpy operations in the same order as the tree,
so results are bit-identical, and keeps every domain check.  A division
by a nonzero literal is settled at compile time, and a power whose result
is all finite skips its three-mask test, which can only flag a non-finite
result: 0^negative, a negative base to a fractional exponent, or an
overflow such as ``lambda^2`` at 1e200 still raise ``DomainError``,
naming which of the three it found.  So does any other non-finite value
of finite bindings, such as ``exp(lambda)`` at 1000.

``diff(expr, var)`` returns d expr / d var as a tree, which every
function here takes, ``diff`` too.  Its rules transcribe forward-mode
dual numbers in their operation order, so its point values are a dual
walk's, bit for bit.  Rules that depend on a condition are Calls of
names ``parse`` cannot produce: ``seed``, d var / d var, 1 or 0 shaped
like the binding; ``^'``, e a^(e-1) da, 0 where da is, for an exponent
that does not read var (one that does takes ``log``, which refuses a
base <= 0); the picks ``abs'``, ``min'`` and ``max'``; and ``over``, the
rules' division, unchecked at points.  ``same`` is one function as two
trees, evaluated as the first and enclosed as the second: what does not
read var has the derivative 0 on a box, exactly and unwalked; a product
drops the term of such a factor; and b*b encloses as b^2.

The same walk, through ``_RANGE`` in place of ``_VALUE``, gives an
interval enclosure of the expression over boxes (Moore, *Interval
Analysis*, 1966; Tucker, *Validated Numerics*, 2011): ``enclose``
returns (lo, hi) ranges that hold every point value the compiled
expression takes in each box of a batch, rounded outward, and ``sup``
bounds max |expr| (or max expr) over one box, cutting it into parts that
it encloses as one batch, and cutting again only the loose ones, those
whose bound exceeds the point values found or that reach a pole, under a
fixed budget of parts; ``zero_width`` cuts only the parts that may
vanish and bounds their width.  Every bound read off a config's
expressions is one of the two, of the expression or of its ``diff``
(``on_slope`` names its errors), here as ``kernels`` needs them too.

``sup`` remembers each bound for the process, the one memo of a bound,
keyed on the expression, ``signed`` and the box's (name, (lo, hi)) items
in the caller's order: that order sets the order of the cut axes, which
can move a bound's last bits.  So a process encloses each bound it reads
once.  ``diff`` and the compiled closures are remembered too.

Precedence, tightest first: ``^`` (right-assoc), unary ``-``, ``* /``,
``+ -`` (left-assoc).  At the kinks of ``abs``/``min``/``max`` the
derivative takes the right-limit convention (``abs'(0) = +1``; ties in
``min``/``max`` resolve to the first argument).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expr", "Num", "Var", "Neg", "BinOp", "Call", "parse", "compile",
    "evaluate", "diff", "on_slope", "enclose", "sup", "zero_width",
    "to_string", "ExprSyntaxError", "UnboundVariableError", "DomainError",
    "VARIABLES", "FUNCTIONS",
]

VARIABLES = ("lambda", "x", "s", "t")
_FUNCS_1 = ("sin", "cos", "exp", "tanh", "sqrt", "abs")
_FUNCS_2 = ("min", "max")
FUNCTIONS = _FUNCS_1 + _FUNCS_2

class ExprSyntaxError(ValueError):
    """Malformed expression text.  Carries the byte offset of the fault."""

    def __init__(self, message, text, pos):
        self.offset = len(text[:pos].encode("utf-8"))
        self.expected = message
        super().__init__(f"byte {self.offset}: {message}")


class UnboundVariableError(KeyError):
    pass


class DomainError(ArithmeticError):
    """Division by zero, sqrt of a negative, an invalid power, an overflow.
    Raised by an enclosure, ``where`` marks the boxes that reach it."""
    where = None


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple


Expr = Num | Var | Neg | BinOp | Call


# --- lexer -----------------------------------------------------------------

_OPS = set("+-*/^(),")


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            try:
                value = float(text[i:j])
            except ValueError:
                raise ExprSyntaxError("malformed number", text, i) from None
            tokens.append(("num", value, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", text, i)
    tokens.append(("end", None, n))
    return tokens


# --- Pratt parser ----------------------------------------------------------

# (left, right) binding powers; ^ is right-associative
_INFIX_BP = {"+": (10, 11), "-": (10, 11), "*": (20, 21), "/": (20, 21), "^": (40, 39)}
_UNARY_BP = 30


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what):
        tok = self.advance()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {what}", self.text, tok[2])
        return tok

    def parse_expr(self, min_bp=0):
        node = self.parse_prefix()
        while True:
            kind, _, _ = self.peek()
            bp = _INFIX_BP.get(kind)
            if bp is None or bp[0] < min_bp:
                return node
            self.advance()
            rhs = self.parse_expr(bp[1])
            node = BinOp(kind, node, rhs)

    def parse_prefix(self):
        kind, value, pos = self.advance()
        if kind == "num":
            return Num(value)
        if kind == "-":
            return Neg(self.parse_expr(_UNARY_BP))
        if kind == "(":
            node = self.parse_expr(0)
            self.expect(")", "')'")
            return node
        if kind == "ident":
            if value in VARIABLES:
                return Var(value)
            if value in FUNCTIONS:
                self.expect("(", f"'(' after function {value}")
                args = [self.parse_expr(0)]
                nargs = 2 if value in _FUNCS_2 else 1
                for _ in range(nargs - 1):
                    self.expect(",", f"',' ({value} takes {nargs} arguments)")
                    args.append(self.parse_expr(0))
                self.expect(")", "')'")
                return Call(value, tuple(args))
            raise ExprSyntaxError(
                f"unknown identifier {value!r} (variables: {', '.join(VARIABLES)})",
                self.text, pos)
        raise ExprSyntaxError("expected a number, variable, function or '('",
                              self.text, pos)


def parse(text):
    """Parse expression text into an AST."""
    parser = _Parser(text)
    node = parser.parse_expr(0)
    kind, _, pos = parser.peek()
    if kind != "end":
        raise ExprSyntaxError("trailing input after expression", text, pos)
    return node


# --- evaluation ------------------------------------------------------------

def _check_pow(base, expo, result):
    finite = np.isfinite(result)
    if finite.all():
        return  # exact: only a non-finite result can be flagged below
    # 0^negative yields inf, negative^fractional yields nan, and a power
    # of finite operands that overflows yields inf
    bad = ~finite & np.isfinite(base) & np.isfinite(expo)
    if np.any(bad):
        causes = [why for why, hit in (
            ("zero base with negative exponent", bad & (base == 0)),
            ("negative base with fractional exponent", bad & np.isnan(result)),
            ("overflow", bad & np.isinf(result) & (base != 0))) if np.any(hit)]
        raise DomainError(f"invalid power ({'; '.join(causes)})")


def _refusing(op, bad, why):
    """op, raising ``DomainError(why)`` where its last operand is bad."""
    def refusing(*args):
        if np.any(bad(np.asarray(args[-1]))):
            raise DomainError(why)
        return op(*args)
    return refusing


def _power(a, e):
    with np.errstate(all="ignore"):
        r = np.power(a, e)
    _check_pow(a, e, r)
    return r


def _power_rule(a, e, da):
    """e a^(e-1) da, 0 where da is: a constant base stays exact."""
    with np.errstate(all="ignore"):
        d = np.where(np.asarray(da) == 0, 0.0, e * np.power(a, e - 1) * da)
    return float(d) if np.ndim(d) == 0 else d


def _over(a, d):
    """a / d unchecked, as the dual rules divided: a zero divisor gives an
    inf or a nan, which the caller tests, for two Python floats too."""
    return a / (np.float64(d) if type(d) is float and d == 0 else d)


def _take(take_a, da, db):
    """min' and max': the derivative of the argument taken."""
    if np.ndim(take_a):
        return np.where(take_a, da, db)
    return da if take_a else db


# each operation's value, with its domain check (diff's own: module notes)
_POSITIVE = "variable exponent requires a positive base"
_VALUE = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "tanh": np.tanh,
          "abs": np.abs, "min": np.minimum, "max": np.maximum,
          "sqrt": _refusing(np.sqrt, lambda a: a < 0,
                            "sqrt of a negative number"),
          "+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": _refusing(operator.truediv, lambda d: d == 0,
                         "division by zero"),
          "^": _power, "neg": operator.neg,
          "seed": lambda v, one: (np.full_like(np.asarray(v, dtype=float),
                                               one) if np.ndim(v) else one),
          "log": _refusing(np.log, lambda a: a <= 0, _POSITIVE),
          "over": _over, "^'": _power_rule,
          "abs'": lambda a, da: np.where(np.asarray(a) >= 0, 1.0, -1.0) * da,
          "min'": lambda a, b, da, db: _take(a <= b, da, db),
          "max'": lambda a, b, da, db: _take(a >= b, da, db)}


# --- ranges ----------------------------------------------------------------
#
# A range (lo, hi), arrays that broadcast, holds every value an expression
# takes on a box.  ``_RANGE`` mirrors ``_VALUE``, each result rounded
# outward by 2^-52 of its magnitude, at least one ulp, for + - * / and
# sqrt, which round correctly, and by _ULPS times that for libm's exp,
# tanh, sin, cos, log and powers (not at all below 1e-292, where the
# product underflows).
# An end that is 0 stays 0: a sum is 0 only when exact, and a product or a
# libm value only when a factor is 0 or it underflows, as the point value
# then does.  sqrt and a fractional power take the part of their argument's
# range at or above 0 (``_clip``).  A range that reaches a pole (a divisor,
# or the zero base of a negative power, holding 0), a log's argument <= 0,
# an overflow of a power, or an argument of sqrt wholly below 0 raises
# ``DomainError``, its ``where`` marking the boxes that do.

_ULPS = 4


def _out(lo, hi, ulps=1):
    rel = ulps * 2.0 ** -52
    return (lo * (1.0 - np.copysign(rel, lo)),
            hi * (1.0 + np.copysign(rel, hi)))


def _hull(*values, ulps=0):
    hull = (functools.reduce(np.minimum, values),
            functools.reduce(np.maximum, values))
    return _out(*hull, ulps) if ulps else hull


def _corners(op, ulps=1):
    """op monotone in each argument on the boxes: the hull of its corners."""
    return lambda a, b: _hull(*(op(x, y) for x in a for y in b), ulps=ulps)


def _domain(a, bad, why):
    if np.any(bad):
        error = DomainError(why)
        error.where = bad
        raise error
    return a


def _clip(a, why):
    """The part of a range at or above 0, where sqrt and a fractional power
    are defined: outward rounding, or x - x^2 at x = 0, can reach below 0
    at the edge of the domain.  A range wholly below 0 raises, as every
    point value in it does."""
    _domain(a, a[1] < 0, why)
    return np.maximum(a[0], 0.0), a[1]


def _r_power(a, e):
    """Monotone in each argument for a base >= 0, and between the ends of
    the base for a constant integer exponent, which takes any base but 0
    under a negative exponent; the corners of an overflow are points."""
    (lo, hi), const = a, np.ndim(e[0]) == 0 and e[0] == e[1]
    integer = const and float(e[0]).is_integer()
    if not integer:  # a variable exponent can take an integer value
        why = "invalid power (negative base with fractional exponent)"
        a = lo, hi = _clip(a, why) if const else _domain(a, lo < 0, why)
    straddles = (lo <= 0) & (hi >= 0)
    if np.any(e[0] < 0):
        _domain(a, straddles, "invalid power (zero base with negative "
                "exponent)")
    low, high = _hull(*(np.power(x, y) for x in a
                        for y in (e[:1] if const else e)), ulps=_ULPS)
    _domain(a, ~np.isfinite(high), "invalid power (overflow)")
    if integer and e[0] > 0 and e[0] % 2 == 0:
        low = np.where(straddles, 0.0, low)
    return low, high


def _r_power_rule(a, e, da):
    """``_power_rule``, e - 1 the float it forms of a constant exponent."""
    if not (np.any(da[0]) or np.any(da[1])):
        return 0.0, 0.0
    em1 = ((e[0] - 1.0, e[1] - 1.0) if np.ndim(e[0]) == 0 and e[0] == e[1]
           else _sub(e, (1.0, 1.0)))
    return _mul(_mul(e, _r_power(a, em1)), da)


def _r_take(take_a, take_b, da, db):
    """The range of da where a is taken everywhere, of db where b is, and
    of both where either may be (abs', min' and max')."""
    return tuple(np.where(take_a, x, np.where(take_b, y, h))
                 for x, y, h in zip(da, db, _hull(*da, *db)))


def _wave(f, crest):
    """sin or cos, 1 at crest + 2 pi k and -1 half a period on: the values
    at the ends, and +-1 where a peak may lie inside, the period count
    widened well past its rounding."""
    def reaches(lo, hi, at):
        u, w = (lo - at) / (2.0 * np.pi), (hi - at) / (2.0 * np.pi)
        margin = 1e-9 * (1.0 + np.abs(u) + np.abs(w))
        return np.floor(w + margin) >= np.ceil(u - margin)
    def wave(a):
        low, high = _hull(*map(f, a), ulps=_ULPS)
        return (np.where(reaches(*a, crest + np.pi), -1.0, low),
                np.where(reaches(*a, crest), 1.0, high))
    return wave


def _add(a, b):
    return _out(a[0] + b[0], a[1] + b[1])


def _sub(a, b):
    return _out(a[0] - b[1], a[1] - b[0])


_mul = _corners(operator.mul)
_quotient = _corners(operator.truediv)  # for a range that holds no zero
_RANGE = {"sin": _wave(np.sin, np.pi / 2), "cos": _wave(np.cos, 0.0),
          "exp": lambda a: _out(*map(np.exp, a), _ULPS),
          "tanh": lambda a: _out(*map(np.tanh, a), _ULPS),
          "abs": lambda a: (np.maximum(np.maximum(a[0], -a[1]), 0.0),
                            np.maximum(-a[0], a[1])),
          "sqrt": lambda a: _out(*map(np.sqrt, _clip(
              a, "sqrt of a negative number"))),
          "min": lambda a, b: (np.minimum(a[0], b[0]), np.minimum(a[1], b[1])),
          "max": lambda a, b: (np.maximum(a[0], b[0]), np.maximum(a[1], b[1])),
          "+": _add, "-": _sub, "*": _mul, "^": _r_power,
          "/": lambda a, b: _quotient(a, _domain(
              b, (b[0] <= 0) & (b[1] >= 0), "division by zero")),
          "neg": lambda a: (-a[1], -a[0]), "seed": lambda v, one: one,
          "log": lambda a: _out(*map(np.log, _domain(a, a[0] <= 0, _POSITIVE)),
                                _ULPS),
          "^'": _r_power_rule,
          "abs'": lambda a, da: _r_take(a[0] >= 0, a[1] < 0, da,
                                        _RANGE["neg"](da)),
          "min'": lambda a, b, da, db: _r_take(a[1] <= b[0], b[1] < a[0],
                                               da, db),
          "max'": lambda a, b, da, db: _r_take(a[0] >= b[1], b[0] > a[1],
                                               da, db)}
_RANGE["over"] = _RANGE["/"]  # checked on ranges, as the dual rules were


def _parts(expr):
    """(operation name, operands) of a node that is not a leaf."""
    return (("neg", (expr.arg,)) if isinstance(expr, Neg) else
            (expr.op, (expr.lhs, expr.rhs)) if isinstance(expr, BinOp)
            else (expr.func, expr.args))


def compile(expr, finite=True):
    """Compile ``expr`` into ``(fn, free)``: ``fn(bindings)`` returns what
    ``evaluate(expr, bindings)`` does, bit for bit and of the same type, and
    ``free`` is the frozenset of the variable names the expression reads.

    A non-finite value of finite bindings raises ``DomainError``, tested
    once on the result, with NumPy's warnings off.  ``finite=False`` leaves
    that test to a caller that evaluates under ``np.errstate`` and tests
    what it computes from the value itself, as the march's step does
    (``scheme._finite``).
    """
    fn, free = _compile(expr)
    if not finite:
        return fn, free

    def finite(b):
        with np.errstate(all="ignore"):
            v = fn(b)
        if not np.isfinite(v).all() and all(np.isfinite(b[name]).all()
                                            for name in free):
            raise DomainError("overflow to a non-finite value")
        return v
    return finite, free


def _compile(expr, ranges=False):
    if isinstance(expr, Num):
        const = (expr.value, expr.value) if ranges else expr.value
        return (lambda b: const), frozenset()
    if isinstance(expr, Var):
        name = expr.name

        def var(b):
            try:
                return b[name]
            except KeyError:
                raise UnboundVariableError(name) from None
        return var, frozenset((name,))
    name, args = _parts(expr)
    if name == "same":  # evaluated as its first tree, enclosed as its second
        return _compile(args[ranges], ranges)
    ops = _RANGE if ranges else _VALUE
    if name not in ops:
        raise ValueError(f"unknown operator or function {name!r}")
    fns, frees = zip(*(_compile(a, ranges) for a in args))
    op, free = ops[name], frozenset().union(*frees)
    if name == "/" and isinstance(args[1], Num) and args[1].value != 0:
        # the division-by-zero test, settled here
        op = _quotient if ranges else operator.truediv
    f, g = fns[0], fns[-1]
    return ((lambda b: op(f(b))) if len(fns) == 1 else
            (lambda b: op(f(b), g(b))) if len(fns) == 2 else
            (lambda b: op(*[h(b) for h in fns]))), free


# the bounds of a config enclose each of its expressions more than once
_compiled = functools.lru_cache(maxsize=64)(_compile)


def evaluate(expr, bindings):
    """Evaluate ``expr`` with the given variable bindings (scalars or arrays)."""
    return compile(expr)[0](bindings)


def enclose(expr, box):
    """What ``compile(expr)[0]`` returns, as ranges over a batch of boxes:
    ``box`` maps each variable the expression reads to its (lo, hi),
    arrays that broadcast together, and every point value the compiled
    expression takes in a box without raising lies in the range returned
    for it.  A box that reaches a pole raises ``DomainError`` (see the
    notes on ranges), and so does a non-finite end, as a non-finite point
    value does in ``compile``."""
    with np.errstate(all="ignore"):
        lo, hi = _compiled(expr, True)[0](box)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise DomainError("overflow to a non-finite value")
    return lo, hi


# --- derivatives -----------------------------------------------------------

_ZERO = Num(0.0)


def _square(v):
    return Call("same", (BinOp("*", v, v), BinOp("^", v, Num(2.0))))


# the rules that read only e = op(*x) and the derivatives dx of x
_RULES = {"neg": lambda e, x, dx: Neg(*dx),
          "+": lambda e, x, dx: BinOp("+", *dx),
          "-": lambda e, x, dx: BinOp("-", *dx),
          "/": lambda e, x, dx: Call("over", (BinOp("-", BinOp(
              "*", dx[0], x[1]), BinOp("*", x[0], dx[1])), _square(x[1]))),
          "sin": lambda e, x, dx: BinOp("*", Call("cos", x), *dx),
          "cos": lambda e, x, dx: BinOp("*", Neg(Call("sin", x)), *dx),
          "exp": lambda e, x, dx: BinOp("*", e, *dx),
          "tanh": lambda e, x, dx: BinOp("*", BinOp("-", Num(1.0),
                                                    _square(e)), *dx),
          "sqrt": lambda e, x, dx: Call("over", (*dx, BinOp("*", Num(2.0),
                                                             e))),
          "log": lambda e, x, dx: Call("over", (*dx, *x)),
          "same": lambda e, x, dx: Call("same", dx),
          # a pick's derivative, and a pick's of the same operand
          "abs": lambda e, x, dx: Call("abs'", x + dx),
          "min": lambda e, x, dx: Call("min'", x + dx),
          "max": lambda e, x, dx: Call("max'", x + dx),
          "abs'": lambda e, x, dx: Call("abs'", x[:1] + dx[1:]),
          "min'": lambda e, x, dx: Call("min'", x[:2] + dx[2:]),
          "max'": lambda e, x, dx: Call("max'", x[:2] + dx[2:])}
_RULES["over"] = _RULES["/"]


@functools.lru_cache(maxsize=64)
def diff(expr, var):
    """d expr / d var, as a tree (module notes)."""
    return _diff(expr, var)[0]


def on_slope(f, fn, arg):
    """fn(d f / d lambda, arg), a ``DomainError`` of which names the
    derivative: ``d/dlambda of <f>: <why>``."""
    try:
        return fn(diff(f, "lambda"), arg)
    except DomainError as exc:
        raise DomainError(f"d/dlambda of {to_string(f)}: {exc}") from exc


def _diff(expr, var):
    """(d expr / d var, whether expr reads var), by the rule of expr's
    operation from its operands x and their derivatives dx."""
    if isinstance(expr, Num):
        return _ZERO, False
    if isinstance(expr, Var):
        reads = expr.name == var
        return Call("seed", (expr, Num(float(reads)))), reads
    name, x = _parts(expr)
    if name == "seed":  # a constant, shaped like its binding
        return Call("seed", (x[0], _ZERO)), False
    dx, reads = zip(*(_diff(a, var) for a in x))
    if name == "*":
        d = BinOp("+", BinOp("*", dx[0], x[1]), BinOp("*", x[0], dx[1]))
        if reads[0] != reads[1]:  # enclosed without the term that is 0
            d = Call("same", (d, BinOp("*", x[0], dx[1]) if reads[1]
                              else BinOp("*", dx[0], x[1])))
    elif name == "^" and reads[1]:  # an exponent that reads var: a > 0
        (a, e), (da, de) = x, dx
        d = BinOp("*", expr, BinOp("+", BinOp("*", de, Call("log", (a,))),
                                   Call("over", (BinOp("*", e, da), a))))
    elif name == "^":
        d = Call("^'", x + dx[:1])
    elif name == "^'":  # e a^(e-1) dda + e (e-1) a^(e-2) da da
        a, e, da = x
        em1 = (Num(e.value - 1.0) if isinstance(e, Num)
               else BinOp("-", e, Num(1.0)))
        if reads[1]:  # a mixed partial, through the checked power
            d = _diff(BinOp("*", BinOp("*", e, BinOp("^", a, em1)), da),
                      var)[0]
        else:
            d = BinOp("+", Call("^'", (a, e, dx[2])), BinOp(
                "*", BinOp("*", e, Call("^'", (a, em1, dx[0]))), da))
    elif name in _RULES:
        d = _RULES[name](expr, x, dx)
    else:
        raise ValueError(f"unknown operator or function {name!r}")
    # what does not read var is enclosed as exactly 0, and not walked
    return (d, True) if any(reads) else (Call("same", (d, _ZERO)), False)


# ``sup`` cuts its box _CUTS[k] ways on each of the k axes it is wide on,
# and then each loose part as many ways, as the room left in its budget of
# _BOXES parts allows.  A part is loose while its enclosure reaches a pole,
# or its bound exceeds the best point value found by more than _TIGHT of
# it, or by 1e-12 where that is more
_CUTS, _BOXES, _TIGHT = (1, 256, 16, 8, 4), 2 ** 13, 1e-3


def _size(box):
    return np.broadcast_shapes(*(np.shape(v) for r in box.values() for v in r))


def _cut(parts, k, wide):
    """Each part, flat (lo, hi) arrays, cut k ways on each wide axis, the
    pieces on an axis of their own for each."""
    out, f = {}, np.arange(k + 1) / k
    for name, (lo, hi) in parts.items():
        axes = [lo.size] + [1] * len(wide)
        lo, hi = lo[:, None], hi[:, None]
        if name in wide:
            # ascending and within [lo, hi], with no overflow of hi - lo
            ends = np.clip(np.maximum.accumulate(lo * (1.0 - f) + hi * f, -1),
                           lo, hi)
            lo, hi = ends[:, :-1], ends[:, 1:]
            axes[1 + wide.index(name)] = k
        out[name] = (lo.reshape(axes), hi.reshape(axes))
    return out


def _ranges(expr, parts):
    """Each part's range (lo, hi), flat, (-inf, inf) where its enclosure
    reaches a pole, and the ``DomainError`` of a pole reached, or None."""
    size, each, pole = _size(parts), parts, None
    ok = np.ones(math.prod(size), bool)
    while True:
        try:
            lo, hi = enclose(expr, each)
            break
        except DomainError as error:
            if error.where is None:
                raise
            # enclose the parts that do not reach it again
            ok[ok] = ~np.broadcast_to(error.where, _size(each)).ravel()
            pole = error
            each = {n: tuple(np.broadcast_to(v, size).ravel()[ok] for v in r)
                    for n, r in parts.items()}
    low, high = np.full(ok.size, -np.inf), np.full(ok.size, np.inf)
    low[ok], high[ok] = (np.broadcast_to(r, _size(each)).ravel()
                         for r in (lo, hi))
    return low, high, pole


def sup(expr, box, signed=False):
    """An upper bound of max |expr| on ``box``, or of max expr where
    ``signed``, as a float; ``box`` maps each variable the expression reads
    to its (lo, hi) floats.  Remembered for the process (module notes).

    The point values at each part's centre and lowest and highest corners
    steer the cuts, and bound nothing: the result is the largest bound of
    every part, loose or not, when the budget ends.  A point value that
    raises ``DomainError`` raises it here, as does a part that still
    reaches a pole when the budget ends or it is too small to cut.
    """
    return _sup(expr, tuple((n, tuple(r)) for n, r in box.items()), signed)


@functools.lru_cache(maxsize=256)
def _sup(expr, box, signed):
    point, free = _compiled(expr)
    parts = {n: (np.array([lo], float), np.array([hi], float))
             for n, (lo, hi) in box if n in free}
    if not parts:  # one value, or an enclosure of it
        lo, hi = enclose(expr, {})
        return float(hi if signed else max(hi, -lo))
    wide = [n for n, (lo, hi) in parts.items() if hi[0] > lo[0]]
    m = len(wide)
    best = done = -np.inf
    spent, room, pole = 0, _BOXES, None
    while True:
        # as many ways as the room left allows, at most _CUTS[m]
        k = max(1, min(_CUTS[m], int(room ** (1 / max(m, 1)) + 1e-9)))
        parts = _cut(parts, k, wide)
        size = _size(parts)
        with np.errstate(all="ignore"):
            v = point({n: np.stack((0.5 * a + 0.5 * b, a, b))
                       for n, (a, b) in parts.items()})
        v = np.broadcast_to(v, (3,) + size)
        low, high, error = _ranges(expr, parts)
        top = high if signed else np.maximum(high, -low)
        pole = error or pole
        best = np.maximum(best, np.max(np.fmax.reduce(v if signed
                                                      else np.abs(v))))
        spent += top.size
        loose = top > best + max(_TIGHT * abs(best), 1e-12)
        # and can be cut: its midpoint lies inside it on a wide axis
        parts = {n: tuple(np.broadcast_to(x, size).ravel() for x in r)
                 for n, r in parts.items()}
        halves = [(lo, 0.5 * lo + 0.5 * hi, hi)
                  for lo, hi in map(parts.get, wide)]
        loose &= np.any([(lo < c) & (c < hi) for lo, c, hi in halves], axis=0)
        room = (_BOXES - spent) // max(np.count_nonzero(loose), 1)
        loose &= room >= 2 ** m
        done = np.max(top[~loose], initial=done)
        if not loose.any():
            break
        parts = {n: (lo[loose], hi[loose]) for n, (lo, hi) in parts.items()}
    if not np.isfinite(done):
        raise pole
    return float(done)


sup.cache_info, sup.cache_clear = _sup.cache_info, _sup.cache_clear


def zero_width(expr, box, width):
    """An upper bound of the measure of {expr = 0} on a one-axis ``box``,
    and the number of parts enclosed: the total width of the parts whose
    enclosure holds 0 or reaches a pole, halving only those again until
    it is at most ``width`` or the budget of _BOXES parts is spent."""
    (name, (lo, hi)), = box.items()
    lo, hi, spent = np.array([lo], float), np.array([hi], float), 0
    while True:
        low, high, _ = _ranges(expr, {name: (lo, hi)})
        spent += lo.size
        held = (low <= 0.0) & (high >= 0.0)
        lo, hi = lo[held], hi[held]
        total = float(np.sum(hi - lo))
        if total <= width or spent + 2 * lo.size > _BOXES:
            return total, spent
        lo, hi = (end.ravel() for end in
                  _cut({name: (lo, hi)}, 2, [name])[name])


# --- printing --------------------------------------------------------------

def _prec(expr):
    if isinstance(expr, Num):
        # a negative literal prints with a leading minus sign
        return _UNARY_BP if expr.value < 0 else 100
    if isinstance(expr, (Var, Call)):
        return 100
    if isinstance(expr, Neg):
        return _UNARY_BP
    return _INFIX_BP[expr.op][0]


def to_string(expr):
    """Render the AST back to parseable text; parse(to_string(e)) == e."""
    if isinstance(expr, Num):
        return repr(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Neg):
        inner = to_string(expr.arg)
        if _prec(expr.arg) < _UNARY_BP:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(expr, Call):
        return f"{expr.func}({', '.join(to_string(a) for a in expr.args)})"
    lbp, rbp = _INFIX_BP[expr.op]
    left = to_string(expr.lhs)
    # ^ is right-associative, so a ^-shaped left operand must keep its parens
    if _prec(expr.lhs) < lbp or (
            expr.op == "^" and isinstance(expr.lhs, BinOp) and expr.lhs.op == "^"):
        left = f"({left})"
    right = to_string(expr.rhs)
    if _prec(expr.rhs) < rbp:
        right = f"({right})"
    return f"{left} {expr.op} {right}"
