"""Arithmetic expression DSL for fluxes, sources and boundary/initial data.

Expressions are parsed into a small immutable AST over the variables
``lambda``, ``x``, ``s``, ``t``, the binary operators ``+ - * / ^``, unary
minus, and the functions ``sin cos exp tanh sqrt abs min max``.  Evaluation
is plain IEEE double arithmetic and broadcasts over numpy arrays, so the
same AST backs both scalar checks and whole-grid evaluation.

``compile(expr, wrt=None)`` is the only walk of the tree.  It returns a
closure and the expression's free variables (the names it reads); code
that evaluates one expression many times holds the closure, and
``evaluate(expr, bindings)`` is ``compile(expr)[0](bindings)``.  The
closure applies the same numpy operations in the same order as the tree,
so results are bit-identical, and keeps every domain check.  A division
by a nonzero literal is settled at compile time, and a power whose result
is all finite skips its three-mask test, which can only flag a non-finite
result: 0^negative, a negative base to a fractional exponent, or an
overflow such as ``lambda^2`` at 1e200 still raise ``DomainError``,
naming which of the three it found.  So does any other non-finite value
of finite bindings, such as ``exp(lambda)`` at 1000.

With ``wrt`` set, the closure returns ``(value, d value / d wrt)`` by
forward-mode dual numbers: first derivatives are exact, with no finite
differencing.  Each operator's value function and domain check
(``_VALUE``) serve both modes; its derivative rule sits in ``_DERIV``.
A power takes the rule for a variable exponent exactly when its exponent
reads ``wrt``, decided at compile time, so that no value can change it.
``eval_dual`` is the ``wrt`` mode behind a check that the seed is bound.

``sample_sup`` is the one sampler of a sup over a box: max |expr|, or
max |d expr / d wrt|, on ``linspace`` axes; ``sample_min`` is the same
sampler read as a signed min.  Both evaluate in blocks of at most
``ELEMENT_BUDGET`` elements.  They live here, not in ``problem``, because
``kernels`` (imported by ``problem``) needs them too.

Precedence, tightest first: ``^`` (right-assoc), unary ``-``, ``* /``,
``+ -`` (left-assoc).  At the kinks of ``abs``/``min``/``max`` the
derivative takes the right-limit convention (``abs'(0) = +1``; ties in
``min``/``max`` resolve to the first argument).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expr", "Num", "Var", "Neg", "BinOp", "Call",
    "parse", "compile", "evaluate", "eval_dual", "sample_sup", "sample_min",
    "to_string", "ExprSyntaxError", "UnboundVariableError", "DomainError",
    "VARIABLES", "FUNCTIONS", "ELEMENT_BUDGET",
]

VARIABLES = ("lambda", "x", "s", "t")
_FUNCS_1 = ("sin", "cos", "exp", "tanh", "sqrt", "abs")
_FUNCS_2 = ("min", "max")
FUNCTIONS = _FUNCS_1 + _FUNCS_2

# The most elements of any array a sampled bound forms at once: 2^16
# float64 values, 512 KiB.  (``verify``'s entropy residual needs no budget:
# it holds one step's (k, x, s) arrays at a time.)
ELEMENT_BUDGET = 2 ** 16


class ExprSyntaxError(ValueError):
    """Malformed expression text.  Carries the byte offset of the fault."""

    def __init__(self, message, text, pos):
        self.offset = len(text[:pos].encode("utf-8"))
        self.expected = message
        super().__init__(f"byte {self.offset}: {message}")


class UnboundVariableError(KeyError):
    pass


class DomainError(ArithmeticError):
    """Division by zero, sqrt of a negative, an invalid power, an overflow."""


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


def _sqrt(a):
    if np.any(np.asarray(a) < 0):
        raise DomainError("sqrt of a negative number")
    return np.sqrt(a)


def _div(a, d):
    if np.any(np.asarray(d) == 0):
        raise DomainError("division by zero")
    return a / d


def _power(a, e):
    with np.errstate(all="ignore"):
        r = np.power(a, e)
    _check_pow(a, e, r)
    return r


# each operator's value, with its domain check
_VALUE = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "tanh": np.tanh,
          "abs": np.abs, "sqrt": _sqrt, "min": np.minimum, "max": np.maximum,
          "+": operator.add, "-": operator.sub, "*": operator.mul,
          "/": _div, "^": _power, "neg": operator.neg}


def _d_sqrt(v, a, da):
    with np.errstate(all="ignore"):
        return v, da / (2.0 * v)


def _d_power(v, a, da, e, de):
    """An exponent that does not read the seed: works for any base."""
    with np.errstate(all="ignore"):
        d = e * np.power(a, e - 1) * da
        d = np.where(np.asarray(da) == 0, 0.0, d)  # constant base stays exact
    return v, float(d) if np.ndim(d) == 0 else d


def _d_power_variable(v, a, da, e, de):
    """An exponent that reads the seed: needs a positive base."""
    if np.any(np.asarray(a) <= 0):
        raise DomainError("variable exponent requires a positive base")
    with np.errstate(all="ignore"):
        d = v * (de * np.log(a) + e * da / a)
    return v, float(d) if np.ndim(d) == 0 else d


def _pick(take_a, a, da, b, db):
    """min/max: the value and derivative of the argument taken."""
    if np.ndim(take_a):
        return np.where(take_a, a, b), np.where(take_a, da, db)
    return (a, da) if take_a else (b, db)


# each operator's derivative rule: from the value and the operands' values
# and derivatives, (value, derivative)
_DERIV = {
    "sin": lambda v, a, da: (v, np.cos(a) * da),
    "cos": lambda v, a, da: (v, -np.sin(a) * da),
    "exp": lambda v, a, da: (v, v * da),
    "tanh": lambda v, a, da: (v, (1.0 - v * v) * da),
    "abs": lambda v, a, da: (v, np.where(np.asarray(a) >= 0, 1.0, -1.0) * da),
    "sqrt": _d_sqrt,
    "min": lambda v, a, da, b, db: _pick(a <= b, a, da, b, db),
    "max": lambda v, a, da, b, db: _pick(a >= b, a, da, b, db),
    "+": lambda v, a, da, b, db: (v, da + db),
    "-": lambda v, a, da, b, db: (v, da - db),
    "*": lambda v, a, da, b, db: (v, da * b + a * db),
    "/": lambda v, a, da, b, db: (v, (da * b - a * db) / (b * b)),
    "^": _d_power,
    "neg": lambda v, a, da: (v, -da),
}


def compile(expr, wrt=None, finite=True):
    """Compile ``expr`` into ``(fn, free)``: ``fn(bindings)`` returns what
    ``evaluate(expr, bindings)`` does, bit for bit and of the same type, and
    ``free`` is the frozenset of the variable names the expression reads.
    A non-finite value of finite bindings raises ``DomainError``, tested
    once on the result, with NumPy's overflow and invalid warnings off.
    ``finite=False`` leaves that test to a caller that evaluates under
    ``np.errstate`` and tests what it computes from the value itself, as
    the march's step does (``scheme._finite``).

    With ``wrt`` set to a variable name, ``fn(bindings)`` returns
    ``(value, d value / d wrt)`` instead, by forward-mode dual numbers.
    """
    fn, free = _compile(expr, wrt)
    if wrt is not None or not finite:
        return fn, free

    def finite(b):
        with np.errstate(over="ignore", invalid="ignore"):
            v = fn(b)
        if not np.isfinite(v).all() and all(
                np.isfinite(b[name]).all() for name in free):
            raise DomainError("overflow to a non-finite value")
        return v
    return finite, free


def _compile(expr, wrt):
    if isinstance(expr, Num):
        const = expr.value if wrt is None else (expr.value, 0.0)
        return (lambda b: const), frozenset()
    if isinstance(expr, Var):
        name = expr.name
        seed = 1.0 if name == wrt else 0.0

        def var(b):
            try:
                v = b[name]
            except KeyError:
                raise UnboundVariableError(name) from None
            if wrt is None:
                return v
            return v, (np.full_like(np.asarray(v, dtype=float), seed)
                       if np.ndim(v) else seed)
        return var, frozenset((name,))
    name, args = (("neg", (expr.arg,)) if isinstance(expr, Neg) else
                  (expr.op, (expr.lhs, expr.rhs)) if isinstance(expr, BinOp)
                  else (expr.func, expr.args))
    if name not in _VALUE:
        raise ValueError(f"unknown operator or function {name!r}")
    fns, frees = zip(*(_compile(a, wrt) for a in args))
    f, g, free = fns[0], fns[-1], frozenset().union(*frees)
    op = _VALUE[name]
    if name == "/" and isinstance(args[1], Num) and args[1].value != 0:
        op = operator.truediv  # the division-by-zero test, settled here
    if wrt is None:
        return ((lambda b: op(f(b))) if len(args) == 1
                else (lambda b: op(f(b), g(b)))), free
    rule = _DERIV[name]
    if name == "^" and wrt in frees[1]:
        # decided from the tree, so that no value can change the rule
        rule = _d_power_variable
    if len(args) == 1:
        def unary(b):
            a, da = f(b)
            return rule(op(a), a, da)
        return unary, free

    def binary(b):
        (a, da), (c, dc) = f(b), g(b)
        return rule(op(a, c), a, da, c, dc)
    return binary, free


def evaluate(expr, bindings):
    """Evaluate ``expr`` with the given variable bindings (scalars or arrays)."""
    return compile(expr)[0](bindings)


def eval_dual(expr, bindings, seed):
    """Evaluate value and d/d(seed) simultaneously.

    Returns ``(value, derivative)``; both broadcast over array bindings.
    """
    if seed not in bindings:
        raise UnboundVariableError(seed)
    return compile(expr, seed)[0](bindings)


def sample_sup(expr, names, ranges, n=256, inflate=1.0, wrt=None):
    """Sampled sup of |expr| on a product of intervals, or of
    |d expr / d wrt| when ``wrt`` names a variable.

    ``n`` is the number of points on every axis, or one count per axis; an
    axis of one point samples its interval's lower end.  Each axis is an
    open ``linspace`` (length n along its own dimension, 1 along the
    others), so an expression is evaluated only on the axes it uses: a
    constant once, an x-only expression n times.

    The evaluation runs in blocks of at most ``ELEMENT_BUDGET`` elements:
    consecutive slices of the longest axis the expression reads, every
    other axis whole.  This is exact, not close.  Each sample is computed
    by the same elementwise operations whether its slice is evaluated
    alone or with the rest of the box (no rule picks its formula from the
    values it is given), and a max only selects one of its arguments, so
    the max of the slice maxima is the max over the box, bit for bit;
    ``np.max`` of the slice maxima keeps a NaN, as over the whole box.  A
    domain error in any slice raises the class it raises over the box.
    """
    return _sample_max(expr, names, ranges, n, wrt, np.abs) * inflate


def sample_min(expr, names, ranges, n=256, wrt=None):
    """Sampled min of expr, or of d expr / d wrt, signed: ``sample_sup``'s
    blocks and axes, each slice read as -max(-values), which is exact."""
    return -_sample_max(expr, names, ranges, n, wrt, np.negative)


def _sample_max(expr, names, ranges, n, wrt, part):
    """max of part(values) over the sampled box, one block at a time."""
    dims = len(ranges)
    counts = [int(k) for k in np.broadcast_to(n, dims)]
    lines = [np.linspace(lo, hi, k) for (lo, hi), k in zip(ranges, counts)]

    def open_axis(i, line):
        return line.reshape([len(line) if j == i else 1 for j in range(dims)])

    axes = {name: open_axis(i, line)
            for i, (name, line) in enumerate(zip(names, lines))}
    fn, free = compile(expr, wrt)
    read = [i for i, name in enumerate(names) if name in free]
    # slices of the longest axis read, each with every other axis whole
    axis = max(read, key=counts.__getitem__, default=0)
    rows = max(1, ELEMENT_BUDGET
               // math.prod(counts[i] for i in read if i != axis))
    maxima = []
    for start in range(0, counts[axis], rows):
        axes[names[axis]] = open_axis(axis, lines[axis][start:start + rows])
        vals = fn(axes)
        if wrt is not None:
            vals = vals[1]
        maxima.append(np.max(part(np.asarray(vals, dtype=float))))
    return float(np.max(maxima))


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
