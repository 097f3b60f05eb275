"""Arithmetic expression DSL for fluxes, sources and boundary/initial data.

Expressions are parsed into a small immutable AST over the variables
``lambda``, ``x``, ``s``, ``t``, the binary operators ``+ - * / ^``, unary
minus, and the functions ``sin cos exp tanh sqrt abs min max``.  Evaluation
is plain IEEE double arithmetic and broadcasts over numpy arrays, so the
same AST backs both scalar checks and whole-grid evaluation.

``compile(expr)`` walks the tree once and returns a closure, together
with the expression's free variables (the names it reads); code that
evaluates one expression many times holds the closure, and
``evaluate(expr, bindings)`` is ``compile(expr)[0](bindings)``.  The
closure applies the same numpy operations in the same order as the tree,
so results are bit-identical, and keeps every domain check.  A division
by a nonzero literal is settled at compile time, and a power whose result
is all finite skips its three-mask test, which can only flag a non-finite
result: 0^negative, a negative base to a fractional exponent, or an
overflow such as ``lambda^2`` at 1e200 still raise ``DomainError``.

First derivatives are exact, computed by forward-mode dual numbers
(``eval_dual``); no finite differencing is involved.

Precedence, tightest first: ``^`` (right-assoc), unary ``-``, ``* /``,
``+ -`` (left-assoc).  At the kinks of ``abs``/``min``/``max`` the
derivative takes the right-limit convention (``abs'(0) = +1``; ties in
``min``/``max`` resolve to the first argument).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Expr", "Num", "Var", "Neg", "BinOp", "Call",
    "parse", "compile", "evaluate", "eval_dual", "to_string",
    "ExprSyntaxError", "UnboundVariableError", "DomainError",
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
    """Division by zero, sqrt of a negative, or an invalid power."""


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
        raise DomainError("invalid power (zero base with negative exponent, "
                          "or negative base with fractional exponent)")


_ELEMENTWISE = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "tanh": np.tanh,
                "abs": np.abs, "min": np.minimum, "max": np.maximum,
                "+": operator.add, "-": operator.sub, "*": operator.mul}


def compile(expr):
    """Compile ``expr`` into ``(fn, free)``: ``fn(bindings)`` returns what
    ``evaluate(expr, bindings)`` does, bit for bit and of the same type, and
    ``free`` is the frozenset of the variable names the expression reads."""
    if isinstance(expr, Num):
        value = expr.value
        return (lambda b: value), frozenset()
    if isinstance(expr, Var):
        name = expr.name

        def var(b):
            try:
                return b[name]
            except KeyError:
                raise UnboundVariableError(name) from None
        return var, frozenset((name,))
    if isinstance(expr, Neg):
        f, free = compile(expr.arg)
        return (lambda b: -f(b)), free
    name, args = ((expr.op, (expr.lhs, expr.rhs)) if isinstance(expr, BinOp)
                  else (expr.func, expr.args))
    fns, frees = zip(*map(compile, args))
    f, g, free = fns[0], fns[-1], frozenset().union(*frees)
    op = _ELEMENTWISE.get(name)
    if op is not None:
        return ((lambda b: op(f(b))) if len(args) == 1
                else (lambda b: op(f(b), g(b)))), free
    if name == "sqrt":
        def sqrt(b):
            a = f(b)
            if np.any(np.asarray(a) < 0):
                raise DomainError("sqrt of a negative number")
            return np.sqrt(a)
        return sqrt, free
    if name == "/" and isinstance(args[1], Num) and args[1].value != 0:
        c = args[1].value  # the division-by-zero test, settled here
        return (lambda b: f(b) / c), free
    if name == "/":
        def div(b):
            a, d = f(b), g(b)
            if np.any(np.asarray(d) == 0):
                raise DomainError("division by zero")
            return a / d
        return div, free
    if name != "^":
        raise ValueError(f"unknown operator or function {name!r}")

    def power(b):
        a, e = f(b), g(b)
        with np.errstate(all="ignore"):
            r = np.power(a, e)
        _check_pow(a, e, r)
        return r
    return power, free


def evaluate(expr, bindings):
    """Evaluate ``expr`` with the given variable bindings (scalars or arrays)."""
    return compile(expr)[0](bindings)


def eval_dual(expr, bindings, seed):
    """Evaluate value and d/d(seed) simultaneously.

    Returns ``(value, derivative)``; both broadcast over array bindings.
    """
    if seed not in bindings:
        raise UnboundVariableError(seed)
    return _dual(expr, bindings, seed)


def _dual(expr, bindings, seed):
    if isinstance(expr, Num):
        return expr.value, 0.0
    if isinstance(expr, Var):
        try:
            v = bindings[expr.name]
        except KeyError:
            raise UnboundVariableError(expr.name) from None
        if expr.name == seed:
            return v, np.ones_like(np.asarray(v, dtype=float)) if np.ndim(v) else 1.0
        return v, np.zeros_like(np.asarray(v, dtype=float)) if np.ndim(v) else 0.0
    if isinstance(expr, Neg):
        v, d = _dual(expr.arg, bindings, seed)
        return -v, -d
    if isinstance(expr, BinOp):
        av, ad = _dual(expr.lhs, bindings, seed)
        bv, bd = _dual(expr.rhs, bindings, seed)
        if expr.op == "+":
            return av + bv, ad + bd
        if expr.op == "-":
            return av - bv, ad - bd
        if expr.op == "*":
            return av * bv, ad * bv + av * bd
        if expr.op == "/":
            if np.any(np.asarray(bv) == 0):
                raise DomainError("division by zero")
            return av / bv, (ad * bv - av * bd) / (bv * bv)
        # power: the common case of a constant exponent works for any base
        with np.errstate(all="ignore"):
            v = np.power(av, bv)
            _check_pow(np.asarray(av, dtype=float), np.asarray(bv, dtype=float),
                       np.asarray(v))
            if np.all(np.asarray(bd) == 0):
                d = bv * np.power(av, bv - 1) * ad
                d = np.where(np.asarray(ad) == 0, 0.0, d)  # constant base stays exact
            else:
                if np.any(np.asarray(av) <= 0):
                    raise DomainError("variable exponent requires a positive base")
                d = v * (bd * np.log(av) + bv * ad / av)
        if np.ndim(d) == 0:
            d = float(d)
        return v, d
    av, ad = _dual(expr.args[0], bindings, seed)
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
            raise DomainError("sqrt of a negative number")
        v = np.sqrt(av)
        with np.errstate(all="ignore"):
            d = ad / (2.0 * v)
        return v, d
    if expr.func == "abs":
        sign = np.where(np.asarray(av) >= 0, 1.0, -1.0)
        return np.abs(av), sign * ad
    bv, bd = _dual(expr.args[1], bindings, seed)
    if expr.func == "min":
        take_a = np.asarray(av) <= np.asarray(bv)
    else:
        take_a = np.asarray(av) >= np.asarray(bv)
    return (np.where(take_a, av, bv), np.where(take_a, ad, bd)) \
        if np.ndim(take_a) else ((av, ad) if take_a else (bv, bd))


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
