"""Tiny closed-form expression language for coefficient and potential entries.

Grammar: numbers, components ``q1 .. qn``, the constant ``pi``, the unary
functions ``sin``, ``cos``, ``exp``, the binary operators ``+ - * /`` and
parentheses.  A leading ``-`` is accepted as sugar for ``0 - x``.  Every
expression in this family is smooth, so coefficient fields built from it are
smooth by construction.

Validation screens (both raise :class:`ExpressionError`):

* division nodes whose denominator interval over R^n contains zero are
  rejected outright, on every domain (``ForceField`` and ``CoefficientField``
  run this screen and the dimension check on each tree they are given);
* on torus domains, ``q_i`` may appear only inside ``sin``/``cos`` whose
  argument is affine in ``q``, every slope (its symbolic derivative, so any
  constant subexpression may appear) an integer multiple of ``2*pi``; the
  entry is 1-periodic by construction (``ModelSpec`` runs this screen).
"""

from __future__ import annotations

import functools
import math
import operator
import re
import sys
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "Expr",
    "ExpressionError",
    "parse_expr",
    "compile_exprs",
    "diff_expr",
    "max_q_index",
    "screen_torus_periodicity",
    "validate_expr",
]


class ExpressionError(ValueError):
    """Raised for syntax errors (with position) and failed validation screens."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # zero-based component of q


@dataclass(frozen=True)
class Call:
    func: str  # sin | cos | exp
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * /
    left: "Expr"
    right: "Expr"


Expr = Union[Num, Var, Call, BinOp]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/()]))"
)

_FUNCS = ("sin", "cos", "exp")
_CYCLES_TOL = 1e-9  # torus screen: slope / (2 pi) must be this near an integer
# and at most this large: beyond it, rounding the argument 2 pi c q alone
# moves f(q + 1) away from f(q) by about 1e-6
_MAX_CYCLES = 1e9


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            if text[pos:].strip() == "":
                break
            raise ExpressionError(f"unexpected character {text[pos]!r}", pos)
        if match.group("num") is not None:
            tokens.append(("num", float(match.group(0)), match.start()))
        elif match.group("name") is not None:
            tokens.append(("name", match.group("name"), match.start("name")))
        else:
            tokens.append(("op", match.group("op"), match.start("op")))
        pos = match.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Recursive descent over sum -> term -> factor -> atom."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, value, pos = self.next()
        if kind != "op" or value != op:
            raise ExpressionError(f"expected {op!r}", pos)

    def parse(self):
        expr = self.sum()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ExpressionError("trailing input", pos)
        return expr

    def sum(self):
        expr = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.next()
                expr = BinOp(value, expr, self.term())
            else:
                return expr

    def term(self):
        expr = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.next()
                expr = BinOp(value, expr, self.factor())
            else:
                return expr

    def factor(self):
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.next()
            return BinOp("-", Num(0.0), self.factor())
        if kind == "op" and value == "+":
            self.next()
            return self.factor()
        return self.atom()

    def atom(self):
        kind, value, pos = self.next()
        if kind == "num":
            return Num(value)
        if kind == "name":
            if value == "pi":
                return Num(math.pi)
            if value in _FUNCS:
                self.expect_op("(")
                arg = self.sum()
                self.expect_op(")")
                return Call(value, arg)
            qmatch = re.fullmatch(r"q(\d+)", value)
            if qmatch is not None:
                index = int(qmatch.group(1))
                if index < 1:
                    raise ExpressionError("q components are numbered from 1", pos)
                return Var(index - 1)
            raise ExpressionError(f"unknown name {value!r}", pos)
        if kind == "op" and value == "(":
            expr = self.sum()
            self.expect_op(")")
            return expr
        raise ExpressionError("expected a number, name or '('", pos)


def parse_expr(text):
    """Parse ``text`` into an :class:`Expr` tree. Raises ExpressionError."""
    if not isinstance(text, str):
        raise ExpressionError(f"expected an expression string, got {type(text).__name__}")
    return _Parser(_tokenize(text)).parse()


_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}
_EXP_MAX = 709.78  # np.exp overflows just above log(DBL_MAX) = 709.7827...


def _divide(a, b):
    """a / b on floats, raising where b is infinite: a float overflow,
    silent where the ufunc reports it, would vanish in the quotient."""
    if math.isinf(b):
        raise FloatingPointError("division by an infinity")
    return a / b


def _exp(x):
    """np.exp of a float as a float (``math.exp`` rounds differently),
    raising where the ufunc would overflow or where x is -inf, which would
    turn a silent float overflow into 0."""
    if not -math.inf < x < _EXP_MAX:
        raise FloatingPointError(f"exp of {x!r}")
    return float(np.exp(x))


# the float form of each call of a program; IEEE +, -, *, / and this
# build's sin and cos give the ufuncs' bits (a test guards that)
_FLOAT_OPS = {np.add: operator.add, np.subtract: operator.sub,
              np.multiply: operator.mul, np.divide: _divide,
              np.sin: math.sin, np.cos: math.cos, np.exp: _exp}


class _Evaluator:
    """Several trees evaluated together by one program of ufunc calls.

    ``program``, built on first use, computes each distinct subtree of the
    trees once, folds constant subtrees once (by the same ufuncs) into 0-d
    float64 arrays, and writes every node with ``out`` into a scratch row
    or straight into the caller's output.  It lists the calls as
    (function, slots): ("q", j) is column j of the batch, ("k", i) constant
    i, ("t", i) scratch row i and ("o", i) the output of tree i; a ufunc
    writes its last slot, ``np.copyto`` its first.  ``constants`` holds the
    value of each constant tree (else None), which ``bind`` writes once.
    ``point`` runs the same program on Python floats at one point.
    """

    def __init__(self, trees):
        self.trees = tuple(trees)
        self._program = None
        self._registers = None

    @property
    def program(self):
        if self._program is None:
            self._build()
        return self._program

    def _build(self):
        consts, names, program, self._consts, self._n_temps = {}, {}, [], [], 0

        def emit(expr, dest=None):
            if isinstance(expr, Var):
                return ("q", expr.index)
            if isinstance(expr, Num):
                value = np.float64(expr.value)
            else:
                if isinstance(expr, Call):
                    key = (getattr(np, expr.func), emit(expr.arg))
                else:
                    key = (_BINARY[expr.op], emit(expr.left), emit(expr.right))
                if any(kind != "k" for kind, _ in key[1:]):
                    if key not in names:
                        if dest is None:
                            dest = ("t", self._n_temps)
                            self._n_temps += 1
                        program.append((key[0], key[1:] + (dest,)))
                        names[key] = dest
                    return names[key]
                value = key[0](*(self._consts[i] for _, i in key[1:]))
            if value.tobytes() not in consts:
                consts[value.tobytes()] = ("k", len(self._consts))
                self._consts.append(np.array(value))
            return consts[value.tobytes()]

        self.constants = []
        for i, tree in enumerate(self.trees):
            slot = emit(tree, ("o", i))
            constant = slot[0] == "k"
            self.constants.append(self._consts[slot[1]][()] if constant else None)
            if not constant and slot != ("o", i):
                program.append((np.copyto, (("o", i), slot)))
        self._program = program

    def bind(self, q, outs):
        """Return ``evaluate()``, which writes the values of the trees at
        the rows of the (R, n) array ``q`` (as they are when it is called)
        into ``outs``, one (R,) array per tree that overlaps neither ``q``
        nor another output.  Constant trees are written here, once."""
        program, outs = self.program, list(outs)
        slots = {"q": list(q.T), "k": self._consts, "o": outs,
                 "t": list(np.empty((self._n_temps, len(q))))}
        for out, value in zip(outs, self.constants):
            if value is not None:
                out[...] = value
        calls = [functools.partial(fn, *(slots[kind][i] for kind, i in args))
                 for fn, args in program]

        def evaluate():
            for call in calls:
                call()
        return evaluate

    def __call__(self, q):
        """The (R, k) array of the k trees' values at the (R, n) batch."""
        out = np.empty((len(q), len(self.trees)))
        self.bind(q, out.T)()
        return out

    def point(self, q):
        """The list of the trees' values at the point ``q``, a list of n
        floats, by the program on Python floats (``_FLOAT_OPS``), which
        gives the bits of the (1, n) batch.  One flat register list holds
        the folded constants, the scratch values, the outputs (a constant
        tree's written once) and q, copied afresh for each call.  Raises
        ArithmeticError or ValueError (sin or cos of an infinity) where a
        float cannot show an error that the ufuncs report: a division by
        zero, and a division or an exp that would drop an infinity or
        overflow (``_divide``, ``_exp``)."""
        if self._registers is None:
            program, k = self.program, len(self._consts)
            base = {"k": 0, "t": k, "o": k + self._n_temps,
                    "q": k + self._n_temps + len(self.trees)}
            ops = []
            for fn, args in program:
                slots = [base[kind] + i for kind, i in args]
                if fn is np.copyto:
                    ops.append((operator.pos, slots[0], slots[1], None))
                else:
                    ops.append((_FLOAT_OPS[fn], slots[-1], slots[0],
                                slots[1] if len(slots) == 3 else None))
            init = [float(value) for value in self._consts]
            init += [0.0] * self._n_temps
            init += [0.0 if value is None else float(value)
                     for value in self.constants]
            self._registers = (init, ops, base["o"], base["q"])
        init, ops, first, last = self._registers
        reg = init + q
        for fn, dest, a, b in ops:
            reg[dest] = fn(reg[a]) if b is None else fn(reg[a], reg[b])
        return reg[first:last]

    def at(self, q):
        """The list of the trees' values at the 1-d point ``q`` by
        ``point``, or None where the (1, n) batch must give them because
        it may report an error: ``point`` raised, a value is not finite,
        or numpy does not ignore underflow, which floats never report."""
        if np.geterr()["under"] != "ignore":
            return None
        try:
            values = self.point(q.tolist())
        except (ArithmeticError, ValueError):
            return None
        return values if all(map(math.isfinite, values)) else None


def compile_exprs(trees):
    """One evaluator of several expression trees on (R, n) batches; see
    ``_Evaluator``."""
    return _Evaluator(trees)


_ZERO = Num(0.0)
_ONE = Num(1.0)


def _add(left, right):
    """left + right, dropping a literal zero term (x + 0 is x exactly)."""
    if left == _ZERO:
        return right
    if right == _ZERO:
        return left
    return BinOp("+", left, right)


def _sub(left, right):
    """left - right, dropping a literal zero subtrahend; 0 - x is kept
    because it is how negation is written."""
    if right == _ZERO:
        return left
    return BinOp("-", left, right)


def _mul(left, right):
    """left * right, folding a literal zero factor to zero and dropping a
    literal unit factor (exact for finite operands)."""
    if left == _ZERO or right == _ZERO:
        return _ZERO
    if left == _ONE:
        return right
    if right == _ONE:
        return left
    return BinOp("*", left, right)


def diff_expr(expr, index):
    """Symbolic partial derivative with respect to ``q_{index+1}``.

    Stays inside the closed family (chain/product/quotient rules on
    sin, cos, exp), so derivatives can be screened and evaluated the same way.
    Terms that a literal zero derivative makes dead are not emitted; where
    the expression is finite this leaves every value unchanged, up to the
    sign of an exact zero.
    """
    if isinstance(expr, Num):
        return _ZERO
    if isinstance(expr, Var):
        return _ONE if expr.index == index else _ZERO
    if isinstance(expr, Call):
        inner = diff_expr(expr.arg, index)
        if expr.func == "sin":
            outer = Call("cos", expr.arg)
        elif expr.func == "cos":
            outer = BinOp("-", _ZERO, Call("sin", expr.arg))
        else:
            outer = Call("exp", expr.arg)
        return _mul(outer, inner)
    dl = diff_expr(expr.left, index)
    dr = diff_expr(expr.right, index)
    if expr.op == "+":
        return _add(dl, dr)
    if expr.op == "-":
        return _sub(dl, dr)
    if expr.op == "*":
        return _add(_mul(dl, expr.right), _mul(expr.left, dr))
    # quotient rule: (l'r - l r') / r^2, or l'/r where r is free of q and
    # r*r would overflow or leave the normal floats
    numerator = _sub(_mul(dl, expr.right), _mul(expr.left, dr))
    if numerator == _ZERO:
        return _ZERO
    if max_q_index(expr.right) < 0 and not _normal_square(expr.right):
        return BinOp("/", dl, expr.right)
    return BinOp("/", numerator, BinOp("*", expr.right, expr.right))


def _normal_square(expr):
    """Whether the square of the q-free ``expr`` is a normal float (true
    where ``_interval`` gives it no single value)."""
    try:
        lo, hi = _interval(expr)
    except ExpressionError:
        return True
    return lo != hi or sys.float_info.min <= lo * lo <= sys.float_info.max


def max_q_index(expr):
    """Largest zero-based q component used, or -1 for constant expressions."""
    if isinstance(expr, Num):
        return -1
    if isinstance(expr, Var):
        return expr.index
    if isinstance(expr, Call):
        return max_q_index(expr.arg)
    return max(max_q_index(expr.left), max_q_index(expr.right))


def _interval(expr):
    """Coarse interval envelope of ``expr`` over q in R^n."""
    if isinstance(expr, Num):
        return (expr.value, expr.value)
    if isinstance(expr, Var):
        return (-math.inf, math.inf)
    if isinstance(expr, Call):
        lo, hi = _interval(expr.arg)
        if expr.func == "exp":
            return (math.exp(lo) if lo < 709.78 else math.inf,
                    math.exp(hi) if hi < 709.78 else math.inf)
        # envelope for sin/cos unless the argument interval is a point
        if lo == hi and math.isfinite(lo):
            value = math.sin(lo) if expr.func == "sin" else math.cos(lo)
            return (value, value)
        return (-1.0, 1.0)
    llo, lhi = _interval(expr.left)
    rlo, rhi = _interval(expr.right)
    if expr.op in "+-":
        lo, hi = ((llo + rlo, lhi + rhi) if expr.op == "+"
                  else (llo - rhi, lhi - rlo))
        # inf - inf: no bound, and no NaN passed on to a later screen
        return (lo, hi) if lo == lo and hi == hi else (-math.inf, math.inf)
    if expr.op == "*":
        if llo < 0.0 < lhi and expr.left == expr.right:
            return (0.0, max(llo * llo, lhi * lhi))  # a square
        corners = (llo * rlo, llo * rhi, lhi * rlo, lhi * rhi)
        if math.isnan(sum(corners)):
            # 0 * inf is 0: a zero end is a value its factor takes
            corners = [0.0 if a == 0.0 or b == 0.0 else a * b
                       for a in (llo, lhi) for b in (rlo, rhi)]
        return (min(corners), max(corners))
    if not (rlo > 0.0 or rhi < 0.0):
        raise ExpressionError("denominator interval over R^n contains zero")
    corners = (llo / rlo, llo / rhi, lhi / rlo, lhi / rhi)
    if math.isnan(sum(corners)):  # inf / inf: no bound, and no NaN passed on
        return (-math.inf, math.inf)
    return (min(corners), max(corners))


def _torus_safe(expr):
    if isinstance(expr, Num):
        return True
    if isinstance(expr, Var):
        return False  # bare q_i outside sin/cos
    if isinstance(expr, Call):
        if max_q_index(expr.arg) < 0:
            return True
        if expr.func == "exp":
            return _torus_safe(expr.arg)  # exp of q is never periodic
        for i in range(max_q_index(expr.arg) + 1):
            slope = diff_expr(expr.arg, i)
            if max_q_index(slope) >= 0:
                return False
            try:
                lo, hi = _interval(slope)
            except ExpressionError:  # a slope that divides by 0 has no value
                return False
            cycles = lo / (2.0 * math.pi)
            if (lo != hi or not abs(cycles) <= _MAX_CYCLES
                    or abs(cycles - round(cycles)) > _CYCLES_TOL):
                return False
        return True
    return _torus_safe(expr.left) and _torus_safe(expr.right)


def screen_torus_periodicity(expr):
    """Reject entries that are not 1-periodic by construction.

    q components must occur only inside sin/cos whose argument is affine in q
    with slopes in 2*pi*Z.  The slope along q_i is ``diff_expr(arg, i)``, which
    must be free of q and have a value (the point ``_interval`` gives) of at
    most ``_MAX_CYCLES`` turns; constant subexpressions of any form may appear
    in the argument.
    """
    if not _torus_safe(expr):
        raise ExpressionError(
            "on a torus, q components may appear only inside sin/cos of "
            "integer multiples of 2*pi*q_i"
        )


def validate_expr(expr, n, torus):
    """Run the dimension check and the screens for an entry used on an
    n-dimensional domain (the periodicity screen on a torus only)."""
    top = max_q_index(expr)
    if top >= n:
        raise ExpressionError(f"expression uses q{top + 1} but the domain has dim {n}")
    _interval(expr)
    if torus:
        screen_torus_periodicity(expr)
