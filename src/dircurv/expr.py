"""Expression language for scalar fields on R^n.

Grammar (authoritative):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | atom ('^' INT)?
    atom   := NUMBER | 'x' INT | '(' expr ')'

Variables are written ``x1`` .. ``xn``; ``^`` takes a non-negative integer
literal only, which keeps the language polynomial-closed under
differentiation.

``parse`` accepts at most ``MAX_DEPTH`` = 200 levels: the operators on the
longest root-to-leaf path of the tree (``+ - * / ^`` and unary minus) and,
while parsing, the open parentheses plus unary minuses around a token.
Parse, ``differentiate`` and ``evaluate`` all recurse.  At depth 200 the
hungriest shapes (200 nested parentheses, or evaluating the second
derivative of a nested product or power chain) need about 810 Python
frames, inside the default recursion limit of 1,000; a deeper text raises
``ExpressionTooDeepError``.

Nodes are immutable: each ``__init__`` sets its slots once through
``object.__setattr__``, and ``Expression.__setattr__`` refuses every later
assignment.  Every operation here is a pure function, so trees can be
shared freely across threads.

``differentiate`` applies the sum, product, quotient and power rules and
prunes one thing only: a literal-zero derivative (``Number(0.0)``) is dropped
from sums and differences and zeroes out products, negations and quotients,
so a derivative tree grows with the terms that depend on x_k, not with the
whole field.  Pruning is exact up to IEEE corner cases: a dropped ``0*y`` no
longer turns an infinite or NaN ``y`` (or a zero denominator inside it) into
NaN or a division error, and ``y + 0`` no longer turns ``-0.0`` into
``0.0``.  ``evaluate`` walks a tree in a fixed left-to-right order, so
results are bit-for-bit reproducible.

Every node carries ``_vars``, the bit mask of the variable indices under it
(bit k set when x_k occurs), which its constructor sets once from its
children's masks; an index past 1,024 sets every bit.  ``_diff`` returns the literal zero at once for a subtree
whose mask lacks bit k, without walking it.  The rules above prune every
x_k-free subtree to that same zero, so the derivative trees are exactly
those of the full walk, while the work of one partial grows with the part of
the tree that holds x_k.  All derivative trees share one immutable zero node.

This module is the only one that walks a tree at a point.  ``evaluate``
takes one point (a length-n sequence, walked as Python floats so overflow is
silent; result a float) or a batch of m points as the columns of an
``(n, m)`` array (result a length-m array).
The batch walks the same tree once with each node operating on whole rows.
Every element then goes through the same IEEE-754 additions, subtractions,
multiplications, divisions and negations, in the same order, as the scalar
walk of its column, and ``Pow`` still uses binary exponentiation rather than
a libm ``pow``.  So each entry is bit-identical to evaluating that column on
its own.  ``_evaluate_trees`` walks a sequence of trees at one point,
converted once, for the gradient and Hessian of ``body.ImplicitBody``; each
value equals the single-point ``evaluate`` of its tree bit for bit.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import (
    DivisionByZeroError,
    ExpressionSyntaxError,
    ExpressionTooDeepError,
    NonIntegerExponentError,
    UnknownVariableError,
)

__all__ = [
    "Expression", "Number", "Variable", "Add", "Sub", "Mul", "Div", "Pow", "Neg",
    "parse", "differentiate", "evaluate", "to_text", "substitute", "MAX_DEPTH",
]

MAX_DEPTH = 200  # nesting levels ``parse`` accepts; see the module docstring


def _is_zero(e: "Expression") -> bool:
    return isinstance(e, Number) and e.value == 0.0


# Builders for derivative trees: each drops a literal-zero operand.

def _add(a: "Expression", b: "Expression") -> "Expression":
    if _is_zero(a):
        return b
    return a if _is_zero(b) else Add(a, b)


def _sub(a: "Expression", b: "Expression") -> "Expression":
    if _is_zero(b):
        return a
    return _neg(b) if _is_zero(a) else Sub(a, b)


def _mul(a: "Expression", b: "Expression") -> "Expression":
    return _ZERO if _is_zero(a) or _is_zero(b) else Mul(a, b)


def _neg(a: "Expression") -> "Expression":
    return a if _is_zero(a) else Neg(a)


class Expression:
    """Base node.  Subclasses implement _eval, _diff and _prec, and either
    __str__ or, for the binary nodes, the operator spelling _op that
    _Binary.__str__ prints and the parser reads.  Each __init__ also sets
    _vars, the bit mask of the variable indices in the subtree."""

    __slots__ = ("_vars",)
    _prec = 5  # atoms; binary nodes override

    def __setattr__(self, name, value):
        raise AttributeError("expression nodes are immutable")

    def __repr__(self):
        return f"{type(self).__name__}({self})"

    def _fmt(self, child: "Expression", min_prec: int) -> str:
        text = str(child)
        prec = child._prec
        if isinstance(child, Number) and text.startswith("-"):
            prec = 0  # a bare negative literal must be re-parenthesised
        return f"({text})" if prec < min_prec else text


class Number(Expression):
    """A real constant."""

    __slots__ = ("value",)

    def __init__(self, value):
        object.__setattr__(self, "value", float(value))
        object.__setattr__(self, "_vars", 0)

    def _eval(self, x):
        return self.value

    def _diff(self, k):
        return _ZERO

    def __str__(self):
        return repr(self.value)


_ZERO = Number(0.0)  # the literal zero of every derivative tree; nodes are immutable, so it is shared
# A variable past this index has the all-ones mask -1, which every subtree above it
# inherits: it is always walked, and no 2**index-bit integer is built for a huge index.
_MASK_BITS = 1024


class Variable(Expression):
    """The coordinate x_index, with 1-based index."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        index = int(index)
        if index < 1:
            raise ValueError("variable index must be >= 1")
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "_vars", 1 << index if index <= _MASK_BITS else -1)

    def _eval(self, x):
        return x[self.index - 1]

    def _diff(self, k):
        return Number(1.0) if self.index == k else _ZERO

    def __str__(self):
        return f"x{self.index}"


class _Binary(Expression):
    __slots__ = ("left", "right")

    def __init__(self, left: Expression, right: Expression):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "_vars", left._vars | right._vars)

    def __str__(self):
        return f"{self._fmt(self.left, self._prec)}{self._op}{self._fmt(self.right, self._prec + 1)}"


class Add(_Binary):
    _op = " + "
    _prec = 1

    def _eval(self, x):
        return self.left._eval(x) + self.right._eval(x)

    def _diff(self, k):
        if not self._vars >> k & 1:
            return _ZERO
        return _add(self.left._diff(k), self.right._diff(k))


class Sub(_Binary):
    _op = " - "
    _prec = 1

    def _eval(self, x):
        return self.left._eval(x) - self.right._eval(x)

    def _diff(self, k):
        if not self._vars >> k & 1:
            return _ZERO
        return _sub(self.left._diff(k), self.right._diff(k))


class Mul(_Binary):
    _op = "*"
    _prec = 2

    def _eval(self, x):
        return self.left._eval(x) * self.right._eval(x)

    def _diff(self, k):
        if not self._vars >> k & 1:
            return _ZERO
        # product rule, children kept in source order
        return _add(_mul(self.left._diff(k), self.right),
                    _mul(self.left, self.right._diff(k)))


class Div(_Binary):
    _op = "/"
    _prec = 2

    def _eval(self, x):
        denom = self.right._eval(x)
        try:
            if denom == 0.0:
                raise DivisionByZeroError(str(self.right))
        except ValueError:  # a row of denominators has no single truth value
            if not denom.all():
                raise DivisionByZeroError(str(self.right)) from None
        return self.left._eval(x) / denom

    def _diff(self, k):
        if not self._vars >> k & 1:
            return _ZERO
        # (u/v)' = (u'v - uv') / v^2
        num = _sub(_mul(self.left._diff(k), self.right),
                   _mul(self.left, self.right._diff(k)))
        return num if _is_zero(num) else Div(num, Pow(self.right, 2))


class Pow(Expression):
    """Integer power with non-negative exponent."""

    __slots__ = ("base", "exponent")
    _prec = 4

    def __init__(self, base: Expression, exponent: int):
        exponent = int(exponent)
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)
        object.__setattr__(self, "_vars", base._vars)

    def _eval(self, x):
        # binary exponentiation on floats: deterministic and libm-free
        result = 1.0
        b = self.base._eval(x)
        e = self.exponent
        while e:
            if e & 1:
                result = result * b
            e >>= 1
            if e:
                b = b * b
        return result

    def _diff(self, k):
        if self.exponent == 0 or not self._vars >> k & 1:
            return _ZERO
        return _mul(Mul(Number(float(self.exponent)), Pow(self.base, self.exponent - 1)),
                    self.base._diff(k))

    def __str__(self):
        return f"{self._fmt(self.base, 5)}^{self.exponent}"


class Neg(Expression):
    __slots__ = ("child",)
    _prec = 3

    def __init__(self, child: Expression):
        object.__setattr__(self, "child", child)
        object.__setattr__(self, "_vars", child._vars)

    def _eval(self, x):
        return -self.child._eval(x)

    def _diff(self, k):
        if not self._vars >> k & 1:
            return _ZERO
        return _neg(self.child._diff(k))

    def __str__(self):
        return f"-{self._fmt(self.child, 3)}"


# --- tokenizer / parser -----------------------------------------------------

_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_VAR_RE = re.compile(r"x(\d+)")
_BINARY = {cls._op.strip(): cls for cls in (Add, Sub, Mul, Div)}  # token kind -> node class
# the lowest limit sys.set_int_max_str_digits allows on int() and str() of a decimal
# string (the default is 4,300 digits); a longer variable index is never converted
_INDEX_DIGITS = 640
_HUGE = 10 ** _INDEX_DIGITS


class _Token:
    __slots__ = ("kind", "text", "position", "value")

    def __init__(self, kind, text, position, value=None):
        self.kind = kind          # 'num' | 'var' | one of +-*/^() | 'end'
        self.text = text
        self.position = position  # 1-based character position
        self.value = value


def _tokenize(text: str, n: int) -> list[_Token]:
    tokens = []
    pos = 0
    length = len(text)
    # no index in 1..n has more digits than n, so a longer one is refused before int()
    width = len(str(n)) if -_HUGE < n < _HUGE else _INDEX_DIGITS
    while pos < length:
        ch = text[pos]
        if ch in " \t\r\n":
            pos += 1
            continue
        if ch in "+-*/^()":
            tokens.append(_Token(ch, ch, pos + 1))
            pos += 1
            continue
        m = _VAR_RE.match(text, pos)
        if m:
            digits = m.group(1).lstrip("0")
            index = int(digits or "0") if len(digits) <= width else None
            if index is None or index < 1 or index > n:
                raise UnknownVariableError(index, n, pos + 1)
            tokens.append(_Token("var", m.group(0), pos + 1, index))
            pos = m.end()
            continue
        m = _NUMBER_RE.match(text, pos)
        if m:
            value = float(m.group(0))
            if not math.isfinite(value):
                raise ExpressionSyntaxError(
                    f"literal {m.group(0)!r} is not a finite float", pos + 1
                )
            tokens.append(_Token("num", m.group(0), pos + 1, value))
            pos = m.end()
            continue
        if ch == "x":
            raise ExpressionSyntaxError("expected a variable index after 'x'", pos + 2)
        raise ExpressionSyntaxError(f"unexpected character {ch!r}", pos + 1)
    tokens.append(_Token("end", "", length + 1))
    return tokens


class _Parser:
    """Recursive descent; each ``parse_*`` returns a node and its depth.

    ``nesting`` counts the open parentheses and unary minuses around the
    current token, which bounds the parser's own recursion; ``deeper``
    bounds the depth of the tree it builds.
    """

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.at = 0
        self.nesting = 0

    def enter(self, tok: _Token) -> None:
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise ExpressionTooDeepError(MAX_DEPTH, tok.position)

    def deeper(self, depth: int, tok: _Token) -> int:
        """The depth of a node over a child of the given depth, checked against the limit."""
        if depth >= MAX_DEPTH:
            raise ExpressionTooDeepError(MAX_DEPTH, tok.position)
        return depth + 1

    def peek(self) -> _Token:
        return self.tokens[self.at]

    def advance(self) -> _Token:
        tok = self.tokens[self.at]
        self.at += 1
        return tok

    def parse_binary(self, prec: int) -> tuple[Expression, int]:
        """A left-associative chain of the operators of precedence ``prec``:
        1 for ``+ -`` over terms, 2 for ``* /`` over factors."""
        node, depth = self.parse_binary(2) if prec == 1 else self.parse_factor()
        while (cls := _BINARY.get(self.peek().kind)) is not None and cls._prec == prec:
            op = self.advance()
            rhs, rhs_depth = self.parse_binary(2) if prec == 1 else self.parse_factor()
            node = cls(node, rhs)
            depth = self.deeper(max(depth, rhs_depth), op)
        return node, depth

    def parse_factor(self) -> tuple[Expression, int]:
        if self.peek().kind == "-":
            op = self.advance()
            self.enter(op)
            child, depth = self.parse_factor()
            self.nesting -= 1
            return Neg(child), self.deeper(depth, op)
        node, depth = self.parse_atom()
        if self.peek().kind == "^":
            op = self.advance()
            node, depth = Pow(node, self.parse_exponent()), self.deeper(depth, op)
        return node, depth

    def parse_exponent(self) -> int:
        tok = self.peek()
        if tok.kind == "num":
            if not tok.text.isdigit():
                raise NonIntegerExponentError(
                    f"exponent must be a non-negative integer literal, got {tok.text!r}",
                    tok.position,
                )
            self.advance()
            return int(tok.text.lstrip("0") or "0")  # a finite literal: at most 309 digits left
        if tok.kind == "-":
            raise NonIntegerExponentError(
                "exponent must be a non-negative integer literal, got a negative sign",
                tok.position,
            )
        raise ExpressionSyntaxError("expected an integer exponent after '^'", tok.position)

    def parse_atom(self) -> tuple[Expression, int]:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Number(tok.value), 0
        if tok.kind == "var":
            self.advance()
            return Variable(tok.value), 0
        if tok.kind == "(":
            self.enter(self.advance())
            node, depth = self.parse_binary(1)
            closing = self.peek()
            if closing.kind != ")":
                raise ExpressionSyntaxError("expected ')'", closing.position)
            self.advance()
            self.nesting -= 1
            return node, depth
        what = "end of input" if tok.kind == "end" else repr(tok.text)
        raise ExpressionSyntaxError(f"expected a number, variable or '(', got {what}", tok.position)


def parse(text: str, n: int) -> Expression:
    """Parse ``text`` over variables x1..xn into an expression tree.

    Raises:
        ExpressionTooDeepError: the text nests, or its tree is, deeper than
            ``MAX_DEPTH`` levels.
    """
    parser = _Parser(_tokenize(text, n))
    node, _ = parser.parse_binary(1)
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ExpressionSyntaxError(f"unexpected trailing input {trailing.text!r}", trailing.position)
    return node


def differentiate(e: Expression, k: int) -> Expression:
    """Exact symbolic partial derivative of ``e`` with respect to x_k, zero branches pruned."""
    if k < 1:
        raise ValueError("variable index must be >= 1")
    return e._diff(k)


def evaluate(e: Expression, x):
    """Evaluate ``e`` at the point ``x`` (indexable, 0-based storage for x1..xn).

    A single point is walked as Python floats: the same IEEE-754 operations
    as on numpy scalars, with overflow to inf/nan silent rather than warned.

    A 2-D array ``x`` of shape (n, m) holds m points as its columns; the
    result is then a fresh length-m float array, entry j equal bit for bit to
    ``evaluate(e, x[:, j])``.  Overflow in a batch yields inf/nan silently, as
    it does on Python floats.
    """
    if getattr(x, "ndim", 1) != 2:
        return float(e._eval(np.asarray(x, dtype=float).tolist()))
    out = np.empty(x.shape[1])
    with np.errstate(all="ignore"):
        out[:] = e._eval(x)
    return out


def _evaluate_trees(trees, x) -> list[float]:
    """``evaluate(t, x)`` for each tree t in order, at one point converted once.

    The trees are walked one after another, so the first one that raises
    (a ``DivisionByZeroError``, say) is the first in sequence order.
    """
    xs = np.asarray(x, dtype=float).tolist()
    return [t._eval(xs) for t in trees]


def to_text(e: Expression) -> str:
    """Render ``e`` in the input grammar; ``parse(to_text(e), n)`` evaluates identically."""
    return str(e)


def substitute(e: Expression, replacements: dict[int, Expression]) -> Expression:
    """Return a copy of ``e`` with each Variable(i) in ``replacements`` swapped out."""
    if isinstance(e, Variable):
        return replacements.get(e.index, e)
    if isinstance(e, Number):
        return e
    if isinstance(e, _Binary):
        return type(e)(substitute(e.left, replacements), substitute(e.right, replacements))
    if isinstance(e, Pow):
        return Pow(substitute(e.base, replacements), e.exponent)
    if isinstance(e, Neg):
        return Neg(substitute(e.child, replacements))
    raise TypeError(f"not an expression node: {e!r}")
