"""Expression language for slice polynomials.

Grammar (whitespace insensitive):

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' nat)?
    atom   := var | '~' var | 'conj(' var ')' | qlit | '(' expr ')'
    var    := 'x' nat
    qlit   := number ['i'|'j'|'k'] | 'i' | 'j' | 'k'
    number := nat ['/' nat | '.' nat]

``*`` always denotes the slice product; multi-component quaternion literals
arise from sums, e.g. ``1+2i``.  Lowering is total on well-formed trees and
multiplies factors in source order.  A ``+``/``-``/``*`` chain of any length
is walked in a loop; parentheses nested deeper than ``MAX_NESTING`` are a
syntax error at the offending ``(``.
"""

import operator
import re
from fractions import Fraction

from .quaternion import (Quaternion, I, J, K, NUMBER_PATTERN, MAX_DIGITS,
                         LONG_DIGIT_RUN)
from .slicefn import variable, conj_variable, constant

_UNIT_VALUES = {"i": I, "j": J, "k": K}

# Deepest parenthesis nesting the parser accepts; each level costs a few
# interpreter frames in the parser and in lowering.
MAX_NESTING = 100

_CHAIN_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


class ExpressionSyntaxError(ValueError):
    """Malformed expression text; carries the byte offset of the problem."""

    def __init__(self, message, offset):
        super().__init__("%s (offset %d)" % (message, offset))
        self.offset = offset


class ArityError(ValueError):
    """A variable index exceeded the ambient number of variables."""


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<var>x(?P<varidx>\d+))
  | (?P<conj>conj)
  | (?P<number>%s)
  | (?P<unit>[ijk])
  | (?P<op>[+\-*^()~])
""" % NUMBER_PATTERN, re.VERBOSE)


def tokenize(text):
    """``(kind, value, offset)`` triples and a final ``end`` token: the
    kind is the alternative that matched (``lastgroup``, in which ``var``
    encloses ``varidx``), the value is read from its one matched text."""
    run = LONG_DIGIT_RUN.search(text)
    if run:
        raise ExpressionSyntaxError("number has %d digits, more than the %d "
                                    "accepted" % (len(run.group()), MAX_DIGITS),
                                    run.start())
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match:
            raise ExpressionSyntaxError("unexpected character %r" % text[pos], pos)
        kind = match.lastgroup
        if kind != "ws":
            value = match.group()
            if kind == "var":
                value = int(value[1:])
            elif kind == "number":
                try:
                    value = Fraction(value)
                except ZeroDivisionError:
                    raise ExpressionSyntaxError(
                        "number %r has a zero denominator" % value, pos) from None
            tokens.append((kind, value, pos))
        pos = match.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise ExpressionSyntaxError("expected %r" % op, offset)
        return self.advance()

    def parse_expression(self):
        kind, value, _ = self.peek()
        negate = False
        if kind == "op" and value in "+-":
            negate = value == "-"
            self.advance()
        node = self.parse_term()
        if negate:
            node = ("neg", node)
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                right = self.parse_term()
                node = ("add" if value == "+" else "sub", node, right)
            else:
                return node

    def parse_term(self):
        node = self.parse_factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.advance()
                node = ("mul", node, self.parse_factor())
            else:
                return node

    def parse_factor(self):
        node = self.parse_atom()
        kind, value, offset = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            kind, value, offset = self.peek()
            if kind != "number" or value.denominator != 1:
                raise ExpressionSyntaxError("exponent must be a natural number",
                                            offset)
            self.advance()
            node = ("pow", node, int(value))
        return node

    def parse_atom(self):
        kind, value, offset = self.advance()
        if kind == "var":
            return ("var", value)
        if kind == "op" and value == "~":
            kind, value, offset = self.advance()
            if kind != "var":
                raise ExpressionSyntaxError("expected a variable after '~'", offset)
            return ("cvar", value)
        if kind == "conj":
            self.expect_op("(")
            kind, value, offset = self.advance()
            if kind != "var":
                raise ExpressionSyntaxError("expected a variable in conj()", offset)
            self.expect_op(")")
            return ("cvar", value)
        if kind == "number":
            nxt_kind, nxt_value, _ = self.peek()
            if nxt_kind == "unit":
                self.advance()
                return ("const", _UNIT_VALUES[nxt_value] * value)
            return ("const", Quaternion(value))
        if kind == "unit":
            return ("const", _UNIT_VALUES[value])
        if kind == "op" and value == "(":
            if self.depth == MAX_NESTING:
                raise ExpressionSyntaxError(
                    "parentheses nested deeper than %d" % MAX_NESTING, offset)
            self.depth += 1
            node = self.parse_expression()
            self.expect_op(")")
            self.depth -= 1
            return node
        raise ExpressionSyntaxError("expected a variable, literal or '('", offset)


def parse(text):
    """Parse to a tree of tuples; raises ExpressionSyntaxError with offset."""
    parser = _Parser(tokenize(text))
    node = parser.parse_expression()
    kind, _, offset = parser.peek()
    if kind != "end":
        raise ExpressionSyntaxError("trailing input", offset)
    return node


def max_variable_index(node):
    best, stack = 0, [node]
    while stack:
        node = stack.pop()
        kind = node[0]
        if kind in ("var", "cvar"):
            best = max(best, node[1])
        elif kind in ("neg", "pow"):
            stack.append(node[1])
        elif kind != "const":
            stack.extend(node[1:3])
    return best


def lower(node, n):
    """Lower a parse tree to a SliceFunction in n variables.

    A chain's left spine is walked in a loop: the leftmost operand is
    lowered first, then each right operand in turn is lowered and applied,
    as a recursion over the left-nested tree would."""
    kind = node[0]
    if kind == "var" or kind == "cvar":
        m = node[1]
        if not 1 <= m <= n:
            raise ArityError("variable x%d exceeds the ambient count n=%d" % (m, n))
        return variable(n, m) if kind == "var" else conj_variable(n, m)
    if kind == "const":
        return constant(n, node[1])
    if kind == "neg":
        return -lower(node[1], n)
    if kind == "pow":
        return lower(node[1], n) ** node[2]
    if kind not in _CHAIN_OPS:
        raise ValueError("unknown node kind %r" % kind)
    spine = [node]
    left = node[1]
    while left[0] in _CHAIN_OPS:
        spine.append(left)
        left = left[1]
    result = lower(left, n)
    for kind, _, right in reversed(spine):
        result = _CHAIN_OPS[kind](result, lower(right, n))
    return result


def parse_slice(text, n=None):
    """Parse and lower in one step; n defaults to the largest variable index."""
    node = parse(text)
    inferred = max_variable_index(node)
    ambient = n if n is not None else max(inferred, 1)
    return lower(node, ambient)
