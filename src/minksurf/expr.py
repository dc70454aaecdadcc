"""A tiny expression grammar for profile functions on the command line.

Grammar (whitespace ignored):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right associative
    atom   := NUMBER | VARIABLE | FUNC '(' expr ')' | '(' expr ')'

with VARIABLE one of ``u``/``v`` and FUNC one of sin, cos, sqrt, ln, exp.
An expression compiles to a jet-evaluable callable of its declared
variable; mentioning the other variable is an error.  Parse errors carry
the offending source position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import jets
from .errors import ExprError
from .jets import Jet2

_FUNCS: dict[str, Callable[[Jet2], Jet2]] = {
    "sin": jets.sin,
    "cos": jets.cos,
    "sqrt": jets.sqrt,
    "ln": jets.ln,
    "exp": jets.exp,
}


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # num | name | op | lparen | rparen | end
    text: str
    pos: int
    value: float = 0.0


def _tokenize(src: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^":
            tokens.append(_Token("op", ch, i))
            i += 1
        elif ch == "(":
            tokens.append(_Token("lparen", ch, i))
            i += 1
        elif ch == ")":
            tokens.append(_Token("rparen", ch, i))
            i += 1
        elif ch.isdigit() or ch == ".":
            j = i
            seen_exp = False
            while j < n and (src[j].isdigit() or src[j] == "."
                             or src[j] in "eE"
                             or (seen_exp and src[j] in "+-" and src[j - 1] in "eE")):
                if src[j] in "eE":
                    seen_exp = True
                j += 1
            text = src[i:j]
            try:
                value = float(text)
            except ValueError:
                raise ExprError(f"malformed number {text!r}", i) from None
            tokens.append(_Token("num", text, i, value))
            i = j
        elif ch.isalpha():
            j = i
            while j < n and src[j].isalnum():
                j += 1
            tokens.append(_Token("name", src[i:j], i))
            i = j
        else:
            raise ExprError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


# AST nodes: ("num", x) | ("var",) | ("call", fname, arg) |
#            ("neg", a) | ("+"|"-"|"*"|"/", a, b) | ("pow", a, b)
Node = tuple


class _Parser:
    def __init__(self, tokens: list[_Token], variable: str):
        self.tokens = tokens
        self.i = 0
        self.variable = variable

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def take(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprError(f"unexpected {tok.text!r}", tok.pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.take().text
            node = (op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.take().text
            node = (op, node, self.unary())
        return node

    def unary(self) -> Node:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.take()
            return ("neg", self.unary())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.take()
            return ("pow", base, self.unary())
        return base

    def atom(self) -> Node:
        tok = self.take()
        if tok.kind == "num":
            return ("num", tok.value)
        if tok.kind == "lparen":
            node = self.expr()
            closing = self.take()
            if closing.kind != "rparen":
                raise ExprError("expected ')'", closing.pos)
            return node
        if tok.kind == "name":
            if tok.text == self.variable:
                return ("var",)
            if tok.text in _FUNCS:
                opening = self.take()
                if opening.kind != "lparen":
                    raise ExprError(f"expected '(' after {tok.text}", opening.pos)
                arg = self.expr()
                closing = self.take()
                if closing.kind != "rparen":
                    raise ExprError("expected ')'", closing.pos)
                return ("call", tok.text, arg)
            if tok.text in ("u", "v"):
                raise ExprError(
                    f"variable {tok.text!r} not allowed here (expected {self.variable!r})",
                    tok.pos)
            raise ExprError(f"unknown identifier {tok.text!r}", tok.pos)
        raise ExprError(f"unexpected {tok.text!r}" if tok.text else "unexpected end of input",
                        tok.pos)


def _eval(node: Node, x: Jet2) -> Jet2:
    tag = node[0]
    if tag == "num":
        return Jet2.constant(node[1])
    if tag == "var":
        return x
    if tag == "neg":
        return -_eval(node[1], x)
    if tag == "call":
        return _FUNCS[node[1]](_eval(node[2], x))
    if tag == "pow":
        base = _eval(node[1], x)
        exponent = node[2]
        if exponent[0] == "num":
            p = exponent[1]
            if float(p).is_integer():
                return jets.powi(base, int(p))
            return jets.powr(base, p)
        if exponent[0] == "neg" and exponent[1][0] == "num":
            p = -exponent[1][1]
            if float(p).is_integer():
                return jets.powi(base, int(p))
            return jets.powr(base, p)
        return jets.exp(_eval(exponent, x) * jets.ln(base))
    a = _eval(node[1], x)
    b = _eval(node[2], x)
    if tag == "+":
        return a + b
    if tag == "-":
        return a - b
    if tag == "*":
        return a * b
    return a / b


def compile_profile(src: str, variable: str) -> Callable[[Jet2], Jet2]:
    """Compile an expression of one variable into a jet-evaluable callable."""
    if variable not in ("u", "v"):
        raise ExprError(f"unsupported variable {variable!r}", 0)
    node = _Parser(_tokenize(src), variable).parse()
    return lambda x: _eval(node, x)

