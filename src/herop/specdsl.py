"""Kernel specification language: a tiny expression grammar for building
coefficient windows.

    expr := term (('*' | '/') term)*
    term := '(' expr ')'
          | 'pow1mt(' real ')'                      # (1-t)**real
          | 'poly[' real (',' real)* ']'
          | 'inv(' expr ')'
          | 'file("' path '")'
          | 'tail(' expr ',' amplitude ',' exponent ',' from_degree ')'

'/' desugars to multiplication by the inverse.  Whitespace is insignificant.
Syntax errors carry byte offsets; inverting a series with zero constant term
is rejected at parse validation.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .series import (
    FileList,
    Polynomial,
    PowSign,
    PowerTail,
    TruncatedSeries,
    binomial_series,
    cauchy_product,
    read_coefficient_file,
    reciprocal,
)

__all__ = [
    "Pow1mt",
    "Poly",
    "Inv",
    "Mul",
    "FileRef",
    "TailExtend",
    "KernelSpecAst",
    "SpecSyntaxError",
    "SpecSemanticError",
    "parse_kernel_spec",
    "pretty",
    "elaborate",
]

_MAX_DEPTH = 32


@dataclass(frozen=True)
class Pow1mt:
    exponent: float


@dataclass(frozen=True)
class Poly:
    coeffs: tuple


@dataclass(frozen=True)
class Inv:
    child: "KernelSpecAst"


@dataclass(frozen=True)
class Mul:
    left: "KernelSpecAst"
    right: "KernelSpecAst"


@dataclass(frozen=True)
class FileRef:
    path: str


@dataclass(frozen=True)
class TailExtend:
    child: "KernelSpecAst"
    amplitude: float
    exponent: float
    from_degree: int


KernelSpecAst = Union[Pow1mt, Poly, Inv, Mul, FileRef, TailExtend]


class SpecSyntaxError(ValueError):
    def __init__(self, offset: int, expected: str, found: str):
        super().__init__(f"offset {offset}: expected {expected}, found {found!r}")
        self.offset = offset
        self.expected = expected
        self.found = found


class SpecSemanticError(ValueError):
    def __init__(self, offset: int, message: str):
        super().__init__(f"offset {offset}: {message}")
        self.offset = offset


_NUMBER = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_INTEGER = re.compile(r"[+-]?\d+")


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _found(self) -> str:
        return self.text[self.pos : self.pos + 12] or "end of input"

    def _expect(self, literal: str) -> None:
        self._skip_ws()
        if not self.text.startswith(literal, self.pos):
            raise SpecSyntaxError(self.pos, repr(literal), self._found())
        self.pos += len(literal)

    def _number(self) -> float:
        self._skip_ws()
        m = _NUMBER.match(self.text, self.pos)
        if not m:
            raise SpecSyntaxError(self.pos, "a number", self._found())
        value = float(m.group())
        if not math.isfinite(value):  # a literal past float range, e.g. 1e309
            raise SpecSyntaxError(self.pos, "a number within float range", m.group())
        self.pos = m.end()
        return value

    def _integer(self) -> int:
        self._skip_ws()
        m = _INTEGER.match(self.text, self.pos)
        if not m:
            raise SpecSyntaxError(self.pos, "an integer", self._found())
        self.pos = m.end()
        return int(m.group())

    def parse(self) -> KernelSpecAst:
        node = self.expr(0)
        self._skip_ws()
        if self.pos != len(self.text):
            raise SpecSyntaxError(self.pos, "end of input", self._found())
        return node

    def expr(self, depth: int) -> KernelSpecAst:
        if depth > _MAX_DEPTH:
            raise SpecSyntaxError(self.pos, f"nesting depth <= {_MAX_DEPTH}", self._found())
        node = self.term(depth)
        while True:
            ch = self._peek()
            if ch == "*":
                self.pos += 1
                node = Mul(node, self.term(depth))
            elif ch == "/":
                op_at = self.pos
                self.pos += 1
                rhs = self.term(depth)
                _validate_invertible(rhs, op_at)
                node = Mul(node, Inv(rhs))
            else:
                return node

    def term(self, depth: int) -> KernelSpecAst:
        if depth > _MAX_DEPTH:
            raise SpecSyntaxError(self.pos, f"nesting depth <= {_MAX_DEPTH}", self._found())
        ch = self._peek()
        at = self.pos
        if ch == "(":
            self.pos += 1
            node = self.expr(depth + 1)
            self._expect(")")
            return node
        if self.text.startswith("pow1mt(", self.pos):
            self.pos += len("pow1mt(")
            e = self._number()
            self._expect(")")
            return Pow1mt(e)
        if self.text.startswith("poly[", self.pos):
            self.pos += len("poly[")
            coeffs = [self._number()]
            while self._peek() == ",":
                self.pos += 1
                coeffs.append(self._number())
            self._expect("]")
            return Poly(tuple(coeffs))
        if self.text.startswith("inv(", self.pos):
            self.pos += len("inv(")
            child = self.expr(depth + 1)
            self._expect(")")
            _validate_invertible(child, at)
            return Inv(child)
        if self.text.startswith('file("', self.pos):
            self.pos += len('file("')
            end = self.text.find('"', self.pos)
            if end < 0:
                raise SpecSyntaxError(self.pos, "a closing '\"'", self._found())
            path = self.text[self.pos : end]
            self.pos = end + 1
            self._expect(")")
            return FileRef(path)
        if self.text.startswith("tail(", self.pos):
            self.pos += len("tail(")
            child = self.expr(depth + 1)
            self._expect(",")
            amplitude = self._number()
            self._expect(",")
            exponent = self._number()
            self._expect(",")
            from_degree = self._integer()
            self._expect(")")
            if amplitude <= 0 or from_degree < 1:
                raise SpecSemanticError(at, "tail needs amplitude > 0 and from_degree >= 1")
            return TailExtend(child, amplitude, exponent, from_degree)
        raise SpecSyntaxError(
            self.pos, "'(', 'pow1mt(', 'poly[', 'inv(', 'file(\"', or 'tail('", self._found()
        )


def constant_term(node: KernelSpecAst) -> float:
    """Constant coefficient of the series the node denotes (reads files)."""
    if isinstance(node, Pow1mt):
        return 1.0
    if isinstance(node, Poly):
        return float(node.coeffs[0])
    if isinstance(node, Inv):
        return 1.0 / constant_term(node.child)
    if isinstance(node, Mul):
        return constant_term(node.left) * constant_term(node.right)
    if isinstance(node, TailExtend):
        return constant_term(node.child) if node.from_degree >= 1 else 0.0
    if isinstance(node, FileRef):
        try:
            return float(read_coefficient_file(node.path).coeffs[0])
        except OSError:
            return 1.0  # unreadable now: defer to elaboration
    raise TypeError(f"unknown node {node!r}")


def _validate_invertible(node: KernelSpecAst, offset: int) -> None:
    if constant_term(node) == 0.0:
        raise SpecSemanticError(offset, "division by a series with zero constant term")


def parse_kernel_spec(text: str) -> KernelSpecAst:
    return _Parser(text).parse()


def _fmt(x: float) -> str:
    return repr(float(x))


def pretty(node: KernelSpecAst) -> str:
    """Canonical text form; parse(pretty(ast)) reproduces the AST."""
    if isinstance(node, Pow1mt):
        return f"pow1mt({_fmt(node.exponent)})"
    if isinstance(node, Poly):
        return "poly[" + ",".join(_fmt(c) for c in node.coeffs) + "]"
    if isinstance(node, Inv):
        return f"inv({pretty(node.child)})"
    if isinstance(node, Mul):
        return f"{_wrap(node.left)}*{_wrap(node.right)}"
    if isinstance(node, FileRef):
        return f'file("{node.path}")'
    if isinstance(node, TailExtend):
        return (
            f"tail({pretty(node.child)},{_fmt(node.amplitude)},"
            f"{_fmt(node.exponent)},{node.from_degree})"
        )
    raise TypeError(f"unknown node {node!r}")


def _wrap(node: KernelSpecAst) -> str:
    # Mul is left-associative in the grammar; parenthesize nested products on
    # the right so the round-trip reproduces the tree shape exactly
    text = pretty(node)
    return f"({text})" if isinstance(node, Mul) else text


def elaborate(node: KernelSpecAst, n_max: int) -> TruncatedSeries:
    """Materialize the node as a coefficient window of length n_max + 1."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if isinstance(node, Pow1mt):
        return binomial_series(node.exponent, PowSign.PLUS, n_max)
    if isinstance(node, Poly):
        out = np.zeros(n_max + 1)
        take = min(len(node.coeffs), n_max + 1)
        out[:take] = node.coeffs[:take]
        return TruncatedSeries(out, Polynomial(min(len(node.coeffs) - 1, n_max)))
    if isinstance(node, Inv):
        child = elaborate(node.child, n_max)
        return reciprocal(child, n_max).k
    if isinstance(node, Mul):
        return cauchy_product(elaborate(node.left, n_max), elaborate(node.right, n_max))
    if isinstance(node, FileRef):
        series = read_coefficient_file(node.path)
        out = np.zeros(n_max + 1)
        take = min(series.trunc_len, n_max + 1)
        out[:take] = series.coeffs[:take]
        return TruncatedSeries(out, FileList(node.path))
    if isinstance(node, TailExtend):
        child = elaborate(node.child, n_max)
        out = np.array(child.coeffs)
        n0 = node.from_degree
        if n0 <= n_max:
            idx = np.arange(n0, n_max + 1, dtype=float)
            with np.errstate(over="ignore"):  # TruncatedSeries reports overflow
                out[n0:] = node.amplitude * idx ** (-node.exponent)
        return TruncatedSeries(out, PowerTail(node.amplitude, node.exponent, n0))
    raise TypeError(f"unknown node {node!r}")
