"""Parser, printer and evaluator for the bracket expression language.

Grammar (whitespace allowed between tokens):

    expr    := term (('+' | '-') term)*
    term    := [integer '*'] atom
    atom    := literal | 'star(' integer ',' integer ')' | '(' expr ')'
    literal := ['-'] '<' integer '>' ['_0' | '_10']

A minus immediately before '<' (no space) is part of the literal and flags
the negated piece -<k>, which is different from the negative-scale literal
<-k>.  Everything else about '-' is the binary operator.  Syntax errors
carry the byte offset of the offending character.  Parentheses nest at
most MAX_DEPTH deep.
"""

from __future__ import annotations

import re
import sys

from ._record import Record
from .ring import SimplexLiteral, embed_literal, representation
from .forms import star_product, evaluate


# Parentheses may nest this deep.  Parsing, evaluating, printing and
# comparing a tree all recurse per level.  Under Python's default recursion
# limit of 1000, parsing fails near 330 levels, but `==` and repr() of the
# records fail at 90 (Python 3.10 and 3.11; 3.12 at 107 and 136) and hash()
# at 165, so 32 keeps every operation well inside the limit.
MAX_DEPTH = 32


class ExpressionError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


# An atom is a Lit, a Star or a Group.


class Lit(Record):
    __slots__ = ("scale", "suffix", "negated")  # suffix: None, "0" or "10"

    def __init__(self, scale: int, suffix: str | None = None, negated: bool = False):
        self._set(scale, suffix, negated)


class Star(Record):
    __slots__ = ("n", "m")

    def __init__(self, n: int, m: int):
        self._set(n, m)


class Group(Record):
    __slots__ = ("inner",)

    def __init__(self, inner: Expr):
        self._set(inner)


class Term(Record):
    __slots__ = ("coeff", "atom")

    def __init__(self, coeff: int, atom: Lit | Star | Group):
        self._set(coeff, atom)


class Expr(Record):
    __slots__ = ("terms",)  # (sign, term) pairs; the first sign is +1

    def __init__(self, terms: tuple):
        self._set(terms)


_TOKEN = re.compile(
    r"""\s*(?:
        (?P<neglit>-(?=<))
      | (?P<int>\d+)
      | (?P<suffix>_10|_0)
      | (?P<star>star)
      | (?P<sym>[<>*+\-(),])
    )""",
    re.VERBOSE,
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        if not text[pos:].strip():
            break
        match = _TOKEN.match(text, pos)
        if not match:
            at = pos + len(text[pos:]) - len(text[pos:].lstrip())
            raise ExpressionError(f"unexpected character {text[at]!r}", at)
        kind = match.lastgroup
        tokens.append((kind, match.group(kind), match.start(kind)))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, text: str, dim: int):
        if dim not in (2, 3):
            raise ValueError("dimension context must be 2 or 3")
        self.text = text
        self.dim = dim
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def next(self, expect=None, what=None):
        tok = self.peek()
        if tok is None:
            raise ExpressionError(f"expected {what or expect} but input ended", len(self.text))
        kind, value, pos = tok
        if expect is not None and (kind, value) != expect and kind != expect:
            raise ExpressionError(f"expected {what or expect}, found {value!r}", pos)
        self.index += 1
        return tok

    def parse(self) -> Expr:
        expr = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ExpressionError(f"unexpected {tok[1]!r}", tok[2])
        return expr

    def expr(self) -> Expr:
        terms = [(1, self.term())]
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "sym" or tok[1] not in "+-":
                break
            self.index += 1
            terms.append((1 if tok[1] == "+" else -1, self.term()))
        return Expr(tuple(terms))

    def term(self) -> Term:
        tok = self.peek()
        if tok is not None and tok[0] == "int":
            self.index += 1
            self.next(("sym", "*"), what="'*' after a coefficient")
            return Term(self.number(tok), self.atom())
        return Term(1, self.atom())

    def atom(self) -> Lit | Star | Group:
        tok = self.peek()
        if tok is None:
            raise ExpressionError("expected a literal, star(...) or '('", len(self.text))
        kind, value, pos = tok
        if kind == "neglit":
            self.index += 1
            lit = self.literal()
            return Lit(lit.scale, lit.suffix, negated=True)
        if kind == "sym" and value == "<":
            return self.literal()
        if kind == "star":
            self.index += 1
            self.next(("sym", "("), what="'('")
            n = self.integer()
            self.next(("sym", ","), what="','")
            m = self.integer()
            self.next(("sym", ")"), what="')'")
            return Star(n, m)
        if kind == "sym" and value == "(":
            if self.depth == MAX_DEPTH:
                raise ExpressionError(f"parentheses nest deeper than {MAX_DEPTH}", pos)
            self.index += 1
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            self.next(("sym", ")"), what="')'")
            return Group(inner)
        raise ExpressionError(f"expected a literal, star(...) or '(', found {value!r}", pos)

    def integer(self) -> int:
        sign = 1
        tok = self.peek()
        if tok is not None and tok[0] == "sym" and tok[1] == "-":
            self.index += 1
            sign = -1
        return sign * self.number(self.next("int", what="an integer"))

    def number(self, tok) -> int:
        try:
            return int(tok[1])
        except ValueError:  # an int token fails only past Python's digit limit
            limit = sys.get_int_max_str_digits()
            raise ExpressionError(f"integer has more than {limit} digits", tok[2]) from None

    def literal(self) -> Lit:
        self.next(("sym", "<"), what="'<'")
        scale = self.integer()
        self.next(("sym", ">"), what="'>'")
        tok = self.peek()
        suffix = None
        if tok is not None and tok[0] == "suffix":
            self.index += 1
            suffix = tok[1][1:]
            if suffix == "10" and self.dim != 2:
                raise ExpressionError(
                    "the segment family _10 needs the 2-d context", tok[2]
                )
        return Lit(scale, suffix)


def parse(text: str, dim: int = 2) -> Expr:
    """Parse an expression in the given dimension context (2 or 3)."""
    return _Parser(text, dim).parse()


def unparse(node) -> str:
    """Expression text whose parse is the given tree."""
    if isinstance(node, Expr):
        out = []
        for i, (sign, term) in enumerate(node.terms):
            if i == 0:
                out.append(unparse(term) if sign > 0 else f"-{unparse(term)}")
            else:
                out.append(f" {'+' if sign > 0 else '-'} {unparse(term)}")
        return "".join(out)
    if isinstance(node, Term):
        text = unparse(node.atom)
        return f"{node.coeff}*{text}" if node.coeff != 1 else text
    if isinstance(node, Lit):
        suffix = f"_{node.suffix}" if node.suffix else ""
        return f"{'-' if node.negated else ''}<{node.scale}>{suffix}"
    if isinstance(node, Star):
        return f"star({node.n},{node.m})"
    if isinstance(node, Group):
        return f"({unparse(node.inner)})"
    raise TypeError(f"not an expression node: {node!r}")


def _eval_atom(atom: Lit | Star | Group, dim: int, extended: bool):
    if isinstance(atom, Lit):
        if atom.suffix == "10":
            lit = SimplexLiteral(1, atom.scale, -1 if atom.negated else 1, True)
        elif atom.suffix == "0":
            lit = SimplexLiteral(dim, atom.scale, -1 if atom.negated else 1, True)
        else:
            lit = SimplexLiteral(dim, atom.scale, -1 if atom.negated else 1, extended)
        return embed_literal(lit)
    if isinstance(atom, Star):
        return evaluate(star_product(atom.n, atom.m))
    return evaluate_expression(atom.inner, dim, extended)


def evaluate_expression(expr: Expr, dim: int = 2, extended: bool = False):
    """Ring value of a parsed expression.

    Literal families must be consistent within the expression; mixing the
    plain and boundary-carrying families (or dimensions) raises the usual
    representation error from the element arithmetic.
    """
    total = None
    for sign, term in expr.terms:
        value = term.coeff * _eval_atom(term.atom, dim, extended)
        value = -value if sign < 0 else value
        total = value if total is None else total + value
    return total if total is not None else representation(dim, extended)[0]
