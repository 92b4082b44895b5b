"""Parser, printer and evaluator for the bracket expression language.

Grammar (whitespace allowed between tokens):

    expr    := term (('+' | '-') term)*
    term    := [integer '*'] atom
    atom    := literal | 'star(' integer ',' integer ')' | '(' expr ')'
    literal := ['-'] '<' integer '>' ['_0' | '_10']

A minus immediately before '<' (no space) is part of the literal and flags
the negated piece -<k>, which is different from the negative-scale literal
<-k>.  Everything else about '-' is the binary operator.  Syntax errors
carry the offset of the first bad token.  Parentheses nest at most
MAX_DEPTH deep.
"""

from __future__ import annotations

import re
import sys

from ._record import Record, flag, integer
from .ring import SimplexLiteral, embed_literal, zero
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
        self._set(scale, suffix, flag(negated, "negated"))


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


# One finditer pass makes every token.  Each match is optional whitespace and
# one token; `bad` takes any other character, so matches run on without a gap,
# and `end` makes the end of the input a token, which also keeps trailing
# whitespace from being rescanned at each of its positions.
_TOKEN = re.compile(
    r"""\s*(?:
        (?P<neglit>-(?=<))
      | (?P<int>\d+)
      | (?P<suffix>_10|_0)
      | (?P<star>star)
      | (?P<sym>[<>*+\-(),])
      | (?P<end>\Z)
      | (?P<bad>\S)
    )""",
    re.VERBOSE,
)


class _Parser:
    def __init__(self, text: str, dim: int):
        dim = integer(dim, "dim")
        if dim not in (2, 3):
            raise ValueError("dimension context must be 2 or 3")
        self.dim = dim
        self.tokens = [(m.lastgroup, m[m.lastgroup], m.start(m.lastgroup))
                       for m in _TOKEN.finditer(text)]
        for kind, value, pos in self.tokens:
            if kind == "bad":
                raise ExpressionError(f"unexpected character {value!r}", pos)
        self.index = 0
        self.depth = 0

    def take(self, kind, value=None, what=None):
        """The next token if it has this kind (and value), else None; given
        `what`, a mismatch raises an error that says `what` was expected."""
        tok = self.tokens[self.index]
        if tok[0] == kind and (value is None or tok[1] == value):
            self.index += 1
            return tok
        if what is None:
            return None
        found = " but input ended" if tok[0] == "end" else f", found {tok[1]!r}"
        raise ExpressionError(f"expected {what}{found}", tok[2])

    def parse(self) -> Expr:
        expr = self.expr()
        kind, value, pos = self.tokens[self.index]
        if kind != "end":
            raise ExpressionError(f"unexpected {value!r}", pos)
        return expr

    def expr(self) -> Expr:
        terms = [(1, self.term())]
        while op := self.take("sym", "+") or self.take("sym", "-"):
            terms.append((1 if op[1] == "+" else -1, self.term()))
        return Expr(tuple(terms))

    def term(self) -> Term:
        tok = self.take("int")
        if tok is None:
            return Term(1, self.atom())
        self.take("sym", "*", "'*' after a coefficient")
        return Term(self.number(tok), self.atom())

    def atom(self) -> Lit | Star | Group:
        negated = self.take("neglit") is not None  # always followed by '<'
        if self.take("sym", "<"):
            return self.literal(negated)
        if self.take("star"):
            self.take("sym", "(", "'('")
            n = self.integer()
            self.take("sym", ",", "','")
            m = self.integer()
            self.take("sym", ")", "')'")
            return Star(n, m)
        if tok := self.take("sym", "("):
            if self.depth == MAX_DEPTH:
                raise ExpressionError(f"parentheses nest deeper than {MAX_DEPTH}", tok[2])
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            self.take("sym", ")", "')'")
            return Group(inner)
        kind, value, pos = self.tokens[self.index]
        found = "" if kind == "end" else f", found {value!r}"
        raise ExpressionError(f"expected a literal, star(...) or '('{found}", pos)

    def integer(self) -> int:
        sign = -1 if self.take("sym", "-") else 1
        return sign * self.number(self.take("int", what="an integer"))

    def number(self, tok) -> int:
        try:
            return int(tok[1])
        except ValueError:  # an int token fails only past Python's digit limit
            limit = sys.get_int_max_str_digits()
            raise ExpressionError(f"integer has more than {limit} digits", tok[2]) from None

    def literal(self, negated: bool) -> Lit:
        scale = self.integer()
        self.take("sym", ">", "'>'")
        tok = self.take("suffix")
        if tok is not None and tok[1] == "_10" and self.dim != 2:
            raise ExpressionError("the segment family _10 needs the 2-d context", tok[2])
        return Lit(scale, tok[1][1:] if tok else None, negated)


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
        # _10: the boundary-carrying segments, _0: this dim's boundary-carrying family
        family = {"10": (1, True), "0": (dim, True)}.get(atom.suffix, (dim, extended))
        return embed_literal(SimplexLiteral(family[0], atom.scale, -1 if atom.negated else 1, family[1]))
    if isinstance(atom, Star):
        return evaluate(star_product(atom.n, atom.m))
    return evaluate_expression(atom.inner, dim, extended)


def evaluate_expression(expr: Expr, dim: int = 2, extended: bool = False):
    """Ring value of a parsed expression.

    Literal families must be consistent within the expression; mixing the
    plain and boundary-carrying families (or dimensions) raises the usual
    representation error from the element arithmetic.
    """
    extended = flag(extended, "extended")
    total = None
    for sign, term in expr.terms:
        value = term.coeff * _eval_atom(term.atom, dim, extended)
        value = -value if sign < 0 else value
        total = value if total is None else total + value
    return total if total is not None else zero(dim, extended)
