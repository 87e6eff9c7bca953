"""Concrete syntax for species expressions and definitions files.

Grammar (whitespace-insensitive):

    expr    := term { "+" term }
    term    := factor { "*" factor }
    factor  := postfix { "^" integer }
    postfix := atom { "'" }
    atom    := "pt" "(" expr ")"
             | ident "(" expr ")"          substitution
             | ident "[" integer "]"       parametric primitive (Pk, Ek)
             | "(" expr ")"
             | ident | "0" | "1"

Powers are sugar: F^k is expanded to a left-nested product at parse time, so
there is no power node in the tree.  A definitions file holds one "Name =
expr" per line; "#" starts a comment and definitions may reference names
bound later in the file.

An expression nests at most MAX_NESTING levels: no more brackets open at
once, and no more nodes on a path from the root of its tree, where F^k
counts as the k-1 products it expands to.  The parser and the walks over
the tree recurse once or a few times per level, so deeper input is
refused with a ParseError before it can exhaust Python's stack.
"""

import re

from .errors import ParseError, UnboundName
from .expr import (
    Derivative,
    Environment,
    Name,
    PARAMETRIC,
    Pointing,
    Primitive,
    PrimitiveKind,
    Product,
    Sum,
    Substitute,
    TOKEN_TO_KIND,
)

__all__ = ["MAX_NESTING", "parse_expr", "parse_defs"]

MAX_NESTING = 100

_TOKEN_RE = re.compile(
    r"\s+|(?P<ident>[A-Za-z][A-Za-z0-9]*)|(?P<int>\d+)|(?P<sym>[-+*^'()\[\]=])"
)

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*\Z")

#: Nodes are values, so parses share one node per unparametrised primitive.
_PRIMITIVES = {k: Primitive(k) for k in PrimitiveKind if k not in PARAMETRIC}


def _tokenize(text):
    """Yield (kind, value, position) triples; kind in ident/int/sym/end."""
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}",
                position=pos,
                expected=("identifier", "number", "operator"),
            )
        if m.lastgroup:  # whitespace matches no group
            out.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    out.append(("end", "", len(text)))
    return out


def _named(ident, pos, hint):
    """The node ident names without a [k] parameter: a primitive or a
    Name.  A parametric kind is refused at pos, hint ending the message."""
    kind = TOKEN_TO_KIND.get(ident)
    if kind is None:
        return Name(ident)
    if kind in PARAMETRIC:
        raise ParseError(
            f"'{ident}' needs its parameter{hint}",
            position=pos,
            expected=("'['",),
        )
    return _PRIMITIVES[kind]


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.at = 0
        self.open = 0

    def accept_sym(self, symbol):
        # Only a "sym" token's text is a symbol.
        if self.tokens[self.at][1] == symbol:
            self.at += 1
            return True
        return False

    def expect_sym(self, symbol, why):
        if not self.accept_sym(symbol):
            kind, value, pos = self.tokens[self.at]
            raise ParseError(
                f"found {value!r} while reading {why}" if value
                else f"input ended while reading {why}",
                position=pos,
                expected=(repr(symbol),),
            )

    def expect_int(self, why):
        kind, value, pos = self.tokens[self.at]
        if kind != "int":
            raise ParseError(
                f"expected an integer for {why}",
                position=pos,
                expected=("integer",),
            )
        self.at += 1
        return int(value)

    def nested(self, depth):
        """Refuse a depth over MAX_NESTING at the token just read."""
        if depth > MAX_NESTING:
            raise ParseError(
                f"the expression nests deeper than {MAX_NESTING} levels",
                position=self.tokens[self.at - 1][2],
            )

    def bracketed(self, why):
        """An expression inside brackets that are open, up to the closing
        one."""
        self.open += 1
        self.nested(self.open)
        found = self.expr()
        self.expect_sym(")", why)
        self.open -= 1
        return found

    # -- grammar ----------------------------------------------------------

    def expr(self):
        node = self.term()
        while self.accept_sym("+"):
            node = Sum(node, self.term())
            self.nested(node.height)
        return node

    def term(self):
        node = self.factor()
        while self.accept_sym("*"):
            node = Product(node, self.factor())
            self.nested(node.height)
        return node

    def factor(self):
        node = self.postfix()
        while self.accept_sym("^"):
            k = self.expect_int("the exponent")
            if k == 0:
                node = _PRIMITIVES[PrimitiveKind.ONE]
                continue
            # Checked before the k-1 products are built.
            self.nested(node.height + k - 1)
            base = node
            for _ in range(k - 1):
                node = Product(node, base)
        return node

    def postfix(self):
        node = self.atom()
        while self.accept_sym("'"):
            node = Derivative(node)
            self.nested(node.height)
        return node

    def atom(self):
        kind, value, pos = self.tokens[self.at]
        self.at += 1
        if kind == "sym" and value == "(":
            return self.bracketed("a parenthesized expression")
        if kind == "int":
            if value == "0":
                return _PRIMITIVES[PrimitiveKind.ZERO]
            if value == "1":
                return _PRIMITIVES[PrimitiveKind.ONE]
            raise ParseError(
                f"the number {value} is not a species",
                position=pos,
                expected=("'0'", "'1'"),
            )
        if kind == "ident":
            return self._ident_atom(value, pos)
        raise ParseError(
            f"found {value!r} where an expression was expected" if value
            else "input ended where an expression was expected",
            position=pos,
            expected=("identifier", "'('", "'0'", "'1'"),
        )

    def _ident_atom(self, ident, pos):
        if ident == "pt":
            self.expect_sym("(", "the argument of pt")
            node = Pointing(self.bracketed("the argument of pt"))
            self.nested(node.height)
            return node
        if self.accept_sym("("):
            inner = self.bracketed("a substitution argument")
            callee = _named(ident, pos, " before an argument")
            node = Substitute(callee, inner)
            self.nested(node.height)
            return node
        if self.accept_sym("["):
            k = self.expect_int("the parameter")
            self.expect_sym("]", "a parameter")
            kind = TOKEN_TO_KIND.get(ident)
            if kind is None or kind not in PARAMETRIC:
                raise ParseError(
                    f"'{ident}' does not take a [k] parameter",
                    position=pos,
                    expected=("Pk", "Ek"),
                )
            return Primitive(kind, k)
        return _named(ident, pos, f", e.g. {ident}[2]")

    def finish(self, node):
        kind, value, pos = self.tokens[self.at]
        if kind != "end":
            raise ParseError(
                f"trailing input {value!r}",
                position=pos,
                expected=("end of input",),
            )
        return node


def parse_expr(text):
    """Parse one expression; raises ParseError with position on bad input."""
    p = _Parser(text)
    return p.finish(p.expr())


def parse_defs(text):
    """Parse a definitions file into an Environment.

    Raises ParseError for syntax, DuplicateName for a rebinding, and
    UnboundName when a right-hand side references a name the file never
    defines.
    """
    env = Environment()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, eq, rhs_text = line.partition("=")
        name = head.strip()
        if not eq or not _IDENT_RE.match(name or ""):
            raise ParseError(
                f"line {lineno}: expected 'Name = expression'",
                position=0,
                expected=("Name = expression",),
            )
        try:
            rhs = parse_expr(rhs_text)
        except ParseError as err:
            raise ParseError(
                f"line {lineno}: {err.message}",
                position=err.position,
                expected=err.expected,
            ) from None
        env.bind(name, rhs)
    for name, rhs in env.items():
        for ref in sorted(rhs.depths):
            if ref not in env:
                raise UnboundName(
                    f"'{ref}' (referenced by '{name}') is never defined"
                )
    return env
