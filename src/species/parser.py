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

from .errors import DuplicateName, ParseError, UnboundName
from .expr import (
    Derivative,
    Environment,
    Name,
    PARAMETRIC,
    Pointing,
    Primitive,
    PrimitiveKind,
    Product,
    RESERVED,
    RestrictCard,
    Sum,
    Substitute,
    SpeciesExpr,
    TOKEN_TO_KIND,
)

__all__ = ["MAX_NESTING", "parse_expr", "parse_defs", "collect_names"]

MAX_NESTING = 100

_TOKEN_RE = re.compile(
    r"\s+|(?P<ident>[A-Za-z][A-Za-z0-9]*)|(?P<int>\d+)|(?P<sym>[-+*^'()\[\]=])"
)

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*\Z")


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
        if m.lastgroup == "ident":
            out.append(("ident", m.group(), pos))
        elif m.lastgroup == "int":
            out.append(("int", m.group(), pos))
        elif m.lastgroup == "sym":
            out.append(("sym", m.group(), pos))
        pos = m.end()
    out.append(("end", "", len(text)))
    return out


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.at = 0
        self.open = 0

    def peek(self):
        return self.tokens[self.at]

    def next(self):
        tok = self.tokens[self.at]
        self.at += 1
        return tok

    def accept_sym(self, symbol):
        kind, value, _ = self.peek()
        if kind == "sym" and value == symbol:
            self.at += 1
            return True
        return False

    def expect_sym(self, symbol, why):
        if not self.accept_sym(symbol):
            kind, value, pos = self.peek()
            raise ParseError(
                f"found {value!r} while reading {why}" if value
                else f"input ended while reading {why}",
                position=pos,
                expected=(repr(symbol),),
            )

    def expect_int(self, why):
        kind, value, pos = self.peek()
        if kind != "int":
            raise ParseError(
                f"expected an integer for {why}",
                position=pos,
                expected=("integer",),
            )
        self.at += 1
        return int(value)

    def nested(self, depth):
        """depth, checked against MAX_NESTING; deeper input is refused at
        the token just read."""
        if depth > MAX_NESTING:
            raise ParseError(
                f"the expression nests deeper than {MAX_NESTING} levels",
                position=self.tokens[self.at - 1][2],
            )
        return depth

    def bracketed(self, why):
        """The (node, depth) of an expression inside brackets that are
        open, up to the closing one."""
        self.open = self.nested(self.open + 1)
        found = self.expr()
        self.expect_sym(")", why)
        self.open -= 1
        return found

    # -- grammar ----------------------------------------------------------
    #
    # Each rule returns (node, depth): the node and the number of nodes on
    # the longest path down from it.

    def expr(self):
        node, depth = self.term()
        while self.accept_sym("+"):
            right, right_depth = self.term()
            node = Sum(node, right)
            depth = self.nested(1 + max(depth, right_depth))
        return node, depth

    def term(self):
        node, depth = self.factor()
        while self.accept_sym("*"):
            right, right_depth = self.factor()
            node = Product(node, right)
            depth = self.nested(1 + max(depth, right_depth))
        return node, depth

    def factor(self):
        node, depth = self.postfix()
        while self.accept_sym("^"):
            k = self.expect_int("the exponent")
            if k == 0:
                node, depth = Primitive(PrimitiveKind.ONE), 1
                continue
            # Checked before the k-1 products are built.
            depth = self.nested(depth + k - 1)
            base = node
            for _ in range(k - 1):
                node = Product(node, base)
        return node, depth

    def postfix(self):
        node, depth = self.atom()
        while self.accept_sym("'"):
            depth = self.nested(depth + 1)
            node = Derivative(node)
        return node, depth

    def atom(self):
        kind, value, pos = self.next()
        if kind == "sym" and value == "(":
            return self.bracketed("a parenthesized expression")
        if kind == "int":
            if value == "0":
                return Primitive(PrimitiveKind.ZERO), 1
            if value == "1":
                return Primitive(PrimitiveKind.ONE), 1
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
            node, depth = self.bracketed("the argument of pt")
            return Pointing(node), self.nested(depth + 1)
        if self.accept_sym("("):
            inner, depth = self.bracketed("a substitution argument")
            return Substitute(self._callee(ident, pos), inner), self.nested(
                depth + 1
            )
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
            return Primitive(kind, k), 1
        kind = TOKEN_TO_KIND.get(ident)
        if kind is not None:
            if kind in PARAMETRIC:
                raise ParseError(
                    f"'{ident}' needs its parameter, e.g. {ident}[2]",
                    position=pos,
                    expected=("'['",),
                )
            return Primitive(kind), 1
        return Name(ident), 1

    @staticmethod
    def _callee(ident, pos):
        kind = TOKEN_TO_KIND.get(ident)
        if kind is None:
            return Name(ident)
        if kind in PARAMETRIC:
            raise ParseError(
                f"'{ident}' needs its parameter before an argument",
                position=pos,
                expected=("'['",),
            )
        return Primitive(kind)

    def finish(self, node):
        kind, value, pos = self.peek()
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
    node, _ = p.expr()
    return p.finish(node)


def collect_names(expr):
    """Every Name identifier referenced anywhere in the tree."""
    found = set()
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, Name):
            found.add(e.ident)
        elif isinstance(e, (Sum, Product, Substitute)):
            stack.append(e.left if isinstance(e, (Sum, Product)) else e.outer)
            stack.append(e.right if isinstance(e, (Sum, Product)) else e.inner)
        elif isinstance(e, (Derivative, Pointing, RestrictCard)):
            stack.append(e.inner)
    return found


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
        for ref in sorted(collect_names(rhs)):
            if ref not in env:
                raise UnboundName(
                    f"'{ref}' (referenced by '{name}') is never defined"
                )
    return env
