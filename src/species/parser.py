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
counts as the k-1 products it expands to.  The parser does not recurse: it
reads the tokens in one loop and keeps a stack of the brackets open.  The
walks over the tree (evaluation, the decision of a recursive system,
listing) recurse once or a few times per level, so MAX_NESTING guards
them: deeper input is refused with a ParseError before a walk can
exhaust Python's stack.
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


def _expect(tokens, at, symbol, why):
    """The index past tokens[at], which must be symbol; why names what was
    being read."""
    kind, value, pos = tokens[at]
    if value != symbol:  # only a "sym" token's text is a symbol
        raise ParseError(
            f"found {value!r} while reading {why}" if value
            else f"input ended while reading {why}",
            position=pos,
            expected=(repr(symbol),),
        )
    return at + 1


def _integer(tokens, at, why):
    kind, value, pos = tokens[at]
    if kind != "int":
        raise ParseError(
            f"expected an integer for {why}",
            position=pos,
            expected=("integer",),
        )
    return int(value)


def _nested(tokens, at, depth):
    """Refuse a depth over MAX_NESTING at tokens[at - 1], the token just
    read."""
    if depth > MAX_NESTING:
        raise ParseError(
            f"the expression nests deeper than {MAX_NESTING} levels",
            position=tokens[at - 1][2],
        )


def parse_expr(text):
    """Parse one expression; raises ParseError with position on bad input.

    One loop reads the tokens left to right.  It keeps the sum and the
    product being built inside the innermost open bracket, and a stack
    with one entry per open bracket: the sum and product outside it, the
    identifier before it ("pt", a species substituted into, or None) and
    its position, and what a missing ")" reports having read."""
    tokens = _tokenize(text)
    at, stack, total, product = 0, [], None, None
    while True:
        # An operand: a bracket opens, or an atom is read.
        kind, value, pos = tokens[at]
        at += 1
        if value == "(" or kind == "ident" and (
                value == "pt" or tokens[at][1] == "("):
            if value == "(":
                value, why = None, "a parenthesized expression"
            else:
                why = ("the argument of pt" if value == "pt"
                       else "a substitution argument")
                at = _expect(tokens, at, "(", why)
            stack.append((total, product, value, pos, why))
            _nested(tokens, at, len(stack))
            total = product = None
            continue
        if kind == "ident" and tokens[at][1] == "[":
            k = _integer(tokens, at + 1, "the parameter")
            at = _expect(tokens, at + 2, "]", "a parameter")
            kind = TOKEN_TO_KIND.get(value)
            if kind not in PARAMETRIC:
                raise ParseError(
                    f"'{value}' does not take a [k] parameter",
                    position=pos,
                    expected=("Pk", "Ek"),
                )
            node = Primitive(kind, k)
        elif kind == "ident":
            node = _named(value, pos, f", e.g. {value}[2]")
        elif value in ("0", "1"):
            node = _PRIMITIVES[PrimitiveKind.ZERO if value == "0"
                               else PrimitiveKind.ONE]
        elif kind == "int":
            raise ParseError(
                f"the number {value} is not a species",
                position=pos,
                expected=("'0'", "'1'"),
            )
        else:
            raise ParseError(
                f"found {value!r} where an expression was expected" if value
                else "input ended where an expression was expected",
                position=pos,
                expected=("identifier", "'('", "'0'", "'1'"),
            )
        # The operand is read: its postfix operators, then up to the next
        # operand, or out of each bracket that closes after it.
        while True:
            while tokens[at][1] == "'":
                at += 1
                node = Derivative(node)
                _nested(tokens, at, node.height)
            while tokens[at][1] == "^":
                k = _integer(tokens, at + 1, "the exponent")
                at += 2
                if k == 0:
                    node = _PRIMITIVES[PrimitiveKind.ONE]
                    continue
                # Checked before the k-1 products are built.
                _nested(tokens, at, node.height + k - 1)
                base = node
                for _ in range(k - 1):
                    node = Product(node, base)
            if product is not None:
                node = Product(product, node)
                _nested(tokens, at, node.height)
            if tokens[at][1] == "*":
                at, product = at + 1, node
                break
            if total is not None:
                node = Sum(total, node)
                _nested(tokens, at, node.height)
            if tokens[at][1] == "+":
                at, total, product = at + 1, node, None
                break
            if not stack:
                kind, value, pos = tokens[at]
                if kind != "end":
                    raise ParseError(
                        f"trailing input {value!r}",
                        position=pos,
                        expected=("end of input",),
                    )
                return node
            total, product, ident, pos, why = stack.pop()
            at = _expect(tokens, at, ")", why)
            if ident is not None:
                node = Pointing(node) if ident == "pt" else Substitute(
                    _named(ident, pos, " before an argument"), node)
                _nested(tokens, at, node.height)


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
