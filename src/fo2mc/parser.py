"""Recursive-descent parser for the problem file format.

A problem is: predicate declarations, one sentence, then optional
``constraint`` lines and weight declarations::

    predicate A/1
    predicate R/2
    forall x forall y (A(x) & R(x,y) & x != y -> A(y))
    constraint |A| = 2
    weight R 1 2

A quantifier binds the next unary formula (atom, negation, quantified
formula or parenthesized group), so ``forall x A(x) & B(x)`` conjoins
``forall x A(x)`` with an open ``B(x)``; parenthesize for wider scope.
``#`` starts a comment.  Variables are the fixed lexemes ``x`` and ``y``.

``tokenize`` makes one regular-expression pass; a token is the tuple
(kind, text, offset).  Line and column are computed from the offset only
when a ``ParseError`` is raised.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError, SemanticError
from .logic import (And, Atom, CardAnd, CardCompare, CardConstraint, CardNot,
                    CardOr, Counting, Eq, Exists, Forall, Formula, Iff,
                    Implies, LinearExpr, Not, Or, Signature, WeightExpr,
                    WAdd, WCard, WMul, WNeg, WNum, WPow, WSub, CARD_TRUE,
                    SYNTHETIC_PREFIX, VARIABLES, card_conjoin, decimal_str,
                    free_vars)

KEYWORDS = {"predicate", "forall", "exists", "constraint", "weight",
            "profileweight", "and", "or", "not"}

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<num>\d+\.\d+)
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><->|->|!=|<=|>=|[()\{\},/=<>+\-*^|&!.])
  | (?P<bad>.)
""", re.VERBOSE)

#: a token: (kind, text, offset); kind is num | int | name | op | eof
Token = tuple[str, str, int]

#: binary connective -> (precedence, node, nests to the right); a higher
#: precedence binds tighter, and the others chain to the left
_CONNECTIVES = {"<->": (1, Iff, False), "->": (2, Implies, True),
                "|": (3, Or, False), "&": (4, And, False)}


def _position(text: str, offset: int) -> tuple[int, int]:
    """The 1-based (line, column) of ``offset`` in ``text``."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def tokenize(text: str) -> list[Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}",
                             *_position(text, m.start()))
        tokens.append((kind, m.group(), m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


class Problem:
    """A parsed input: signature, sentence, cardinality constraint and any
    weight declarations."""

    def __init__(self, signature: Signature, sentence: Formula,
                 constraint: CardConstraint = CARD_TRUE,
                 symmetric_weights: dict[str, tuple[Fraction, Fraction]] | None = None,
                 profile_weight: WeightExpr | None = None):
        self.signature = signature
        self.sentence = sentence
        self.constraint = constraint
        self.symmetric_weights = {} if symmetric_weights is None else symmetric_weights
        self.profile_weight = profile_weight


class _Parser:
    def __init__(self, text: str, signature: Signature, strict: bool,
                 allow_synthetic: bool = False):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        self.signature = signature
        self.strict = strict
        self.allow_synthetic = allow_synthetic

    # -- token plumbing -----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def at(self, text: str) -> bool:
        return self.tokens[self.pos][1] == text

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok[1] != text:
            self.fail(f"expected {text!r}, found {tok[1] or 'end of input'!r}", tok)
        return self.next()

    def expect_end(self) -> None:
        tok = self.peek()
        if tok[0] != "eof":
            self.fail(f"unexpected trailing input {tok[1]!r}", tok)

    def fail(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, *_position(self.text, tok[2]))

    # -- declarations -------------------------------------------------------

    def parse_decls(self) -> None:
        while self.at("predicate"):
            self.next()
            name = self.parse_pred_name(declare=False)
            self.expect("/")
            tok = self.next()
            if tok[0] != "int" or tok[1] not in ("1", "2"):
                self.fail("arity must be 1 or 2", tok)
            try:
                self.signature.declare(name, int(tok[1]),
                                       synthetic=name.startswith(SYNTHETIC_PREFIX))
            except SemanticError as err:
                self.fail(str(err), tok)

    def parse_pred_name(self, declare: bool) -> str:
        tok = self.peek()
        if tok[0] != "name" or tok[1] in KEYWORDS:
            self.fail("expected a predicate name", tok)
        name = tok[1]
        if name in VARIABLES:
            self.fail(f"{name!r} is a reserved variable name", tok)
        if name.startswith(SYNTHETIC_PREFIX) and not self.allow_synthetic:
            self.fail(f"names starting with {SYNTHETIC_PREFIX!r} are reserved", tok)
        self.next()
        return name

    def resolve_atom(self, name: str, args: tuple[str, ...], tok: Token) -> Atom:
        if name not in self.signature:
            if self.strict:
                self.fail(f"undeclared predicate {name}", tok)
            self.signature.declare(name, len(args),
                                   synthetic=name.startswith(SYNTHETIC_PREFIX))
        if self.signature.arity(name) != len(args):
            self.fail(f"predicate {name} has arity {self.signature.arity(name)}, "
                      f"used with {len(args)} argument(s)", tok)
        return Atom(name, args)

    # -- formulas -----------------------------------------------------------

    def parse_formula(self, floor: int = 1) -> Formula:
        """Precedence climbing: a unary formula, extended by each binary
        connective of precedence ``floor`` or higher, whose right operand
        binds one level tighter unless the connective nests to the right."""
        out = self.parse_unary()
        while (op := _CONNECTIVES.get(self.peek()[1])) and op[0] >= floor:
            self.next()
            level, node, nests_right = op
            out = node(out, self.parse_formula(level + (not nests_right)))
        return out

    def parse_unary(self) -> Formula:
        if self.at("!"):
            self.next()
            return Not(self.parse_unary())
        if self.at("forall") or self.at("exists"):
            return self.parse_quantifier()
        return self.parse_primary()

    def parse_quantifier(self) -> Formula:
        head = self.next()
        cmp = None
        count = 0
        if head[1] == "exists" and self.at("{"):
            self.next()
            op_tok = self.next()
            if op_tok[1] not in ("=", "<=", ">="):
                self.fail("expected =, <= or >= in counting quantifier", op_tok)
            cmp = op_tok[1]
            num = self.next()
            if num[0] != "int":
                self.fail("expected a non-negative integer multiplicity", num)
            count = int(num[1])
            self.expect("}")
        var_tok = self.next()
        if var_tok[1] not in VARIABLES:
            self.fail("quantified variable must be x or y", var_tok)
        var = var_tok[1]
        if self.at("."):
            self.next()
        # tight scope: the quantifier binds the next unary formula, so
        # chains like "forall x exists y R(x,y) & forall x ..." conjoin
        body = self.parse_unary()
        if head[1] == "forall":
            return Forall(var, body)
        if cmp is None:
            return Exists(var, body)
        return Counting(cmp, count, var, body)

    def parse_primary(self) -> Formula:
        tok = self.peek()
        if self.at("("):
            self.next()
            inner = self.parse_formula()
            self.expect(")")
            return inner
        if tok[0] != "name":
            self.fail(f"expected a formula, found {tok[1] or 'end of input'!r}", tok)
        if tok[1] in VARIABLES:
            left = self.next()[1]
            op = self.next()
            if op[1] not in ("=", "!="):
                self.fail("expected = or != after a variable", op)
            right = self.next()
            if right[1] not in VARIABLES:
                self.fail("equality arguments must be variables", right)
            eq = Eq(left, right[1])
            return eq if op[1] == "=" else Not(eq)
        if tok[1] in KEYWORDS:
            self.fail(f"expected a formula, found keyword {tok[1]!r}", tok)
        name = self.parse_pred_name(declare=True)
        self.expect("(")
        args = [self.parse_term()]
        if self.at(","):
            self.next()
            args.append(self.parse_term())
        self.expect(")")
        return self.resolve_atom(name, tuple(args), tok)

    def parse_term(self) -> str:
        tok = self.next()
        if tok[1] not in VARIABLES:
            self.fail("terms must be the variables x or y", tok)
        return tok[1]

    # -- cardinality constraints ---------------------------------------------

    def parse_cardexpr(self) -> CardConstraint:
        out = self.parse_card_and()
        while self.at("or"):
            self.next()
            rhs = self.parse_card_and()
            out = CardOr((out, rhs))
        return out

    def parse_card_and(self) -> CardConstraint:
        out = self.parse_card_factor()
        while self.at("and"):
            self.next()
            out = card_conjoin((out, self.parse_card_factor()))
        return out

    def parse_card_factor(self) -> CardConstraint:
        if self.at("not"):
            self.next()
            return CardNot(self.parse_card_factor())
        if self.at("("):
            self.next()
            inner = self.parse_cardexpr()
            self.expect(")")
            return inner
        left = self.parse_linexpr()
        op_tok = self.next()
        if op_tok[1] not in ("=", "<=", ">=", "<", ">"):
            self.fail("expected a comparison operator", op_tok)
        right = self.parse_linexpr()
        return CardCompare(op_tok[1], left, right)

    def parse_linexpr(self) -> LinearExpr:
        coeffs: dict[str, int] = {}
        const = 0
        sign = 1
        if self.at("-"):
            self.next()
            sign = -1
        while True:
            const, coeffs = self.parse_linterm(sign, const, coeffs)
            if self.at("+"):
                self.next()
                sign = 1
            elif self.at("-"):
                self.next()
                sign = -1
            else:
                break
        items = tuple(sorted((p, c) for p, c in coeffs.items() if c))
        return LinearExpr(items, const)

    def parse_linterm(self, sign, const, coeffs):
        tok = self.peek()
        if tok[0] == "int":
            self.next()
            value = int(tok[1])
            if self.at("*"):
                self.next()
                pred = self.parse_card_atom()
                coeffs[pred] = coeffs.get(pred, 0) + sign * value
            else:
                const += sign * value
        elif self.at("|"):
            pred = self.parse_card_atom()
            coeffs[pred] = coeffs.get(pred, 0) + sign
        else:
            self.fail("expected an integer or |predicate|", tok)
        return const, coeffs

    def parse_card_atom(self) -> str:
        self.expect("|")
        tok = self.peek()
        name = self.parse_pred_name(declare=False)
        if name not in self.signature:
            self.fail(f"cardinality constraint mentions undeclared predicate {name}", tok)
        self.expect("|")
        return name

    # -- weights --------------------------------------------------------------

    def parse_number(self) -> Fraction:
        sign = 1
        if self.at("-"):
            self.next()
            sign = -1
        tok = self.next()
        if tok[0] not in ("int", "num"):
            self.fail("expected a number", tok)
        return sign * Fraction(tok[1])

    def parse_wexpr(self) -> WeightExpr:
        out = self.parse_wterm()
        while self.at("+") or self.at("-"):
            op = self.next()[1]
            rhs = self.parse_wterm()
            out = WAdd(out, rhs) if op == "+" else WSub(out, rhs)
        return out

    def parse_wterm(self) -> WeightExpr:
        out = self.parse_wfactor()
        while self.at("*"):
            self.next()
            out = WMul(out, self.parse_wfactor())
        return out

    def parse_wfactor(self) -> WeightExpr:
        base = self.parse_watom()
        if self.at("^"):
            self.next()
            return WPow(base, self.parse_watom())
        return base

    def parse_watom(self) -> WeightExpr:
        tok = self.peek()
        if self.at("-"):
            self.next()
            return WNeg(self.parse_watom())
        if self.at("("):
            self.next()
            inner = self.parse_wexpr()
            self.expect(")")
            return inner
        if self.at("|"):
            return WCard(self.parse_card_atom())
        if tok[0] in ("int", "num"):
            self.next()
            return WNum(Fraction(tok[1]))
        self.fail("expected a number, |predicate| or parenthesized expression", tok)


def parse_problem(text: str, allow_synthetic: bool = False) -> Problem:
    """Parse a complete problem.  Declarations are required exactly when
    the problem opens with a ``predicate`` line; otherwise predicates are
    declared implicitly from their first use.  ``allow_synthetic`` admits
    reserved ``__`` names so that dumps of normalized problems can be
    parsed back."""
    parser = _Parser(text, Signature(), False, allow_synthetic)
    parser.strict = parser.at("predicate")
    parser.parse_decls()
    sentence = parser.parse_formula()
    fv = free_vars(sentence)
    if fv:
        raise SemanticError(f"sentence has free variable(s): {', '.join(sorted(fv))}")
    constraints = []
    while parser.at("constraint"):
        parser.next()
        constraints.append(parser.parse_cardexpr())
    problem = Problem(parser.signature, sentence,
                      card_conjoin(constraints) if constraints else CARD_TRUE)
    while parser.at("weight") or parser.at("profileweight"):
        head = parser.next()
        if head[1] == "weight":
            tok = parser.peek()
            name = parser.parse_pred_name(declare=False)
            if name not in parser.signature:
                parser.fail(f"weight for undeclared predicate {name}", tok)
            if name in problem.symmetric_weights:
                parser.fail(f"duplicate weight for predicate {name}", tok)
            w1 = parser.parse_number()
            w0 = parser.parse_number()
            problem.symmetric_weights[name] = (w1, w0)
        else:
            if problem.profile_weight is not None:
                parser.fail("duplicate profileweight declaration", head)
            problem.profile_weight = parser.parse_wexpr()
    parser.expect_end()
    return problem


def parse_formula(text: str) -> Formula:
    """Parse a bare formula, declaring predicates from their first use."""
    parser = _Parser(text, Signature(), strict=False)
    out = parser.parse_formula()
    parser.expect_end()
    return out


def parse_cardinality(text: str, signature: Signature) -> CardConstraint:
    """Parse a bare cardinality expression against an existing signature
    (used for --query style command line arguments)."""
    parser = _Parser(text, signature, strict=True, allow_synthetic=False)
    out = parser.parse_cardexpr()
    parser.expect_end()
    return out


def parse_weight_expr(text: str, signature: Signature) -> WeightExpr:
    """Parse a bare profile-weight expression against an existing
    signature (used for --weight command line arguments)."""
    parser = _Parser(text, signature, strict=True, allow_synthetic=False)
    out = parser.parse_wexpr()
    parser.expect_end()
    return out


def format_problem(problem: Problem) -> str:
    """Render a problem back into the input format (the inverse of
    ``parse_problem`` up to whitespace)."""
    lines = []
    for name in problem.signature.predicates():
        lines.append(f"predicate {name}/{problem.signature.arity(name)}")
    lines.append(str(problem.sentence))
    if problem.constraint != CARD_TRUE:
        if isinstance(problem.constraint, CardAnd):
            for part in problem.constraint.parts:
                lines.append(f"constraint {part}")
        else:
            lines.append(f"constraint {problem.constraint}")
    for name, (w1, w0) in sorted(problem.symmetric_weights.items()):
        lines.append(f"weight {name} {decimal_str(w1)} {decimal_str(w0)}")
    if problem.profile_weight is not None:
        lines.append(f"profileweight {problem.profile_weight}")
    return "\n".join(lines) + "\n"
