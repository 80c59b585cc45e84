"""Parser and canonical renderer for the textual Event-B subset (.ebm).

The grammar is hand-written recursive descent over ASCII tokens, one per
mathematical symbol, cut by the single pattern ``_TOKEN``:

    :    membership          <:   subset            =    equality
    /=   disequality         <    less              <=   less-or-equal
    \\/   union               /\\   intersection      \\    difference
    <|   domain restriction  <<|  domain subtraction
    **   cartesian product   |->  maplet            r[s] image
    r(e) application         :=   assignment        :|   such-that
    &    and                 or   or                not  negation
    x'   primed identifier   <->, -->, -->>, <<->>  relation arrows

Precedence, high to low: application/image, `*`, `+`/`-`, set operators,
`|->`, comparisons, `not`, `&`, `or`.  The binary expression operators and
their levels are the one table ``_BINARY``, which both the parser and the
renderer read.  `#` starts a line comment.  The full grammar is published
in docs/grammar.ebnf.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional

from . import ebast as ast
from .ebast import Ident, Machine, Predicate, Span
from .ebcheck import resolve_types, type_name

KEYWORDS = frozenset({
    "machine", "sets", "variables", "invariant", "invariants", "events",
    "initialisation", "begin", "when", "any", "where", "then", "end",
    "true", "not", "or", "INT", "pow", "rel", "dom", "ran",
})

#: Event-B constructs the subset deliberately rejects.
OUT_OF_SUBSET = frozenset({
    "refines", "extends", "sees", "witness", "witnesses", "variant",
    "variants", "theorem", "theorems", "constant", "constants", "axiom",
    "axioms", "context", "convergent", "anticipated",
})

_CMP_SYMBOL = {"eq": "=", "neq": "/=", "in": ":", "subset": "<:",
               "lt": "<", "le": "<="}
_CMP_OP = {sym: op for op, sym in _CMP_SYMBOL.items()}

#: Binary expression operators: symbol -> (BinOp name, precedence level).
#: Higher levels bind tighter; every level associates to the left.
_BINARY = {"|->": ("maplet", 1),
           "\\/": ("union", 2), "/\\": ("inter", 2), "\\": ("diff", 2),
           "<|": ("domres", 2), "<<|": ("domsub", 2), "**": ("cross", 2),
           "+": ("add", 3), "-": ("sub", 3),
           "*": ("mul", 4)}

_SYMBOLS = sorted({*_BINARY, *_CMP_SYMBOL.values(), *ast.REL_ARROWS,
                   ":=", ":|", "&", "(", ")", "{", "}", "[", "]", ","},
                  key=lambda sym: (-len(sym), sym))

_TOKEN = re.compile("|".join([
    r"(?P<skip>[ \t\r\n]+|#[^\n]*)",
    r"(?P<int>[0-9]+)",
    r"(?P<word>[A-Za-z_][A-Za-z0-9_]*'?)",
    "(?P<sym>" + "|".join(map(re.escape, _SYMBOLS)) + ")",
    r"(?P<bad>.)",
]), re.DOTALL)


class ParseError(Exception):
    """Raised at the first point the input cannot be parsed."""

    def __init__(self, span: Span, expected: str, found: str):
        self.span = span
        self.expected = expected
        self.found = found
        super().__init__(f"{span.line}:{span.column}: expected {expected}, found {found}")


class OutOfSubsetError(ParseError):
    """A known Event-B construct that lies outside the supported subset."""

    def __init__(self, span: Span, keyword: str):
        self.keyword = keyword
        Exception.__init__(
            self,
            f"{span.line}:{span.column}: '{keyword}' is outside the supported "
            f"machine subset (contexts, refinement, witnesses and variants are "
            f"not translated)")
        self.span = span
        self.expected = "a supported construct"
        self.found = keyword


class _Token(NamedTuple):
    kind: str  # ident | int | sym | kw | reserved | eof
    text: str
    begin: int
    end: int
    line: int
    column: int
    primed: bool = False

    @property
    def span(self) -> Span:
        return Span(self.begin, self.end, self.line, self.column)


def _lex(text: str) -> list[_Token]:
    toks: list[_Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind, begin, end = m.lastgroup, m.start(), m.end()
        if kind == "skip":
            newlines = text.count("\n", begin, end)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", begin, end) + 1
            continue
        column = begin - line_start + 1
        word, primed = m.group(), False
        if kind == "word":
            primed = word.endswith("'")
            word = word.rstrip("'")
            kind = ("kw" if word in KEYWORDS else
                    "reserved" if word in OUT_OF_SUBSET else "ident")
            if primed and kind != "ident":
                # a keyword takes no prime, and no token starts with one
                begin, column, kind = end - 1, column + len(word), "bad"
        if kind == "bad":
            raise ParseError(Span(begin, begin + 1, line, column),
                             "a token", repr(text[begin]))
        toks.append(_Token(kind, word, begin, end, line, column, primed=primed))
    n = len(text)
    toks.append(_Token("eof", "end of input", n, n, line, n - line_start + 1))
    return toks


_MAX_NESTING = 60


class _Parser:
    def __init__(self, text: str):
        self.toks = _lex(text)
        self.pos = 0
        self.depth = 0

    # -- token plumbing --------------------------------------------------

    def cur(self) -> _Token:
        return self.toks[self.pos]

    def at_sym(self, *texts: str) -> bool:
        t = self.cur()
        return t.kind == "sym" and t.text in texts

    def at_kw(self, *texts: str) -> bool:
        t = self.cur()
        return t.kind == "kw" and t.text in texts

    def at_ident(self) -> bool:
        return self.cur().kind == "ident"

    def advance(self) -> _Token:
        t = self.cur()
        self.pos += 1
        return t

    def fail(self, expected: str):
        t = self.cur()
        if t.kind == "reserved":
            raise OutOfSubsetError(t.span, t.text)
        shown = t.text if t.kind != "eof" else "end of input"
        raise ParseError(t.span, expected, f"'{shown}'" if t.kind != "eof" else shown)

    def take_sym(self, text: str) -> _Token:
        if not self.at_sym(text):
            self.fail(f"'{text}'")
        return self.advance()

    def take_kw(self, text: str) -> _Token:
        if not self.at_kw(text):
            self.fail(f"keyword '{text}'")
        return self.advance()

    def take_ident(self, what="an identifier") -> _Token:
        if not self.at_ident():
            self.fail(what)
        return self.advance()

    def _merge(self, first: _Token, last: _Token) -> Span:
        return Span(first.begin, last.end, first.line, first.column)

    def last(self) -> _Token:
        return self.toks[self.pos - 1]

    # -- machine structure -----------------------------------------------

    def parse_machine(self) -> Machine:
        first = self.take_kw("machine")
        name = self.take_ident("a machine name")

        carriers: list[str] = []
        if self.at_kw("sets"):
            self.advance()
            while self.at_ident():
                carriers.append(self.take_ident().text)
            if not carriers:
                self.fail("a carrier set name")

        self.take_kw("variables")
        variables = []
        while self.at_ident():
            variables.append(self._var_decl())
        if not variables:
            self.fail("a variable declaration")

        invariants: list[tuple[str, Predicate]] = []
        if self.at_kw("invariant", "invariants"):
            self.advance()
            while self.at_ident():
                invariants.append(self._labeled_predicate())

        self.take_kw("events")
        self.take_kw("initialisation")
        self.take_kw("begin")
        init = self._actions()
        self.take_kw("end")

        events = []
        while self.at_ident():
            events.append(self._event())

        last = self.take_kw("end")
        if self.cur().kind != "eof":
            self.fail("end of input")

        machine = Machine(
            name=name.text,
            carrier_sets=tuple(carriers),
            variables=tuple(variables),
            invariants=tuple(invariants),
            initialisation=tuple(init),
            events=tuple(events),
            span=self._merge(first, last),
        )
        return machine

    def _var_decl(self):
        tok = self.take_ident("a variable name")
        if tok.primed:
            raise ParseError(tok.span, "an unprimed name", f"'{tok.text}'")
        ty = None
        if self.at_sym(":"):
            self.advance()
            ty = self._type()
        return (Ident(tok.text, span=tok.span), ty)

    def _type(self) -> ast.EbType:
        if self.at_kw("INT"):
            self.advance()
            return ast.IntType()
        if self.at_kw("pow"):
            self.advance()
            self.take_sym("(")
            elem = self._type()
            self.take_sym(")")
            return ast.SetType(elem)
        if self.at_kw("rel"):
            self.advance()
            self.take_sym("(")
            dom = self._type()
            self.take_sym(",")
            ran = self._type()
            self.take_sym(")")
            return ast.RelType(dom, ran)
        tok = self.take_ident("a type (INT, a carrier set, pow(...) or rel(...))")
        return ast.CarrierType(tok.text)

    def _labeled_predicate(self) -> tuple[str, Predicate]:
        label = self.take_ident("a label")
        self.take_sym(":")
        return (label.text, self._predicate())

    def _event(self) -> ast.Event:
        name = self.take_ident("an event name")
        params = []
        guards: list[tuple[str, Predicate]] = []
        if self.at_kw("any"):
            self.advance()
            while self.at_ident():
                params.append(self._var_decl())
                if self.at_sym(","):
                    self.advance()
            if not params:
                self.fail("a parameter name")
            if self.at_kw("where"):
                self.advance()
                guards = self._guards()
            self.take_kw("then")
        elif self.at_kw("when"):
            self.advance()
            guards = self._guards()
            self.take_kw("then")
        elif self.at_kw("begin"):
            self.advance()
        else:
            self.fail("'any', 'when' or 'begin'")
        actions = self._actions()
        last = self.take_kw("end")
        return ast.Event(
            name=name.text,
            params=tuple(params),
            guards=tuple(guards),
            actions=tuple(actions),
            span=self._merge(name, last),
        )

    def _guards(self) -> list[tuple[str, Predicate]]:
        guards = []
        while self.at_ident():
            guards.append(self._labeled_predicate())
        if not guards:
            self.fail("a labeled guard")
        return guards

    def _actions(self) -> list[ast.Action]:
        actions: list[ast.Action] = []
        while self.at_ident():
            label = self.take_ident("an action label")
            self.take_sym(":")
            target = self.take_ident("an assignment target")
            if target.primed:
                raise ParseError(target.span, "an unprimed target", f"'{target.text}'")
            tid = Ident(target.text, span=target.span)
            if self.at_sym(":="):
                self.advance()
                rhs = self._expr()
                actions.append(ast.BecomesEqual(
                    label.text, tid, rhs, span=self._merge(label, self.last())))
            elif self.at_sym(":|"):
                self.advance()
                pred = self._predicate()
                actions.append(ast.BecomesSuchThat(
                    label.text, tid, pred, span=self._merge(label, self.last())))
            else:
                self.fail("':=' or ':|'")
        if not actions:
            self.fail("a labeled action")
        return actions

    # -- predicates --------------------------------------------------------

    def _nested(self, parse):
        # keeps pathological nesting a ParseError instead of a stack overflow
        if self.depth == _MAX_NESTING:
            raise ParseError(self.cur().span, "shallower nesting",
                             f"more than {_MAX_NESTING} nested levels")
        self.depth += 1
        try:
            return parse()
        finally:
            self.depth -= 1

    def _predicate(self) -> Predicate:
        return self._nested(self._or_pred)

    def _or_pred(self) -> Predicate:
        left = self._and_pred()
        while self.at_kw("or"):
            self.advance()
            right = self._and_pred()
            left = ast.Or(left, right, span=self._span_of(left, right))
        return left

    def _and_pred(self) -> Predicate:
        left = self._not_pred()
        while self.at_sym("&"):
            self.advance()
            right = self._not_pred()
            left = ast.And(left, right, span=self._span_of(left, right))
        return left

    def _not_pred(self) -> Predicate:
        firsts = []
        while self.at_kw("not"):
            firsts.append(self.advance())
        p = self._pred_atom()
        for first in reversed(firsts):
            p = ast.Not(p, span=self._merge(first, self.last()))
        return p

    def _pred_atom(self) -> Predicate:
        if self.at_kw("true"):
            tok = self.advance()
            return ast.BTrue(span=tok.span)
        if self.at_sym("("):
            # either a parenthesised predicate or a parenthesised expression
            # starting a comparison; try the predicate reading first
            save = self.pos
            try:
                self.advance()
                p = self._predicate()
                self.take_sym(")")
                return p
            except ParseError:
                self.pos = save
        return self._comparison()

    def _comparison(self) -> Predicate:
        left = self._expr()
        if not self.at_sym(*_CMP_OP):
            self.fail("a comparison operator")
        op = _CMP_OP[self.advance().text]
        right = self._rel_rhs() if op == "in" else self._expr()
        return ast.Cmp(op, left, right, span=self._span_of(left, right))

    def _rel_rhs(self) -> ast.Expr:
        left = self._expr()
        for arrow in ast.REL_ARROWS:
            if self.at_sym(arrow):
                self.advance()
                right = self._expr()
                return ast.RelSpace(arrow, left, right, span=self._span_of(left, right))
        return left

    def _span_of(self, left, right) -> Optional[Span]:
        ls, rs = getattr(left, "span", None), getattr(right, "span", None)
        if ls is None or rs is None:
            return ls or rs
        return Span(ls.begin, rs.end, ls.line, ls.column)

    # -- expressions -------------------------------------------------------

    def _expr(self) -> ast.Expr:
        return self._nested(self._binary)

    def _binary(self, min_level: int = 1) -> ast.Expr:
        """Precedence climbing over ``_BINARY``: operators of ``min_level``
        and above, each level left-associative."""
        left = self._postfix()
        while True:
            t = self.cur()
            op, level = _BINARY.get(t.text, (None, 0))
            if t.kind != "sym" or level < min_level:
                return left
            self.advance()
            right = self._binary(level + 1)
            left = ast.BinOp(op, left, right, span=self._span_of(left, right))

    def _postfix(self) -> ast.Expr:
        e = self._primary()
        while self.at_sym("(", "["):
            op, close = ("apply", ")") if self.advance().text == "(" else ("image", "]")
            arg = self._expr()
            last = self.take_sym(close)
            e = ast.BinOp(op, e, arg,
                          span=Span(e.span.begin, last.end, e.span.line, e.span.column)
                          if e.span else None)
        return e

    def _primary(self) -> ast.Expr:
        t = self.cur()
        if t.kind == "int":
            self.advance()
            return ast.IntLit(int(t.text), span=t.span)
        if self.at_kw("INT"):
            self.advance()
            return ast.IntSet(span=t.span)
        if self.at_kw("dom", "ran"):
            op = self.advance().text
            self.take_sym("(")
            inner = self._expr()
            last = self.take_sym(")")
            return ast.UnOp(op, inner, span=self._merge(t, last))
        if t.kind == "ident":
            self.advance()
            ident = Ident(t.text, primed=t.primed, span=t.span)
            return ast.Ref(ident, span=t.span)
        if self.at_sym("{"):
            self.advance()
            if self.at_sym("}"):
                last = self.advance()
                return ast.EmptySet(span=self._merge(t, last))
            items = [self._expr()]
            while self.at_sym(","):
                self.advance()
                items.append(self._expr())
            last = self.take_sym("}")
            return ast.SetEnum(tuple(items), span=self._merge(t, last))
        if self.at_sym("("):
            self.advance()
            inner = self._expr()
            self.take_sym(")")
            return inner
        self.fail("an expression")


def parse_machine(text: str) -> Machine:
    """Parse machine text; missing variable/parameter types are inferred.

    Raises ParseError (or OutOfSubsetError for known-but-unsupported
    constructs).  Inference failures are not parse errors; they surface
    as well-formedness diagnostics.
    """
    machine = _Parser(text).parse_machine()
    typed, _diags = resolve_types(machine)
    return typed


def parse_predicate(text: str) -> Predicate:
    """Parse a single predicate (used by tests and tooling)."""
    p = _Parser(text)
    pred = p._predicate()
    if p.cur().kind != "eof":
        p.fail("end of input")
    return pred


# --- canonical rendering ------------------------------------------------

_OP_SYMBOL = {op: sym for sym, (op, _level) in _BINARY.items()}
_OP_LEVEL = {op: level for op, level in _BINARY.values()} | {"apply": 5, "image": 5}


def _expr_level(e: ast.Expr) -> int:
    if isinstance(e, ast.BinOp):
        return _OP_LEVEL[e.op]
    return 6


def render_expr(e: ast.Expr) -> str:
    if isinstance(e, ast.IntLit):
        return str(e.value)
    if isinstance(e, ast.Ref):
        return e.ident.key
    if isinstance(e, ast.EmptySet):
        return "{}"
    if isinstance(e, ast.IntSet):
        return "INT"
    if isinstance(e, ast.SetEnum):
        return "{" + ", ".join(render_expr(i) for i in e.items) + "}"
    if isinstance(e, ast.UnOp):
        return f"{e.op}({render_expr(e.operand)})"
    if isinstance(e, ast.RelSpace):
        return (f"{_child(e.left, 2, False)} {e.arrow} {_child(e.right, 2, False)}")
    if isinstance(e, ast.BinOp):
        if e.op == "apply":
            return f"{_child(e.left, 5, False)}({render_expr(e.right)})"
        if e.op == "image":
            return f"{_child(e.left, 5, False)}[{render_expr(e.right)}]"
        lvl = _OP_LEVEL[e.op]
        return (f"{_child(e.left, lvl, False)} {_OP_SYMBOL[e.op]} "
                f"{_child(e.right, lvl, True)}")
    raise ValueError(f"cannot render {type(e).__name__}")


def _child(e: ast.Expr, parent_level: int, is_right: bool) -> str:
    text = render_expr(e)
    lvl = _expr_level(e)
    if lvl < parent_level or (is_right and lvl == parent_level):
        return f"({text})"
    return text


def render_predicate(p: Predicate) -> str:
    return _render_pred(p, 1)


def _render_pred(p: Predicate, parent_level: int) -> str:
    # levels: or=1, and=2, not=3, atoms=4
    if isinstance(p, ast.BTrue):
        return "true"
    if isinstance(p, ast.Cmp):
        return (f"{render_expr(p.left)} {_CMP_SYMBOL[p.op]} "
                f"{render_expr(p.right)}")
    if isinstance(p, ast.Not):
        return f"not {_render_pred(p.operand, 3)}"
    if isinstance(p, (ast.Or, ast.And)):
        lvl = 1 if isinstance(p, ast.Or) else 2
        word = "or" if isinstance(p, ast.Or) else "&"
        left = _render_pred(p.left, lvl)
        right = _render_pred(p.right, lvl + 1)  # right-same-level needs parens
        text = f"{left} {word} {right}"
        if lvl < parent_level:
            return f"({text})"
        return text
    raise ValueError(f"cannot render {type(p).__name__}")


def _render_action(a: ast.Action) -> str:
    if isinstance(a, ast.BecomesEqual):
        return f"{a.label}: {a.target.name} := {render_expr(a.rhs)}"
    return f"{a.label}: {a.target.name} :| {render_predicate(a.predicate)}"


def render_machine(m: Machine) -> str:
    """Canonical text of a machine; re-parsing yields an equal AST.

    Variable and parameter types are always written explicitly, so the
    canonical form is independent of how the original text was typed.
    """
    out: list[str] = [f"machine {m.name}"]
    if m.carrier_sets:
        out.append("  sets " + " ".join(m.carrier_sets))
    out.append("  variables")
    for ident, ty in m.variables:
        if ty is None:
            raise ValueError(f"variable '{ident.name}' has no resolved type")
        out.append(f"    {ident.name} : {type_name(ty)}")
    if m.invariants:
        out.append("  invariants")
        for lbl, p in m.invariants:
            out.append(f"    {lbl}: {render_predicate(p)}")
    out.append("  events")
    out.append("    initialisation")
    out.append("      begin")
    for a in m.initialisation:
        out.append(f"        {_render_action(a)}")
    out.append("      end")
    for ev in m.events:
        out.append(f"    {ev.name}")
        if ev.params:
            decls = []
            for ident, ty in ev.params:
                if ty is None:
                    raise ValueError(f"parameter '{ident.name}' has no resolved type")
                decls.append(f"{ident.name} : {type_name(ty)}")
            out.append("      any " + ", ".join(decls))
        if ev.guards:
            out.append("      where" if ev.params else "      when")
            for lbl, p in ev.guards:
                out.append(f"        {lbl}: {render_predicate(p)}")
            out.append("      then")
        elif ev.params:
            out.append("      then")
        else:
            out.append("      begin")
        for a in ev.actions:
            out.append(f"        {_render_action(a)}")
        out.append("      end")
    out.append("end")
    return "\n".join(out) + "\n"
