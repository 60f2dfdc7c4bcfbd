"""Hand-written lexer and recursive-descent parser for ``.spam`` text.

Syntax (Bril-like)::

    # comment to end of line
    @main {
      n: int = const 10;
      one: int = const 1;
      acc: int = const 0;
      i: int = const 0;
    .loop:
      c: bool = lt i n;
      br c .body .done;
    .body:
      acc: int = add acc i;
      i: int = add i one;
      jmp .loop;
    .done:
      print acc;
      ret;
    }

Functions are ``@name(params): ret { body }`` with ``(params)`` and
``: ret`` optional; labels are ``.name:``; instructions end with ``;``.
Every diagnostic is a :class:`LangError` carrying ``file:line:col``.
"""

from __future__ import annotations

from repro.lang.ast import (
    CONTROL_OPS,
    EFFECT_OP_SIGNATURES,
    BOOL,
    INT,
    TYPES,
    VALUE_OP_SIGNATURES,
    Function,
    Instr,
    Label,
    Module,
    Position,
)


class LangError(Exception):
    """A frontend diagnostic: ``file:line:col: message``, or
    ``file: message`` for a whole-program one with no position."""

    def __init__(self, message: str, filename: str = "<string>",
                 pos: Position | None = None) -> None:
        self.message = message
        self.filename = filename
        self.pos = pos or Position()
        super().__init__(str(self))

    def __str__(self) -> str:
        if not self.pos.line:
            return f"{self.filename}: {self.message}"
        return f"{self.filename}:{self.pos.line}:{self.pos.col}: {self.message}"


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------
#: token kinds: IDENT, FUNC (@name), LABEL (.name), NUM, PUNCT, EOF
_PUNCT = "{}();:=,"


class Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: Position) -> None:
        self.kind = kind
        self.text = text
        self.pos = pos

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.text!r}, {self.pos})"


def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def tokenize(source: str, filename: str = "<string>") -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        pos = Position(line, col)
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch in _PUNCT:
            tokens.append(Token("PUNCT", ch, pos))
            i += 1
            col += 1
            continue
        if ch in "@.":
            j = i + 1
            while j < n and _is_ident(source[j]):
                j += 1
            name = source[i + 1:j]
            if not name or not _is_ident_start(name[0]):
                kind = "function" if ch == "@" else "label"
                raise LangError(f"malformed {kind} name after {ch!r}",
                                filename, pos)
            tokens.append(Token("FUNC" if ch == "@" else "LABEL", name, pos))
            col += j - i
            i = j
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and source[i + 1].isdigit()):
            j = i + 1
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(Token("NUM", source[i:j], pos))
            col += j - i
            i = j
            continue
        if _is_ident_start(ch):
            j = i + 1
            while j < n and _is_ident(source[j]):
                j += 1
            tokens.append(Token("IDENT", source[i:j], pos))
            col += j - i
            i = j
            continue
        raise LangError(f"unexpected character {ch!r}", filename, pos)
    tokens.append(Token("EOF", "", Position(line, col)))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------
class _Parser:
    def __init__(self, tokens: list[Token], filename: str) -> None:
        self.tokens = tokens
        self.filename = filename
        self.i = 0

    # -- token plumbing ------------------------------------------------
    @property
    def cur(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        token = self.cur
        if token.kind != "EOF":
            self.i += 1
        return token

    def error(self, message: str, pos: Position | None = None) -> LangError:
        return LangError(message, self.filename, pos or self.cur.pos)

    def expect_punct(self, ch: str, what: str) -> Token:
        if self.cur.kind != "PUNCT" or self.cur.text != ch:
            raise self.error(
                f"expected {ch!r} {what}, found {self.cur.text!r}"
                if self.cur.kind != "EOF"
                else f"expected {ch!r} {what}, found end of file")
        return self.advance()

    def expect_ident(self, what: str) -> Token:
        if self.cur.kind != "IDENT":
            raise self.error(f"expected {what}, found {self.cur.text!r}")
        return self.advance()

    def expect_type(self) -> str:
        token = self.expect_ident("a type")
        if token.text not in TYPES:
            raise self.error(
                f"unknown type {token.text!r} (one of: {', '.join(TYPES)})",
                token.pos)
        return token.text

    # -- grammar -------------------------------------------------------
    def parse_module(self) -> Module:
        functions: list[Function] = []
        seen: set[str] = set()
        while self.cur.kind != "EOF":
            if self.cur.kind != "FUNC":
                raise self.error(
                    f"expected a function (@name), found {self.cur.text!r}")
            fn = self.parse_function()
            if fn.name in seen:
                raise self.error(f"duplicate function @{fn.name}", fn.pos)
            seen.add(fn.name)
            functions.append(fn)
        if not functions:
            raise self.error("empty module: no functions")
        return Module(tuple(functions), self.filename)

    def parse_function(self) -> Function:
        head = self.advance()            # FUNC token
        params: list[tuple[str, str]] = []
        if self.cur.kind == "PUNCT" and self.cur.text == "(":
            self.advance()
            while not (self.cur.kind == "PUNCT" and self.cur.text == ")"):
                name = self.expect_ident("a parameter name").text
                self.expect_punct(":", "after parameter name")
                params.append((name, self.expect_type()))
                if self.cur.kind == "PUNCT" and self.cur.text == ",":
                    self.advance()
                elif not (self.cur.kind == "PUNCT" and self.cur.text == ")"):
                    raise self.error("expected ',' or ')' in parameter list")
            self.advance()
        ret = None
        if self.cur.kind == "PUNCT" and self.cur.text == ":":
            self.advance()
            ret = self.expect_type()
        self.expect_punct("{", "to open the function body")
        items: list[Label | Instr] = []
        while not (self.cur.kind == "PUNCT" and self.cur.text == "}"):
            if self.cur.kind == "EOF":
                raise self.error(f"unterminated body of @{head.text}")
            if self.cur.kind == "LABEL":
                label = self.advance()
                self.expect_punct(":", "after label")
                items.append(Label(label.text, label.pos))
            else:
                items.append(self.parse_instr())
        self.advance()                   # '}'
        return Function(head.text, tuple(params), ret, tuple(items), head.pos)

    def parse_instr(self) -> Instr:
        start = self.cur
        first = self.expect_ident("an instruction")
        dest = dest_type = None
        if self.cur.kind == "PUNCT" and self.cur.text == ":":
            self.advance()
            dest = first.text
            dest_type = self.expect_type()
            self.expect_punct("=", "after destination type")
            op_token = self.expect_ident("an operation")
        else:
            op_token = first
        op = op_token.text
        value = func = None
        args: list[str] = []
        labels: list[str] = []
        if op == "const":
            value = self.parse_literal(dest_type)
        else:
            if op == "call":
                if self.cur.kind != "FUNC":
                    raise self.error("expected @function after call")
                func = self.advance().text
            while self.cur.kind in ("IDENT", "LABEL"):
                if self.cur.kind == "LABEL":
                    labels.append(self.advance().text)
                else:
                    args.append(self.advance().text)
        self.expect_punct(";", "to end the instruction")
        known = (op in VALUE_OP_SIGNATURES or op in EFFECT_OP_SIGNATURES
                 or op in CONTROL_OPS or op in ("const", "call"))
        if not known:
            raise self.error(f"unknown operation {op!r}", op_token.pos)
        if dest is not None and (op in EFFECT_OP_SIGNATURES
                                 or op in CONTROL_OPS):
            raise self.error(f"{op!r} does not produce a value", op_token.pos)
        if dest is None and (op in VALUE_OP_SIGNATURES or op == "const"):
            raise self.error(
                f"{op!r} needs a destination (write 'x: type = {op} ...')",
                op_token.pos)
        return Instr(op, dest, dest_type, tuple(args), value, func,
                     tuple(labels), start.pos)

    def parse_literal(self, dest_type: str | None) -> int | bool:
        token = self.cur
        if token.kind == "NUM":
            self.advance()
            if dest_type != INT:
                raise self.error(
                    f"integer literal needs an int destination, got "
                    f"{dest_type!r}", token.pos)
            return int(token.text)
        if token.kind == "IDENT" and token.text in ("true", "false"):
            self.advance()
            if dest_type != BOOL:
                raise self.error(
                    f"boolean literal needs a bool destination, got "
                    f"{dest_type!r}", token.pos)
            return token.text == "true"
        raise self.error(f"expected a literal, found {token.text!r}")


def parse_module(source: str, filename: str = "<string>") -> Module:
    """Parse (syntax only) ``.spam`` text into a :class:`Module`.

    Most callers want :func:`repro.lang.load_module`, which also runs
    the semantic checker.
    """
    return _Parser(tokenize(source, filename), filename).parse_module()
