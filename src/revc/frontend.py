"""Frontend for the `.rev` language: lexer, parser, flattener, interpreters.

The language is a small F#-like surface: `<>` is XOR, `<-` assignment,
`Array.zeroCreate`/`Array.append`/`Array.concat`/`Array.length`, `rot`,
slices `a.[i..j]`, `clean`, `let mutable`, for-loops with compile-time
bounds, and nested function definitions with lexical scoping.  Integers
exist only at compile time (indices, bounds, sizes); runtime data is bits
and bit arrays.

`flatten` fully unrolls loops and inlines calls into a straight-line
FlatProgram over numbered bit slots.  Three statement forms survive:

  Compute(slot, e, fresh)   slot := e (fresh zero slot) or slot ^= e
  InPlaceBlock(token, slots) an inlined call whose result buffer aliases
                            the assignment target (in-place update)
  CleanSlot(slot)           explicit release of a zero-valued slot

Slice/rotation/append/aliasing never compute bits; they are pure
re-labelings of slot lists resolved entirely at flatten time.

The in-place convention: `x <- f args` *accumulates* onto `x` (e.g.
`h <- add h'` means `h += h'`) when `in_place_binding` accepts the call.
The flattener and `SourceInterpreter` both ask it once, before inlining,
and the rule is syntactic: `f` returns a body-level
`let r = Array.zeroCreate n`, every write to `r` has the same element as
one operand of its top-level `<>` chain and `r` nowhere else on the
right; `x` holds bits that no argument shares; the call is not nested in
an in-place body or an `if` branch.  The call is then inlined once with
`r` bound to `x`'s slots, otherwise once out of place, re-binding `x`.
Nothing is rolled back: an accepted body that breaks the contract (a
width other than `x`'s, a write into `x` that does not accumulate,
arguments not restored, locals not zeroed) is an error with a line.

The flattener inlines an in-place call from the AST only once per call
signature and records the block as a template; a later call with the
same signature emits a block of the template's body on its own target,
argument and captured slots and new locals, taken in the same order as
inlining would, without walking the AST.  The signature holds everything
the inline depends on: the function value, each argument's kind and
width (a constant bit or compile-time integer by value), the value of
every name the body reads before binding it (found once per definition
by `_free_names`; a captured function adds its own such names, a
captured bit or array its slots), which of all those slots are one slot,
and which are fresh (see below).  A body that assigns a name it does not
bind is never replayed, and a replay that would pass the unrolling or
allocation bound inlines instead, so that the error is the same.  A
template's block is validated when it is inlined; a replay is not, since
its check, drawn per body position, would be the template's bit for bit.

An unwritten `Array.zeroCreate` slot is the constant 0, and a `clean`ed
slot is fresh again: `clean` emits a `CleanSlot` for each of its slots
that is not fresh already and makes them fresh.  A `clean` that reaches
an entry input's slot, by its name or through a re-label, is an error
with its line: the input's wire belongs to the circuit.  An operator's
value that folds to an operand (`a && a`) is copied to a new slot, as the
source makes a new bit, so it is never such a re-label.  `emit` folds a fresh
slot out of every statement that reads it, at top level and in in-place
bodies, so its next write is a fresh write (`fresh=True`) and no
flattened statement reads a slot with no wire; a fresh output slot is
written as the constant 0.  Expressions keep its variable until then,
so that a name aliasing it still accumulates onto it in place.

An `InPlaceBlock` holds no statements of its own: it is a token and its
distinct slots.  The token is a `BlockBody`, the body written over
positions (slot p of the body stands for the block's `slots[p]`)
together with the positions of the targets, arguments and locals.  It is
shared by a template's block and every block replayed from it, so
position i of one block is the renaming of position i of another's.  A
block's slots are the slots of its call's signature in key order (or,
for a call without one, its target slots), then any other slot its body
touches, then its locals; a block that is not templated has a token of its
own.  `run_statements` runs a block by gathering its slots' columns,
running the shared body and scattering them back; the MDD and the
scheduler read only the block's slot lists, which are views of the token
and the slots, and the body's per-token live-count delta, and the
emitter compiles a block once per token (see emitter).  A block's own
statements, `body`, are built on demand, for its repr and for tools and
tests.

Hostile input is a one-line error with a line, never a traceback or a
hang: the parser bounds nesting at MAX_NESTING levels, both evaluators
reject a call to a function that is already running and turn a stack
overflow into an error at the item being run, and the flattener rejects
an `&&` or `||` chain whose synthesis would pass MAX_STATEMENT_GATES
gates.  A chain of one operator (`&&`, `||` or `<>`) is gathered with an
explicit stack (`_chain`) and evaluated in one call, and an integer chain
(`+ -` or `* / %`) folds its left spine in a loop (`_int_chain`), so a
chain's length costs no stack depth; `||` lowers all its operands at
once (see `bor`).

Both evaluators also share `_entry_point`: the top-level items run in
order, then a final expression naming a function, or with no final
expression the last function defined, takes the program's inputs as its
parameters; any other final expression is the output, and a program with
neither is an error.

`run_statements` is the one, bit-sliced evaluator of flat statements (one
sample per bit of a Python int); `interpret_packed` runs a FlatProgram
through it and is the ground-truth oracle of circuit verification.
`interpret_source` evaluates the AST directly under the same conventions
and serves as an independent cross-check on flatten itself.
"""

from __future__ import annotations

import math
import random
import re
from contextlib import contextmanager
from dataclasses import dataclass, field

from .boolexpr import (
    MAX_STATEMENT_GATES, BoolExp, band, bconst, bor, bvar, bxor, evaluate,
    gate_count, negate, variables,
)

# ---------------------------------------------------------------------------
# Errors


class FrontendError(Exception):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class ParseError(FrontendError):
    pass


class FlattenError(FrontendError):
    pass


class InterpretError(FrontendError):
    pass


# ---------------------------------------------------------------------------
# Lexer

KEYWORDS = {
    "let", "mutable", "for", "in", "do", "if", "then", "else",
    "not", "true", "false", "clean", "begin", "end",
}

_TOKEN_RE = re.compile(
    r"(?P<name>[A-Za-z_][A-Za-z0-9_']*(?:\.[A-Za-z_][A-Za-z0-9_']*)*)"
    r"|(?P<int>\d+)"
    r"|(?P<op><-|<>|&&|\|\||\.\.|\[\||\|\]|\.\[|[()\[\];:=+\-*/%])"
    r"|(?P<ws>[ \t]+)"
)

_PRAGMA_RE = re.compile(r"^\s*//\s*param\s+([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(-?\d+)\s*$")

_OPENERS = {"=", "do", "then", "else"}


@dataclass(frozen=True)
class Token:
    kind: str  # NAME | INT | OP | KW | NL | INDENT | DEDENT | EOF
    value: str
    line: int


def tokenize(text: str) -> tuple[list[Token], dict[str, int]]:
    """Off-side-rule tokenizer.

    A line indented deeper than the current block continues the previous
    logical line unless that line ended with a block opener (`=`, `do`,
    `then`, `else`), in which case it opens an indented block.
    """
    tokens: list[Token] = []
    pragmas: dict[str, int] = {}
    indents = [0]
    prev_opener = False
    have_line = False  # a logical line is currently open

    for lineno, raw in enumerate(text.splitlines(), 1):
        m = _PRAGMA_RE.match(raw)
        if m:
            pragmas[m.group(1)] = int(m.group(2))
            continue
        line = raw.split("//", 1)[0].rstrip()
        if not line.strip():
            continue
        indent = len(line) - len(line.lstrip(" \t")) + 3 * line[: len(line) - len(line.lstrip())].count("\t")
        body = line.strip()

        if have_line and indent > indents[-1] and not prev_opener:
            pass  # continuation of the previous logical line
        else:
            if have_line:
                tokens.append(Token("NL", "", lineno))
            if indent > indents[-1]:
                if not prev_opener:
                    raise ParseError("unexpected indentation", lineno)
                indents.append(indent)
                tokens.append(Token("INDENT", "", lineno))
            else:
                while indent < indents[-1]:
                    indents.pop()
                    tokens.append(Token("DEDENT", "", lineno))
                if indent != indents[-1]:
                    raise ParseError("inconsistent dedent", lineno)
        have_line = True

        pos = 0
        last = None
        while pos < len(body):
            m = _TOKEN_RE.match(body, pos)
            if not m:
                raise ParseError(f"unexpected character {body[pos]!r}", lineno)
            pos = m.end()
            if m.lastgroup == "ws":
                continue
            val = m.group()
            if m.lastgroup == "name":
                kind = "KW" if val in KEYWORDS else "NAME"
            elif m.lastgroup == "int":
                kind = "INT"
            else:
                kind = "OP"
            last = Token(kind, val, lineno)
            tokens.append(last)
        prev_opener = last is not None and (
            (last.kind == "OP" and last.value in _OPENERS)
            or (last.kind == "KW" and last.value in ("do", "then", "else"))
        )

    if have_line:
        tokens.append(Token("NL", "", len(text.splitlines()) + 1))
    while len(indents) > 1:
        indents.pop()
        tokens.append(Token("DEDENT", "", len(text.splitlines()) + 1))
    tokens.append(Token("EOF", "", len(text.splitlines()) + 1))
    return tokens, pragmas


# ---------------------------------------------------------------------------
# AST


@dataclass
class EName:
    name: str
    line: int = 0


@dataclass
class EBool:
    value: bool


@dataclass
class EInt:
    value: int


@dataclass
class ENot:
    arg: object


@dataclass
class EBin:
    op: str  # && || <> + - * / %
    left: object
    right: object
    line: int = 0


@dataclass
class EIndex:
    name: str
    index: object
    line: int = 0


@dataclass
class ESlice:
    name: str
    lo: object
    hi: object
    line: int = 0


@dataclass
class EApp:
    fn: str
    args: list
    line: int = 0


@dataclass
class EArrayLit:
    items: list  # compile-time int array literal [| ... |]
    line: int = 0


@dataclass
class EList:
    items: list  # [a; b; c] (argument of Array.concat)
    line: int = 0


@dataclass
class EIf:
    cond: object
    then_block: "Block"
    else_block: "Block"
    line: int = 0


@dataclass
class LetDef:
    name: str
    params: list  # (name, annotation) with annotation None | ("bool",) | ("array", size_expr|None)
    body: "Block"
    line: int = 0


@dataclass
class LetBind:
    name: str
    mutable: bool
    expr: object
    line: int = 0


@dataclass
class Assign:
    target: object  # EName or EIndex
    expr: object
    line: int = 0


@dataclass
class ForLoop:
    var: str
    lo: object
    hi: object
    body: "Block"
    line: int = 0


@dataclass
class CleanStmt:
    name: str
    line: int = 0


@dataclass
class ExprItem:
    expr: object
    line: int = 0


@dataclass
class Block:
    items: list


@dataclass
class Program:
    items: list
    pragmas: dict


BUILTINS = {"Array.zeroCreate", "Array.append", "Array.concat", "Array.length",
            "rot", "int", "sqrt", "float"}

_ATOM_START = {"NAME", "INT"}

# precedence: || < && < <> < (+ -) < (* / %) < not < application < atom
_BINARY_LEVELS = [("||",), ("&&",), ("<>",), ("+", "-"), ("*", "/", "%")]
_LEVEL = {op: level for level in _BINARY_LEVELS for op in level}


# Deepest nesting of parenthesized expressions, `not`s and blocks the parser
# accepts: it recurses a few frames per level, and so do the evaluators.
MAX_NESTING = 64


class Parser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.pos = 0
        self.depth = 0  # open expressions, `not`s and blocks

    def enter(self) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels",
                             self.peek().line)

    # -- token helpers -----------------------------------------------------
    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def at(self, kind: str, value: str | None = None) -> bool:
        t = self.peek()
        return t.kind == kind and (value is None or t.value == value)

    def expect(self, kind: str, value: str | None = None) -> Token:
        t = self.peek()
        if not self.at(kind, value):
            want = value or kind
            raise ParseError(f"expected {want!r}, found {t.value or t.kind!r}", t.line)
        return self.next()

    def skip_nl(self) -> None:
        while self.at("NL"):
            self.next()

    # -- grammar -----------------------------------------------------------
    def parse_program(self) -> Program:
        items = self.parse_items("EOF")
        if not items:
            raise ParseError("no output expression: empty program", 1)
        return Program(items, {})

    def parse_items(self, kind: str, value: str | None = None) -> list:
        """Items separated by newlines or `;`, up to the token kind/value."""
        items = []
        self.skip_nl()
        while not self.at(kind, value):
            items.append(self.parse_item())
            while self.at("NL") or self.at("OP", ";"):
                self.next()
        return items

    def parse_item(self):
        t = self.peek()
        if t.kind == "KW" and t.value == "let":
            return self.parse_let()
        if t.kind == "KW" and t.value == "for":
            return self.parse_for()
        if t.kind == "KW" and t.value == "clean":
            self.next()
            name = self.expect("NAME").value
            return CleanStmt(name, t.line)
        # expression statement, or the target of an assignment
        e = self.parse_expr()
        if not self.at("OP", "<-"):
            return ExprItem(e, t.line)
        if t.kind != "NAME" or not isinstance(e, (EName, EIndex)):
            raise ParseError("can only assign to a name or an element a.[i]",
                             t.line)
        self.next()
        return Assign(e, self.parse_expr(), t.line)

    def parse_let(self):
        t = self.expect("KW", "let")
        mutable = False
        if self.at("KW", "mutable"):
            self.next()
            mutable = True
        name = self.expect("NAME").value
        params = []
        while not self.at("OP", "="):
            params.append(self.parse_param())
        self.expect("OP", "=")
        if params:
            if mutable:
                raise ParseError("function definitions cannot be mutable", t.line)
            return LetDef(name, params, self.parse_block(), t.line)
        body = self.parse_block()
        # a plain binding's block must be a single expression
        if len(body.items) == 1 and isinstance(body.items[0], ExprItem):
            return LetBind(name, mutable, body.items[0].expr, t.line)
        if len(body.items) == 1 and isinstance(body.items[0], (LetBind, Assign)):
            raise ParseError(f"binding for {name!r} must be an expression", t.line)
        # multi-statement binding bodies (e.g. `let sum = if ...` blocks) are
        # represented as a zero-argument definition applied on the spot
        return LetBind(name, mutable, EApp("__block__", [LetDef("", [], body, t.line)], t.line), t.line)

    def parse_param(self):
        if self.at("NAME"):
            return (self.next().value, None)
        self.expect("OP", "(")
        name = self.expect("NAME").value
        self.expect("OP", ":")
        self.expect("NAME", "bool")
        ann = ("bool",)
        if self.at("NAME", "array"):
            self.next()
            ann = ("array", None)
        elif self.at("OP", "["):
            self.next()
            if self.at("OP", "]"):
                self.next()
                ann = ("array", None)
            else:
                size = self.parse_expr()
                self.expect("OP", "]")
                ann = ("array", size)
        self.expect("OP", ")")
        return (name, ann)

    def parse_for(self):
        t = self.expect("KW", "for")
        var = self.expect("NAME").value
        self.expect("KW", "in")
        lo = self.parse_expr()
        self.expect("OP", "..")
        hi = self.parse_expr()
        self.expect("KW", "do")
        return ForLoop(var, lo, hi, self.parse_block(), t.line)

    def parse_block(self) -> Block:
        self.enter()
        if self.at("NL"):
            self.next()
            self.expect("INDENT")
            items = self.parse_items("DEDENT")
            self.next()
        elif self.at("KW", "begin"):
            self.next()
            items = self.parse_items("KW", "end")
            self.next()
        else:
            items = [self.parse_item()]
            while self.at("OP", ";"):
                self.next()
                items.append(self.parse_item())
        if not items:
            raise ParseError("empty block", self.peek().line)
        self.depth -= 1
        return Block(items)

    def parse_expr(self, level: int = 0):
        """Binary operators, loosest first (see _BINARY_LEVELS)."""
        if level == len(_BINARY_LEVELS):
            return self.parse_unary()
        if level == 0:
            self.enter()
        e = self.parse_expr(level + 1)
        ops = _BINARY_LEVELS[level]
        while self.peek().kind == "OP" and self.peek().value in ops:
            t = self.next()
            e = EBin(t.value, e, self.parse_expr(level + 1), t.line)
        if level == 0:
            self.depth -= 1
        return e

    def parse_unary(self):
        if self.at("KW", "not"):
            self.enter()
            self.next()
            e = ENot(self.parse_unary())
            self.depth -= 1
            return e
        return self.parse_app()

    def _at_atom_start(self) -> bool:
        t = self.peek()
        if t.kind in _ATOM_START:
            return True
        if t.kind == "OP" and t.value in ("(", "[|", "["):
            return True
        if t.kind == "KW" and t.value in ("true", "false"):
            return True
        return False

    def parse_app(self):
        e = self.parse_atom()
        if isinstance(e, EName) and self._at_atom_start():
            args = []
            while self._at_atom_start():
                args.append(self.parse_atom())
            return EApp(e.name, args, e.line)
        return e

    def parse_atom(self):
        t = self.peek()
        if t.kind == "KW" and t.value in ("true", "false"):
            self.next()
            return EBool(t.value == "true")
        if t.kind == "KW" and t.value == "if":
            return self.parse_if()
        if t.kind == "INT":
            self.next()
            return EInt(int(t.value))
        if t.kind == "OP" and t.value == "(":
            self.next()
            e = self.parse_expr()
            self.expect("OP", ")")
            return e
        if t.kind == "OP" and t.value in ("[|", "["):
            self.next()
            items = [self.parse_expr()]
            while self.at("OP", ";"):
                self.next()
                items.append(self.parse_expr())
            close, node = ("|]", EArrayLit) if t.value == "[|" else ("]", EList)
            self.expect("OP", close)
            return node(items, t.line)
        if t.kind == "NAME":
            self.next()
            return self.parse_postfix(t.value, t.line)
        raise ParseError(f"unexpected token {t.value or t.kind!r}", t.line)

    def parse_postfix(self, name: str, line: int):
        if self.at("OP", ".["):
            self.next()
            lo = self.parse_expr()
            if self.at("OP", ".."):
                self.next()
                hi = self.parse_expr()
                self.expect("OP", "]")
                return ESlice(name, lo, hi, line)
            self.expect("OP", "]")
            return EIndex(name, lo, line)
        return EName(name, line)

    def parse_if(self):
        t = self.expect("KW", "if")
        cond = self.parse_expr()
        self.expect("KW", "then")
        then_block = self.parse_block()
        self.skip_nl()
        self.expect("KW", "else")
        else_block = self.parse_block()
        return EIf(cond, then_block, else_block, t.line)


def parse(text: str, params: dict | None = None) -> Program:
    """Parse `.rev` source; `params` override `// param name = value` pragmas."""
    tokens, pragmas = tokenize(text)
    prog = Parser(tokens).parse_program()
    prog.pragmas = dict(pragmas)
    if params:
        prog.pragmas.update(params)
    return prog


# ---------------------------------------------------------------------------
# Flat program representation


@dataclass
class Compute:
    slot: int
    expr: BoolExp
    fresh: bool  # True: slot was zero and expr excludes it; False: slot ^= expr


@dataclass(frozen=True, eq=False)
class BlockBody:
    """The statements of in-place blocks written over body positions:
    slot p stands for `slots[p]` of a block that runs it.  It is the token
    of every such block, and `target_positions` (in target order),
    `arg_positions` and `local_positions` are the positions of those
    blocks' targets, arguments and locals."""
    stmts: tuple  # Compute | CleanSlot
    target_positions: tuple
    arg_positions: tuple
    local_positions: tuple


class InPlaceBlock:
    """An inlined in-place call: its targets accumulate, its arguments are
    read and restored, its locals are zero at both ends.

    `token` is the `BlockBody` it runs and `slots` its distinct slots,
    body position p being slots[p].  Blocks of one token share that body.
    The slot lists and `body`, the statements on the block's own slots,
    are views of the two, built on demand; repr shows them.
    """
    __slots__ = ("token", "slots")

    def __init__(self, token: BlockBody, slots: tuple):
        self.token = token
        self.slots = slots

    @classmethod
    def from_statements(cls, target_slots: list[int], body: list,
                        local_slots: list[int], slots=()) -> InPlaceBlock:
        """A block of `body`, Compute and CleanSlot statements on slots,
        with a token of its own.  Its arguments are the other slots the
        body touches.  Its slots are `slots`, then its target, argument and
        local slots, made distinct."""
        touched: set[int] = set()
        for s in body:
            if isinstance(s, Compute):
                touched.update(variables(s.expr))
            touched.add(s.slot)
        arg_slots = sorted(touched.difference(target_slots, local_slots))
        slots = tuple(dict.fromkeys([*slots, *target_slots, *arg_slots,
                                     *local_slots]))
        pos = {s: p for p, s in enumerate(slots)}
        token = BlockBody(tuple(_renamed_stmts(body, pos)),
                          tuple(pos[t] for t in target_slots),
                          tuple(pos[a] for a in arg_slots),
                          tuple(pos[l] for l in local_slots))
        return cls(token, slots)

    @property
    def target_slots(self) -> list[int]:
        return [self.slots[p] for p in self.token.target_positions]

    @property
    def arg_slots(self) -> list[int]:
        """The argument slots, sorted."""
        return sorted([self.slots[p] for p in self.token.arg_positions])

    @property
    def local_slots(self) -> list[int]:
        return [self.slots[p] for p in self.token.local_positions]

    @property
    def body(self) -> list:
        """The block's statements on its own slots (a new list each time)."""
        return _renamed_stmts(self.token.stmts, self.slots)

    def __repr__(self) -> str:
        return (f"InPlaceBlock(target_slots={self.target_slots!r}, "
                f"arg_slots={self.arg_slots!r}, body={self.body!r}, "
                f"local_slots={self.local_slots!r})")


@dataclass
class CleanSlot:
    slot: int


@dataclass
class FlatProgram:
    name: str
    input_slots: list[int]
    output_slots: list[int]
    statements: list
    slot_count: int
    input_layout: list = field(default_factory=list)  # (name, width)


class _NonZeroClean(InterpretError):
    """A `CleanSlot` of a slot that is non-zero in some lane."""

    def __init__(self, slot: int):
        super().__init__(f"clean of non-zero slot {slot}")
        self.slot = slot


def run_statements(stmts, cols: list[int], mask: int) -> None:
    """Apply flat statements, in order, to slot-indexed packed columns.

    `cols[s]` holds slot s with one sample per bit (lane); `mask` has a 1
    in every live lane.  A block gathers its slots' columns into a list by
    body position, runs its shared body on it and scatters them back.  A
    `CleanSlot` of a slot that is non-zero in any lane raises
    InterpretError.
    """
    for stmt in stmts:
        if isinstance(stmt, Compute):
            v = evaluate(stmt.expr, cols, mask)
            cols[stmt.slot] = v if stmt.fresh else cols[stmt.slot] ^ v
        elif isinstance(stmt, InPlaceBlock):
            slots = stmt.slots
            sub = [cols[s] for s in slots]
            try:
                run_statements(stmt.token.stmts, sub, mask)
            except _NonZeroClean as exc:  # it names a body position
                raise _NonZeroClean(slots[exc.slot]) from None
            for s, v in zip(slots, sub):
                cols[s] = v
        elif isinstance(stmt, CleanSlot):
            if cols[stmt.slot]:
                raise _NonZeroClean(stmt.slot)
        else:
            raise TypeError(f"unknown statement {stmt!r}")


def interpret_packed(program: FlatProgram, columns, mask: int) -> list[int]:
    """Evaluate many samples at once; the ground truth for verification.

    `columns[i]` packs input bit i of every sample, one sample per lane of
    `mask`; returns one packed column per output slot.
    """
    if len(columns) != len(program.input_slots):
        raise InterpretError(
            f"expected {len(program.input_slots)} input bits, got {len(columns)}")
    cols = [0] * program.slot_count
    for s, c in zip(program.input_slots, columns):
        cols[s] = c & mask
    run_statements(program.statements, cols, mask)
    return [cols[s] for s in program.output_slots]


def interpret(program: FlatProgram, inputs) -> list[int]:
    """One-sample `interpret_packed`: a list of 0/1 in, a list of 0/1 out."""
    return interpret_packed(program, inputs, 1)


# ---------------------------------------------------------------------------
# Flattener


class _Scope:
    def __init__(self, parent: "_Scope | None"):
        self.vars: dict[str, list] = {}  # name -> [value, mutable]
        self.parent = parent

    def lookup(self, name: str):
        s = self
        while s is not None:
            if name in s.vars:
                return s.vars[name]
            s = s.parent
        return None

    def get(self, name: str, error: type[FrontendError], line: int) -> list:
        """The binding of a name that must exist."""
        b = self.lookup(name)
        if b is None:
            raise error(f"unknown identifier {name!r}", line)
        return b

    def bind(self, name: str, value, mutable: bool = False) -> None:
        self.vars[name] = [value, mutable]

    def function(self, e) -> _FuncVal | None:
        """The user function that `e` calls, or None if e is no such call."""
        if not isinstance(e, EApp) or e.fn in BUILTINS or e.fn == "__block__":
            return None
        b = self.lookup(e.fn)
        return b[0] if b is not None and isinstance(b[0], _FuncVal) else None


class _IntVal:
    def __init__(self, v: int):
        self.value = v


class _IntArrVal:
    def __init__(self, vs: list[int]):
        self.values = list(vs)


class _BitVal:
    def __init__(self, slot: int):
        self.slot = slot


class _ArrVal:
    def __init__(self, slots: list[int]):
        self.slots = list(slots)


class _ConstBitVal:
    def __init__(self, v: bool):
        self.value = bool(v)


class _FuncVal:
    def __init__(self, defn: LetDef, env: _Scope):
        self.defn = defn
        self.env = env


def _int_sqrt(x: int, error: type[FrontendError], line: int) -> int:
    """`sqrt` of a compile-time integer: through a float, then truncated."""
    if x < 0:
        raise error("sqrt of a negative number", line)
    try:
        return int(math.sqrt(x))
    except OverflowError:
        raise error("sqrt argument is too large", line) from None


# Bound on the loop iterations one program may unroll, summed over every
# loop it runs (a loop in a function runs again at each call).  The
# bundled corpus peaks at 35136 (sha2.rev with all 64 rounds).  A loop that
# would pass the bound is an error before its first iteration; reaching
# the bound through many smaller loops takes a few seconds.
MAX_UNROLLED_ITERATIONS = 1_000_000


def _count_iterations(done: int, lo: int, hi: int,
                      error: type[FrontendError], line: int) -> int:
    """Iterations unrolled so far, `done`, plus those of loop `lo .. hi`."""
    done += max(0, hi - lo + 1)
    if done > MAX_UNROLLED_ITERATIONS:
        raise error(f"loops unroll to more than {MAX_UNROLLED_ITERATIONS} "
                    f"iterations", line)
    return done


# Bound on the bits one program may allocate, summed over every
# `Array.zeroCreate` it runs and its entry parameters.  The bundled corpus
# peaks at 8960 (sha2.rev with all 64 rounds).  An allocation that would
# pass the bound is an error before any of its bits exist.
MAX_ALLOCATED_BITS = 100_000


def _count_bits(done: int, n: int, error: type[FrontendError],
                line: int) -> int:
    """Bits allocated so far, `done`, plus an array of `n` more."""
    if n < 0:
        raise error("negative array size", line)
    done += n
    if done > MAX_ALLOCATED_BITS:
        raise error(f"arrays allocate more than {MAX_ALLOCATED_BITS} bits",
                    line)
    return done


def _slots_of(v) -> list[int] | None:
    if isinstance(v, _BitVal):
        return [v.slot]
    if isinstance(v, _ArrVal):
        return list(v.slots)
    return None


# ---------------------------------------------------------------------------
# The in-place rule, shared by the flattener and the source interpreter


def in_place_binding(defn: LetDef, target: list, args: list, nested: int):
    """Decide `x <- f args` before inlining: f's result binding if the call
    accumulates onto `x`, None if it re-binds `x`.

    `target` is x's slots (flattener) or boxes (interpreter), `args` the
    slots or boxes of each argument, `nested` non-zero inside an in-place
    body or an `if` branch.  f must return a body-level
    `let r = Array.zeroCreate n` whose every write accumulates.
    """
    if nested or not target or any(set(target).intersection(a) for a in args):
        return None
    items = defn.body.items
    final = items[-1].expr if isinstance(items[-1], ExprItem) else None
    if not isinstance(final, EName):
        return None
    ret = next((it for it in reversed(items) if isinstance(it, (LetBind, LetDef))
                and it.name == final.name), None)
    if not (isinstance(ret, LetBind) and isinstance(ret.expr, EApp)
            and ret.expr.fn == "Array.zeroCreate"):
        return None
    return ret if _writes_accumulate(items, final.name) else None


def _writes_accumulate(items, name: str) -> bool:
    """Every write to `name` in `items` (and their for-loops) accumulates."""
    for it in items:
        if isinstance(it, ForLoop) and not _writes_accumulate(it.body.items, name):
            return False
        if (isinstance(it, Assign) and it.target.name == name
                and not _accumulates(it.target, it.expr)):
            return False
    return True


def _accumulates(target, rhs) -> bool:
    """`rhs` reads the target's name once, as the target itself in its
    top-level `<>` chain (`t <- t <> e`, `t <- e <> t`)."""
    refs = [(e, top) for e, top in _reads(rhs) if e.name == target.name]
    if len(refs) != 1 or not refs[0][1]:
        return False
    e = refs[0][0]
    return type(e) is type(target) and (
        isinstance(e, EName) or _int_expr_equal(e.index, target.index))


def _reads(e, top: bool = True):
    """Every name, element or slice that `e` reads, with whether it is an
    operand of e's top-level `<>` chain (`not a` counts as `a <> true`).
    An operator chain is walked by `_chain`, so its length costs no
    depth."""
    if isinstance(e, EBin):
        for x in _chain(e):
            yield from _reads(x, top and e.op == "<>")
    elif isinstance(e, ENot):
        yield from _reads(e.arg, top)
    else:
        if isinstance(e, (EName, EIndex, ESlice)):
            yield e, top
        for sub in (e.args if isinstance(e, EApp) else
                    e.items if isinstance(e, EList) else
                    [e.index] if isinstance(e, EIndex) else
                    [e.lo, e.hi] if isinstance(e, ESlice) else []):
            yield from _reads(sub, False)


def _chain(e: EBin) -> list:
    """The operands of the chain rooted at e, left to right: the leaves of
    the largest subtree of operators of e's precedence level (`&&`, `||`,
    `<>`, `+ -` or `* / %`), found without recursion."""
    level = _LEVEL[e.op]
    left, right = e.left, e.right
    if not (isinstance(left, EBin) and left.op in level
            or isinstance(right, EBin) and right.op in level):
        return [left, right]
    out, work = [], [right, left]
    while work:
        x = work.pop()
        if isinstance(x, EBin) and x.op in level:
            work += (x.right, x.left)
        else:
            out.append(x)
    return out


def _int_chain(e: EBin, operand, error: type[FrontendError]) -> int:
    """The integer value of the chain of e's precedence level rooted at e
    (`a - b + c`, `a * b % c`), its left spine folded in a loop; `operand`
    evaluates every other operand, left to right."""
    level, spine = _LEVEL[e.op], []
    while isinstance(e, EBin) and e.op in level:
        spine.append(e)
        e = e.left
    v = operand(e)
    for x in reversed(spine):
        b = operand(x.right)
        if x.op == "+":
            v += b
        elif x.op == "-":
            v -= b
        elif x.op == "*":
            v *= b
        elif b == 0:
            raise error(f"{'division' if x.op == '/' else 'modulo'} by zero",
                        x.line)
        else:
            v = v // b if x.op == "/" else v % b
    return v


def _int_expr_equal(a, b) -> bool:
    """a and b are the same integer expression, compared without
    recursion."""
    work = [(a, b)]
    while work:
        a, b = work.pop()
        if type(a) is not type(b):
            return False
        if isinstance(a, EBin) and a.op == b.op:
            work += ((a.left, b.left), (a.right, b.right))
        elif isinstance(a, EIndex) and a.name == b.name:
            work.append((a.index, b.index))
        elif not (isinstance(a, EInt) and a.value == b.value
                  or isinstance(a, EName) and a.name == b.name):
            return False
    return True


def _free_names(defn: LetDef) -> tuple[tuple[str, ...], bool]:
    """The names `defn`'s body reads before it binds them, in first-read
    order, and whether it assigns a name it does not bind.

    A scope-ordered walk: parameters, `let`s and loop variables bind as
    the flattener binds them, and a branch, loop body or nested definition
    gets its own scope.  A nested definition sees only the names bound
    before it; one bound later counts as free, which can only make a key
    finer.
    """
    free: dict[str, None] = {}
    writes = False

    def expr(e, bound: set) -> None:
        if isinstance(e, EIf):
            expr(e.cond, bound)
            items(e.then_block.items, set(bound))
            items(e.else_block.items, set(bound))
            return
        if isinstance(e, EApp) and e.fn == "__block__":
            items(e.args[0].body.items, set(bound))
            return
        if isinstance(e, (EName, EIndex, ESlice)) and e.name not in bound:
            free.setdefault(e.name)
        if isinstance(e, EApp) and e.fn not in BUILTINS and e.fn not in bound:
            free.setdefault(e.fn)
        for sub in (e.args if isinstance(e, EApp) else
                    e.items if isinstance(e, (EList, EArrayLit)) else
                    _chain(e) if isinstance(e, EBin) else
                    [e.arg] if isinstance(e, ENot) else
                    [e.index] if isinstance(e, EIndex) else
                    [e.lo, e.hi] if isinstance(e, ESlice) else []):
            expr(sub, bound)

    def items(its, bound: set) -> None:
        nonlocal writes
        for it in its:
            if isinstance(it, LetDef):
                bound.add(it.name)
                items(it.body.items, bound | {p for p, _ann in it.params})
            elif isinstance(it, LetBind):
                expr(it.expr, bound)
                bound.add(it.name)
            elif isinstance(it, Assign):
                writes = writes or it.target.name not in bound
                expr(it.target, bound)
                expr(it.expr, bound)
            elif isinstance(it, ForLoop):
                expr(it.lo, bound)
                expr(it.hi, bound)
                items(it.body.items, bound | {it.var})
            elif isinstance(it, CleanStmt):
                if it.name not in bound:
                    free.setdefault(it.name)
            else:
                expr(it.expr, bound)

    items(defn.body.items, {p for p, _ann in defn.params})
    return tuple(free), writes


def _renamed(e: BoolExp, m: dict[int, BoolExp]) -> BoolExp:
    """e with the variable of every slot s replaced by m[s]."""
    if e.op == "var":
        return m[e.args[0]]
    if e.op == "const":
        return e
    return BoolExp(e.op, tuple([_renamed(a, m) for a in e.args]))


def _read_as_zero(e: BoolExp, zeros: set[int]) -> BoolExp:
    """e with the variable of every slot in `zeros` read as 0, folded
    again; e itself if it reads none of them."""
    if e.op == "var":
        return bconst(False) if e.args[0] in zeros else e
    if e.op == "const":
        return e
    args = [_read_as_zero(a, zeros) for a in e.args]
    if all(a is b for a, b in zip(args, e.args)):
        return e
    if e.op == "not":
        return negate(args[0])
    return (band if e.op == "and" else bxor)(args)


def _renamed_stmts(stmts, m) -> list:
    """Compute and CleanSlot statements with every slot s renamed to m[s],
    `m` a dict or a sequence indexed by slot."""
    var = ({s: bvar(t) for s, t in m.items()} if isinstance(m, dict)
           else [bvar(t) for t in m])
    return [Compute(m[s.slot], _renamed(s.expr, var), s.fresh)
            if isinstance(s, Compute) else CleanSlot(m[s.slot])
            for s in stmts]


@dataclass
class _Template:
    """A flattened in-place call, replayed for later calls of its signature.

    `token` is the `BlockBody` the call emitted.  Positions index its
    slots: the call's target, argument and captured slots in key order
    (distinct), then its locals.  `fresh_after` are the positions of the
    slots that are fresh (unwritten or cleaned) after the call.
    `iterations` and `allocated` are what the call added to the unrolling
    and allocation counters.
    """
    token: BlockBody
    fresh_after: tuple
    iterations: int
    allocated: int


class _NoTemplate(Exception):
    """The call writes a name it does not bind: it cannot be replayed."""


def _check_width(ret: LetBind, n: int, target: list, line: int,
                 error: type[FrontendError]) -> None:
    if n != len(target):
        raise error(f"in-place result {ret.name!r} has {n} bit(s) but its "
                    f"target has {len(target)}", line)


@contextmanager
def _entering(active: set, defn: LetDef, error: type[FrontendError], line):
    """Mark `defn` as running for the duration; a call to a function that
    is already running is an error, since nothing would end the
    recursion."""
    if id(defn) in active:
        raise error(f"recursive call to {defn.name or '<block>'!r}",
                    line or None)
    active.add(id(defn))
    try:
        yield
    finally:
        active.discard(id(defn))


def _entry_point(program: Program, scope: _Scope, do_item,
                 error: type[FrontendError]):
    """Run the top-level items; return `(entry, None)` with the function
    that takes the inputs, or `(None, expr)` with the output expression."""
    items = list(program.items)
    final = items.pop().expr if items and isinstance(items[-1], ExprItem) else None
    for item in items:
        do_item(item, scope)
    name = final.name if isinstance(final, EName) else None
    if final is None:
        name = next((it.name for it in reversed(items)
                     if isinstance(it, LetDef)), None)
    b = scope.lookup(name) if name is not None else None
    if b is not None and isinstance(b[0], _FuncVal):
        return b[0], None
    if final is None:
        raise error("no output expression")
    return None, final


_LIST_ONLY_IN_CONCAT = "a list [a; ...] is only allowed as the argument of Array.concat"
_NOT_ACCUMULATING = "a write into an in-place target must accumulate (t <- t <> e)"


class Flattener:
    def __init__(self, program: Program, params: dict | None = None):
        self.program = program
        self.params = dict(program.pragmas)
        if params:
            self.params.update(params)
        self.slot_count = 0
        # unwritten Array.zeroCreate slots and cleaned ones: they read as 0
        self.fresh: set[int] = set()
        # fresh slots an expression built so far reads (`read`), which
        # `emit` reads as 0 in the statements it emits
        self.fresh_reads: set[int] = set()
        self.inputs: set[int] = set()  # the entry parameters' slots
        self.stmts: list = []
        self.enforced: set[int] = set()  # in-place target: accumulate only
        self.nested = 0  # >0: inside an in-place body or an if-branch
        self.branch_depth = 0  # >0: inside an if-branch, re-labelings only
        self.journal: list[list] = []  # per open branch: (binding, old value)
        self.iterations = 0  # loop iterations unrolled so far
        self.allocated = 0  # bits allocated by arrays and entry parameters
        self.templates: dict = {}  # in-place call signature -> _Template
        self.active: set[int] = set()  # id(LetDef) of the calls being inlined
        self.line: int | None = None  # of the item being flattened
        self.free_names: dict[int, tuple] = {}  # id(LetDef) -> _free_names()

    # -- plumbing ----------------------------------------------------------
    def new_slot(self) -> int:
        s = self.slot_count
        self.slot_count += 1
        return s

    def emit(self, stmt) -> None:
        """Append a statement, with every fresh slot it reads (unwritten or
        cleaned) read as 0; a write of 0 onto a written slot is dropped."""
        if self.branch_depth:
            raise FlattenError(
                "conditional branches may only re-label existing values")
        if isinstance(stmt, Compute):
            if self.fresh_reads:
                self.fresh_reads.intersection_update(self.fresh)
                stmt.expr = _read_as_zero(stmt.expr, self.fresh_reads)
            e = stmt.expr
            if e.op == "const" and not e.args[0] and not stmt.fresh:
                return  # x ^= 0 is a no-op
        self.stmts.append(stmt)

    def read(self, slot: int) -> BoolExp:
        """The variable of `slot`, for an expression that reads it."""
        if slot in self.fresh:
            self.fresh_reads.add(slot)
        return bvar(slot)

    def compute(self, e: BoolExp) -> int:
        """A new slot holding e."""
        t = self.new_slot()
        self.emit(Compute(t, e, True))
        return t

    def _assign(self, scope: _Scope, name: str, value, line: int) -> None:
        binding = scope.get(name, FlattenError, line)
        if not binding[1]:
            raise FlattenError(f"assignment to immutable binding {name!r}", line)
        self._set(binding, value)

    def _set(self, binding: list, value) -> None:
        """Re-bind an existing name, journaled inside if-branches."""
        if self.journal:
            self.journal[-1].append((binding, binding[0]))
        binding[0] = value

    # -- compile-time integers ----------------------------------------------
    def eval_int(self, e, scope: _Scope, line) -> int:
        """The compile-time integer e; an error at the caller's `line` if
        e is not one."""
        if isinstance(e, EInt):
            return e.value
        if isinstance(e, EName):
            v = scope.lookup(e.name)
            if v is not None and isinstance(v[0], _IntVal):
                return v[0].value
        elif isinstance(e, EBin) and e.op in "+-*/%":
            return _int_chain(e, lambda x: self.eval_int(x, scope, line),
                              FlattenError)
        elif isinstance(e, EIndex):
            v = scope.lookup(e.name)
            if v is not None and isinstance(v[0], _IntArrVal):
                values, i = v[0].values, self.eval_int(e.index, scope, line)
                if not 0 <= i < len(values):
                    raise FlattenError(f"index {i} out of range for {e.name!r}"
                                       f" (size {len(values)})", e.line)
                return values[i]
        elif isinstance(e, EApp):
            if e.fn in ("int", "float"):
                return self.eval_int(e.args[0], scope, line)
            if e.fn == "sqrt":
                return _int_sqrt(self.eval_int(e.args[0], scope, line),
                                 FlattenError, e.line)
            if e.fn == "Array.length":
                v = self.eval_value(e.args[0], scope)
                if isinstance(v, _ArrVal):
                    return len(v.slots)
                if isinstance(v, _IntArrVal):
                    return len(v.values)
                raise FlattenError("Array.length of a non-array", e.line)
        raise FlattenError("bound or index is not a compile-time integer",
                           line)

    # -- boolean expressions -------------------------------------------------
    def eval_scalar(self, e, scope: _Scope) -> BoolExp:
        """Expression in bit context, as a BoolExp over slots."""
        if isinstance(e, EBool):
            return bconst(e.value)
        if isinstance(e, ENot):
            return bxor([self.eval_scalar(e.arg, scope), bconst(True)])
        if isinstance(e, EBin):
            if e.op in ("&&", "||", "<>"):
                # one call per chain of one operator: `||` lowers all its
                # operands at once, and the chain's length costs no depth
                args = []
                for x in _chain(e):
                    args.append(self.eval_scalar(x, scope))
                if e.op == "<>":
                    return bxor(args)
                be = (band if e.op == "&&" else bor)(args)
                if gate_count(be) > MAX_STATEMENT_GATES:
                    raise FlattenError(
                        f"expression synthesizes to more than "
                        f"{MAX_STATEMENT_GATES} gates", e.line)
                return be
            raise FlattenError(f"integer operator {e.op!r} in bit context",
                               e.line)
        return self.bit_expr(self.eval_value(e, scope), e)

    def bit_expr(self, v, e) -> BoolExp:
        """The BoolExp of value v, which expression e evaluated to."""
        if isinstance(v, _BitVal):
            return self.read(v.slot)
        if isinstance(v, _ConstBitVal):
            return bconst(v.value)
        raise FlattenError("expected a bit-valued expression",
                           getattr(e, "line", None))

    # -- general values -------------------------------------------------------
    def eval_value(self, e, scope: _Scope):
        if isinstance(e, EBool):
            return _ConstBitVal(e.value)
        if isinstance(e, EArrayLit):
            return _IntArrVal([self.eval_int(x, scope, e.line)
                               for x in e.items])
        if isinstance(e, EName):
            v = scope.get(e.name, FlattenError, e.line)[0]
            if isinstance(v, _ArrVal):
                return _ArrVal(v.slots)
            return v
        if isinstance(e, EIndex):
            v = scope.get(e.name, FlattenError, e.line)[0]
            if isinstance(v, _IntArrVal):
                return _IntVal(self.eval_int(e, scope, e.line))
            i = self.eval_int(e.index, scope, e.line)
            if isinstance(v, _ArrVal):
                if not 0 <= i < len(v.slots):
                    raise FlattenError(f"index {i} out of range for {e.name!r}"
                                       f" (size {len(v.slots)})", e.line)
                return _BitVal(v.slots[i])
            raise FlattenError(f"{e.name!r} is not an array", e.line)
        if isinstance(e, ESlice):
            v = scope.get(e.name, FlattenError, e.line)[0]
            if not isinstance(v, _ArrVal):
                raise FlattenError(f"{e.name!r} is not a bit array", e.line)
            lo = self.eval_int(e.lo, scope, e.line)
            hi = self.eval_int(e.hi, scope, e.line)
            if not (0 <= lo and hi < len(v.slots)):
                raise FlattenError(f"slice [{lo}..{hi}] out of range for "
                                   f"{e.name!r} (size {len(v.slots)})", e.line)
            return _ArrVal(v.slots[lo:hi + 1])
        if isinstance(e, EApp):
            return self.eval_app(e, scope)
        if isinstance(e, EIf):
            return self.if_convert(e, scope)
        if isinstance(e, (EBin, ENot)):
            if isinstance(e, EBin) and e.op in "+-*/%":
                return _IntVal(self.eval_int(e, scope, e.line))
            be = self.eval_scalar(e, scope)
            if be.op == "var":
                # an operator's value is a new bit, as in the source, also
                # when it folds to an operand (`a && a`, `a <> b <> b`):
                # a later write or `clean` of it must not reach the operand
                return _BitVal(self.compute(be))
            return self.materialize(be)
        if isinstance(e, EInt):
            return _IntVal(e.value)
        if isinstance(e, EList):
            raise FlattenError(_LIST_ONLY_IN_CONCAT, e.line)
        raise FlattenError(f"cannot evaluate {type(e).__name__}")

    def materialize(self, be: BoolExp) -> object:
        if be.op == "const":
            return _ConstBitVal(be.args[0])
        if be.op == "var":
            return _BitVal(be.args[0])
        return _BitVal(self.compute(be))

    def eval_app(self, e: EApp, scope: _Scope):
        fn = e.fn
        if fn == "Array.zeroCreate":
            n = self.eval_int(e.args[0], scope, e.line)
            self.allocated = _count_bits(self.allocated, n, FlattenError, e.line)
            slots = [self.new_slot() for _ in range(n)]
            self.fresh.update(slots)
            return _ArrVal(slots)
        if fn == "Array.append":
            a = self.eval_value(e.args[0], scope)
            b = self.eval_value(e.args[1], scope)
            if not isinstance(a, _ArrVal) or not isinstance(b, _ArrVal):
                raise FlattenError("Array.append expects bit arrays", e.line)
            return _ArrVal(a.slots + b.slots)
        if fn == "Array.concat":
            (arg,) = e.args
            if not isinstance(arg, EList):
                raise FlattenError("Array.concat expects [a; b; ...]", e.line)
            out: list[int] = []
            for item in arg.items:
                v = self.eval_value(item, scope)
                if not isinstance(v, _ArrVal):
                    raise FlattenError("Array.concat expects bit arrays", e.line)
                out.extend(v.slots)
            return _ArrVal(out)
        if fn == "rot":
            k = self.eval_int(e.args[0], scope, e.line)
            v = self.eval_value(e.args[1], scope)
            if not isinstance(v, _ArrVal):
                raise FlattenError("rot expects a bit array", e.line)
            n = len(v.slots)
            return _ArrVal([v.slots[(i + k) % n] for i in range(n)])
        if fn in ("Array.length", "int", "sqrt", "float"):
            return _IntVal(self.eval_int(e, scope, e.line))
        if fn == "__block__":
            # desugared multi-statement binding body
            return self.inline_call(_FuncVal(e.args[0], scope), [])
        f = scope.function(e)
        if f is None:
            raise FlattenError(f"unknown function {fn!r}", e.line)
        args = [self.eval_value(a, scope) for a in e.args]
        return self.inline_call(f, args, line=e.line)

    # -- calls -----------------------------------------------------------------
    def inline_call(self, f: _FuncVal, args: list, alias=None, line=0):
        """Inline f once; `alias` = (result binding, target slots, call
        line) binds the result buffer to the in-place target."""
        defn = f.defn
        if len(args) != len(defn.params):
            raise FlattenError(
                f"{defn.name or '<block>'} expects {len(defn.params)} "
                f"argument(s), got {len(args)}", line)
        scope = _Scope(f.env)
        for (pname, _ann), v in zip(defn.params, args):
            scope.bind(pname, v, isinstance(v, _ArrVal))
        with _entering(self.active, defn, FlattenError, line):
            value = self.run_block(defn.body, scope, want_value=True,
                                   alias=alias)
        if isinstance(value, _FuncVal):
            raise FlattenError(f"{defn.name or '<block>'} returned no value",
                               defn.line)
        return value

    # -- statements -------------------------------------------------------------
    def run_block(self, block: Block, scope: _Scope, want_value: bool,
                  alias=None):
        value = None
        for item in block.items:
            self.line = item.line
            if isinstance(item, ExprItem):
                value = self.eval_value(item.expr, scope)
            elif alias is not None and item is alias[0]:
                ret, target, line = alias
                n = self.eval_int(ret.expr.args[0], scope, ret.line)
                _check_width(ret, n, target, line, FlattenError)
                scope.bind(ret.name, _ArrVal(target), True)
            else:
                self.do_item(item, scope)
        if want_value and value is None:
            raise FlattenError("block does not end in an expression")
        return value

    def do_item(self, item, scope: _Scope) -> None:
        self.line = item.line
        if isinstance(item, LetDef):
            scope.bind(item.name, _FuncVal(item, scope))
        elif isinstance(item, LetBind):
            v = self.eval_value(item.expr, scope)
            scope.bind(item.name, v, item.mutable or isinstance(v, _ArrVal))
        elif isinstance(item, Assign):
            self.do_assign(item, scope)
        elif isinstance(item, ForLoop):
            lo = self.eval_int(item.lo, scope, item.line)
            hi = self.eval_int(item.hi, scope, item.line)
            self.iterations = _count_iterations(self.iterations, lo, hi,
                                                FlattenError, item.line)
            for i in range(lo, hi + 1):
                inner = _Scope(scope)
                inner.bind(item.var, _IntVal(i))
                self.run_block(item.body, inner, want_value=False)
        elif isinstance(item, CleanStmt):
            if self.branch_depth:
                raise FlattenError("clean not allowed in conditional branches",
                                   item.line)
            slots = _slots_of(scope.get(item.name, FlattenError, item.line)[0])
            if slots is None:
                raise FlattenError(f"clean of non-bit value {item.name!r}",
                                   item.line)
            for s in slots:  # read as 0 again, written fresh next
                if s in self.inputs:  # its wire is the circuit's input
                    raise FlattenError(f"clean of {item.name!r} would "
                                       f"release an input bit", item.line)
                if s not in self.fresh:
                    self.emit(CleanSlot(s))
                    self.fresh.add(s)
        elif isinstance(item, ExprItem):
            self.eval_value(item.expr, scope)
        else:
            raise FlattenError(f"unexpected item {type(item).__name__}")

    def do_assign(self, item: Assign, scope: _Scope) -> None:
        rhs = item.expr
        # 1. `x <- f args`: inlined once, in place or re-binding x
        f = scope.function(rhs)
        if isinstance(item.target, EName) and f is not None:
            self.assign_call(item, f, scope)
            return
        # 2. pure re-labeling: RHS is an existing value (or structural op)
        v = self.relabel_value(rhs, scope)
        if v is not None:
            if isinstance(item.target, EName):
                self._assign(scope, item.target.name, v, item.line)
                return
            # element re-label onto a fresh, unwritten slot
            tslot, arr, i = self.element_slot(item.target, scope)
            if (isinstance(v, _BitVal) and tslot in self.fresh
                    and tslot not in self.enforced and not self.branch_depth):
                arr.slots[i] = v.slot
                return
            # fall through to the compute path with the value already made
            # (evaluating an `if` again would build its multiplexer twice)
        # 3. computed assignment
        if self.branch_depth:
            raise FlattenError(
                "conditional branches may only re-label existing values",
                item.line)
        e = self.eval_scalar(rhs, scope) if v is None else self.bit_expr(v, rhs)
        if isinstance(item.target, EName):
            b = scope.get(item.target.name, FlattenError, item.line)
            cur = b[0].slot if isinstance(b[0], _BitVal) else None
            stripped = self.accumulator_strip(e, cur)
            if stripped is not None:
                self.write_slot(cur, stripped, item.line)
                self._assign(scope, item.target.name, _BitVal(cur), item.line)
            else:
                if cur in self.enforced:
                    raise FlattenError(_NOT_ACCUMULATING, item.line)
                self._assign(scope, item.target.name, _BitVal(self.compute(e)),
                             item.line)
        else:
            tslot, arr, i = self.element_slot(item.target, scope)
            stripped = self.accumulator_strip(e, tslot)
            if stripped is None and tslot in self.fresh:
                stripped = e  # it reads as 0 in its own write too (`emit`)
            if stripped is not None:
                self.write_slot(tslot, stripped, item.line)
            else:
                if tslot in self.enforced:
                    raise FlattenError(_NOT_ACCUMULATING, item.line)
                arr.slots[i] = self.compute(e)

    def element_slot(self, target: EIndex, scope: _Scope):
        arr = scope.get(target.name, FlattenError, target.line)[0]
        if not isinstance(arr, _ArrVal):
            raise FlattenError(f"{target.name!r} is not a bit array", target.line)
        i = self.eval_int(target.index, scope, target.line)
        if not 0 <= i < len(arr.slots):
            raise FlattenError(f"index {i} out of range for {target.name!r} "
                               f"(size {len(arr.slots)})", target.line)
        return arr.slots[i], arr, i

    def write_slot(self, slot: int, e: BoolExp, line: int) -> None:
        self.emit(Compute(slot, e, slot in self.fresh))
        self.fresh.discard(slot)

    def accumulator_strip(self, e: BoolExp, slot: int | None):
        """If e == Var(slot) ⊕ rest with slot nowhere in rest, return rest."""
        if slot is None:
            return None
        if e.op == "var" and e.args[0] == slot:
            return bconst(False)
        if e.op != "xor":
            return None
        hits = [a for a in e.args if a.op == "var" and a.args[0] == slot]
        if len(hits) != 1:
            return None
        rest = [a for a in e.args if not (a.op == "var" and a.args[0] == slot)]
        rest_e = bxor(rest) if rest else bconst(False)
        if slot in variables(rest_e):
            return None
        return rest_e

    def relabel_value(self, e, scope: _Scope):
        """Value of e if it is a pure re-labeling (no gates); else None."""
        if isinstance(e, (EName, EIndex, ESlice, EBool, EIf)) or (
                isinstance(e, EApp) and e.fn in (
                    "rot", "Array.append", "Array.concat", "Array.zeroCreate")):
            v = self.eval_value(e, scope)
            return v if isinstance(v, (_BitVal, _ArrVal, _ConstBitVal)) else None
        return None

    # -- in-place call assignment ------------------------------------------------
    def assign_call(self, item: Assign, f: _FuncVal, scope: _Scope) -> None:
        name = item.target.name
        b = scope.get(name, FlattenError, item.line)
        if not b[1]:
            raise FlattenError(f"assignment to immutable binding {name!r}",
                               item.line)
        args = [self.eval_value(a, scope) for a in item.expr.args]
        target = _slots_of(b[0]) or []
        ret = in_place_binding(f.defn, target,
                               [_slots_of(a) or [] for a in args], self.nested)
        if ret is None:  # out of place: plain inlining, re-bind the name
            value = self.inline_call(f, args, line=item.line)
            if isinstance(value, (_IntVal, _IntArrVal)):
                raise FlattenError(f"cannot assign non-bit value to {name!r}",
                                   item.line)
            self._assign(scope, name, value, item.line)
            return
        # in place: the body accumulates onto the target, which keeps its name
        sig = self.signature(f, target, args)
        tpl = self.templates.get(sig[0]) if sig is not None else None
        if tpl is not None and self.instantiate(tpl, sig[1]):
            return
        outer, self.stmts = self.stmts, []
        pre_slots, iterations, allocated = (self.slot_count, self.iterations,
                                            self.allocated)
        self.nested += 1
        self.enforced = set(target)
        self.inline_call(f, args, alias=(ret, target, item.line), line=item.line)
        self.nested -= 1
        self.enforced = set()
        body, self.stmts = self.stmts, outer
        locals_ = list(range(pre_slots, self.slot_count))
        block = InPlaceBlock.from_statements(
            target, body, locals_, sig[1] if sig is not None else ())
        self.validate_block(block, item.line, f.defn.name)
        self.emit(block)
        # a body that reached a slot outside its signature is not replayed
        if sig is not None and set(block.arg_slots) <= set(sig[1]):
            slots = block.slots
            self.templates[sig[0]] = _Template(
                block.token,
                tuple(p for p, s in enumerate(slots) if s in self.fresh),
                self.iterations - iterations, self.allocated - allocated)

    # -- in-place templates ------------------------------------------------------
    def signature(self, f: _FuncVal, target: list[int], args: list):
        """The template key of in-place call `f args` onto `target`, with
        the slots a template renames: the target's, the arguments' and the
        captured bits', in key order.  None if the call writes a name it
        does not bind.

        Two calls with one key inline to the same statements up to slot
        renaming: the key holds f (and so its result binding), each
        argument's kind and width or compile-time value, the value of every
        name f's body reads from its environment (for a function, the same
        again), which of the slots are one slot, and which are fresh
        (unwritten or cleaned).
        """
        slots = list(target)
        try:
            values = (tuple(self.value_key(v, slots, set()) for v in args),
                      self.function_key(f, slots, set()))
        except _NoTemplate:
            return None
        first: dict[int, int] = {}
        shared = tuple(first.setdefault(s, i) for i, s in enumerate(slots))
        fresh = tuple([s in self.fresh for s in slots])
        return (values, shared, fresh), slots

    def function_key(self, f: _FuncVal, slots: list, seen: set):
        """Key of function f: f itself and the values its body reads from
        f's environment; their bits join `slots`."""
        if f in seen:  # recursion: its values are in the key already
            return f
        seen.add(f)
        if id(f.defn) not in self.free_names:
            self.free_names[id(f.defn)] = _free_names(f.defn)
        names, writes = self.free_names[id(f.defn)]
        if writes:
            raise _NoTemplate()
        return f, tuple(self.value_key(b[0] if b is not None else None,
                                       slots, seen)
                        for b in map(f.env.lookup, names))

    def value_key(self, v, slots: list, seen: set):
        """Key of one value; the slots of a bit or bit array join `slots`."""
        if isinstance(v, _BitVal):
            slots.append(v.slot)
            return "bit"
        if isinstance(v, _ArrVal):
            slots.extend(v.slots)
            return "bits", len(v.slots)
        if isinstance(v, _FuncVal):
            return self.function_key(v, slots, seen)
        if isinstance(v, _ConstBitVal):
            return "const", v.value
        if isinstance(v, _IntVal):
            return "int", v.value
        if isinstance(v, _IntArrVal):
            return "ints", tuple(v.values)
        return None  # an unbound name

    def instantiate(self, tpl: _Template, slots: list[int]) -> bool:
        """Emit a block of `tpl`'s token on `slots` and new locals, as
        inlining its call would; False, emitting nothing, if that would
        pass a bound, so that inlining reports the error.  The block is
        not validated: its check would be the template's."""
        if (self.iterations + tpl.iterations > MAX_UNROLLED_ITERATIONS
                or self.allocated + tpl.allocated > MAX_ALLOCATED_BITS):
            return False
        base = self.slot_count
        self.slot_count += len(tpl.token.local_positions)
        self.iterations += tpl.iterations
        self.allocated += tpl.allocated
        block_slots = (*dict.fromkeys(slots), *range(base, self.slot_count))
        self.fresh.difference_update(slots)
        self.fresh.update([block_slots[p] for p in tpl.fresh_after])
        self.emit(InPlaceBlock(tpl.token, block_slots))
        return True

    @staticmethod
    def validate_block(block: InPlaceBlock, line, fname) -> None:
        """An in-place call must restore its arguments and zero its locals.

        Runs the block's body once over 64 packed lanes: every position
        but the locals gets lane 0 zero, lane 1 one and lanes 2-63 random,
        drawn in position order, so that blocks of one token get the same
        columns and the same verdict.
        """
        rng = random.Random(0xB10C)
        mask = (1 << 64) - 1
        token = block.token
        locals_ = set(token.local_positions)
        cols = [0 if p in locals_ else rng.getrandbits(62) << 2 | 0b10
                for p in range(len(block.slots))]
        before = [cols[p] for p in token.arg_positions]
        try:
            run_statements(token.stmts, cols, mask)
        except _NonZeroClean as exc:  # it names a body position
            named = _NonZeroClean(block.slots[exc.slot])
            raise FlattenError(
                f"in-place call of {fname!r}: {named}", line) from named
        if [cols[p] for p in token.arg_positions] != before:
            raise FlattenError(
                f"function {fname!r} used in an in-place update must "
                f"restore its arguments", line)
        if any(cols[p] for p in token.local_positions):
            raise FlattenError(
                f"function {fname!r} used in an in-place update leaves "
                f"non-zero local bits", line)

    # -- conditionals -------------------------------------------------------------
    def if_convert(self, e: EIf, scope: _Scope):
        cond = self.eval_scalar(e.cond, scope)
        if cond.op == "const":
            self.nested += 1
            value = self.run_block(e.then_block if cond.args[0] else e.else_block,
                                   _Scope(scope), want_value=True)
            self.nested -= 1
            return value
        cv = self.materialize(cond)
        c = self.read(cv.slot)

        def run_branch(block):
            """Run a branch, then undo its re-bindings and slot allocations;
            returns its value and the re-bound names with their new values.
            Names the branch binds itself die with its scope."""
            slot_count, fresh = self.slot_count, set(self.fresh)
            self.journal.append([])
            self.branch_depth += 1
            self.nested += 1
            value = self.run_block(block, _Scope(scope), want_value=True)
            self.branch_depth -= 1
            self.nested -= 1
            log = self.journal.pop()
            changes = [(binding, binding[0]) for binding, _old in log]
            for binding, old in reversed(log):
                binding[0] = old
            self.slot_count, self.fresh = slot_count, fresh
            return value, changes

        tval, tchanges = run_branch(e.then_block)
        eval_, echanges = run_branch(e.else_block)

        def mux_value(tv, ev, line):
            def parts(v):
                if isinstance(v, _ArrVal):
                    return [self.read(s) for s in v.slots]
                if isinstance(v, (_BitVal, _ConstBitVal)):
                    return [self.bit_expr(v, None)]
                raise FlattenError("branches must produce bit values", line)
            tp, ep = parts(tv), parts(ev)
            if len(tp) != len(ep):
                raise FlattenError("branches produce different widths", line)
            slots = [tx.args[0] if tx.op == "var" and tx == ex else
                     self.compute(bxor([band([c, tx]), band([c, ex]), ex]))
                     for tx, ex in zip(tp, ep)]
            if isinstance(tv, _ArrVal) or isinstance(ev, _ArrVal):
                return _ArrVal(slots)
            return _BitVal(slots[0])

        # merge re-bound names: value after then vs value after else
        merged: dict[int, list] = {}
        for side, changes in ((1, tchanges), (2, echanges)):
            for binding, value in changes:
                merged.setdefault(id(binding), [binding, binding[0], binding[0]])[side] = value
        for binding, tv, ev in merged.values():
            self._set(binding, mux_value(tv, ev, e.line))
        return mux_value(tval, eval_, e.line)

    # -- entry ---------------------------------------------------------------------
    def run(self) -> FlatProgram:
        scope = _Scope(None)
        for pname, pval in self.params.items():
            scope.bind(pname, _IntVal(pval))
        entry, final = _entry_point(self.program, scope, self.do_item,
                                    FlattenError)
        name, inputs, layout = "program", [], []
        if entry is None:
            value = self.eval_value(final, scope)
        else:
            name, line = entry.defn.name, entry.defn.line
            args = []
            for pname, ann in entry.defn.params:
                array = ann is not None and ann[0] == "array"
                if array and ann[1] is None:
                    raise FlattenError(
                        f"entry parameter {pname!r} needs a sized "
                        f"annotation like (x : bool[8])", line)
                n = self.eval_int(ann[1], scope, line) if array else 1
                self.allocated = _count_bits(self.allocated, n, FlattenError,
                                             line)
                slots = [self.new_slot() for _ in range(n)]
                inputs.extend(slots)
                args.append(_ArrVal(slots) if array else _BitVal(slots[0]))
                layout.append((pname, n))
            self.inputs = set(inputs)
            value = self.inline_call(entry, args, line=line)
        outputs = self.output_slots(value)
        return FlatProgram(name=name, input_slots=inputs,
                           output_slots=outputs, statements=self.stmts,
                           slot_count=self.slot_count, input_layout=layout)

    def output_slots(self, value) -> list[int]:
        slots = _slots_of(value)
        if slots is None:
            if not isinstance(value, _ConstBitVal):
                raise FlattenError("program output must be a bit or bit array")
            slots = [self.compute(bconst(value.value))]
        out: list[int] = []
        seen: set[int] = set()
        for s in slots:
            # outputs land on distinct wires, and a fresh slot has none:
            # copy, a fresh slot as the constant 0
            if s in seen or s in self.fresh:
                s = self.compute(self.read(s))
            seen.add(s)
            out.append(s)
        return out


def flatten(program, params: dict | None = None) -> FlatProgram:
    """Unroll, inline and slot-number a parsed program (idempotent)."""
    if isinstance(program, FlatProgram):
        return program
    fl = Flattener(program, params)
    try:
        return fl.run()
    except RecursionError:
        # calls or expressions nested past Python's stack, e.g. a long
        # chain of functions each calling the one before
        raise FlattenError("program nests too deeply", fl.line) from None


# ---------------------------------------------------------------------------
# Direct AST-walking interpreter (cross-check on flatten + interpret)


class _Box:
    """One wire; `fresh` while it is an unwritten Array.zeroCreate bit or
    a `clean`ed one."""
    __slots__ = ("v", "fresh")

    def __init__(self, v: int = 0, fresh: bool = False):
        self.v = v & 1
        self.fresh = fresh


def _boxes(v) -> list:
    """The boxes a value holds: a bit, a bit array, or none."""
    if isinstance(v, _Box):
        return [v]
    if isinstance(v, list) and all(isinstance(x, _Box) for x in v):
        return v
    return []


class SourceInterpreter:
    """Big-step evaluator over the AST with the same conventions as flatten:
    pure ops share storage (boxes), in-place calls (`in_place_binding`) bind
    the callee's result buffer to the target's boxes, conditionals take the
    live branch."""

    def __init__(self, program: Program, params: dict | None = None):
        self.program = program
        self.params = dict(program.pragmas)
        if params:
            self.params.update(params)
        self.nested = 0  # >0: inside an in-place body or an if-branch
        self.enforced: set = set()  # in-place target boxes
        self.iterations = 0  # loop iterations run so far
        self.allocated = 0  # bits allocated by arrays and entry parameters
        self.active: set[int] = set()  # id(LetDef) of the calls running
        self.line: int | None = None  # of the item being run

    # value model: int | list[int] (compile-time) | _Box | list[_Box] | closure
    def run(self, inputs) -> list[int]:
        scope = _Scope(None)
        for k, v in self.params.items():
            scope.bind(k, v)
        entry, final = _entry_point(self.program, scope, self.do_item,
                                    InterpretError)
        if entry is None:
            if inputs:
                raise InterpretError("program takes no inputs")
            value = self.eval(final, scope)
        else:
            args = []
            pos = 0
            for pname, ann in entry.defn.params:
                array = ann is not None and ann[0] == "array"
                n = self.eval_int(ann[1], scope) if array else 1
                self.allocated = _count_bits(self.allocated, n, InterpretError,
                                             entry.defn.line)
                boxes = [_Box(b) for b in inputs[pos:pos + n]]
                # too few inputs leave `boxes` short: the count check says so
                args.append(boxes if array or not boxes else boxes[0])
                pos += n
            if pos != len(inputs):
                raise InterpretError(f"expected {pos} input bits, got {len(inputs)}")
            value = self.call(entry, args)
        if isinstance(value, _Box):
            return [value.v]
        if isinstance(value, bool):
            return [int(value)]
        return [b.v if isinstance(b, _Box) else int(b) for b in value]

    def eval_int(self, e, scope) -> int:
        v = self.eval(e, scope)
        if isinstance(v, bool) or not isinstance(v, int):
            raise InterpretError("expected a compile-time integer")
        return v

    def eval_bit(self, e, scope) -> int:
        v = self.eval(e, scope)
        if isinstance(v, _Box):
            return v.v
        if isinstance(v, bool):
            return int(v)
        raise InterpretError("expected a bit value")

    def eval(self, e, scope):
        if isinstance(e, EInt):
            return e.value
        if isinstance(e, EBool):
            return e.value
        if isinstance(e, EArrayLit):
            return [self.eval_int(x, scope) for x in e.items]
        if isinstance(e, EName):
            v = scope.get(e.name, InterpretError, e.line)[0]
            return list(v) if isinstance(v, list) and v and isinstance(v[0], _Box) else v
        if isinstance(e, ENot):
            return _Box(1 ^ self.eval_bit(e.arg, scope))
        if isinstance(e, EBin):
            if e.op in "+-*/%":
                return _int_chain(e, lambda x: self.eval_int(x, scope),
                                  InterpretError)
            bits = [self.eval_bit(x, scope) for x in _chain(e)]
            if e.op == "&&":
                return _Box(all(bits))
            if e.op == "||":
                return _Box(any(bits))
            return _Box(sum(bits))
        if isinstance(e, EIndex):
            v = scope.get(e.name, InterpretError, e.line)[0]
            i = self.eval_int(e.index, scope)
            if isinstance(v, list):
                return v[i]
            raise InterpretError(f"{e.name!r} is not an array", e.line)
        if isinstance(e, ESlice):
            v = scope.get(e.name, InterpretError, e.line)[0]
            if not isinstance(v, list):
                raise InterpretError(f"{e.name!r} is not an array", e.line)
            lo, hi = self.eval_int(e.lo, scope), self.eval_int(e.hi, scope)
            return v[lo:hi + 1]
        if isinstance(e, EApp):
            return self.eval_app(e, scope)
        if isinstance(e, EIf):
            block = e.then_block if self.eval_bit(e.cond, scope) else e.else_block
            self.nested += 1
            value = self.run_block(block, _Scope(scope), True)
            self.nested -= 1
            return value
        if isinstance(e, EList):
            raise InterpretError(_LIST_ONLY_IN_CONCAT, e.line)
        raise InterpretError(f"cannot evaluate {type(e).__name__}")

    def eval_app(self, e: EApp, scope):
        fn = e.fn
        if fn == "Array.zeroCreate":
            n = self.eval_int(e.args[0], scope)
            self.allocated = _count_bits(self.allocated, n, InterpretError,
                                         e.line)
            return [_Box(fresh=True) for _ in range(n)]
        if fn == "Array.append":
            a, b = self.eval(e.args[0], scope), self.eval(e.args[1], scope)
            return list(a) + list(b)
        if fn == "Array.concat":
            out = []
            for x in e.args[0].items:
                out.extend(self.eval(x, scope))
            return out
        if fn == "Array.length":
            return len(self.eval(e.args[0], scope))
        if fn == "rot":
            k = self.eval_int(e.args[0], scope)
            a = self.eval(e.args[1], scope)
            n = len(a)
            return [a[(i + k) % n] for i in range(n)]
        if fn in ("int", "float"):
            return self.eval(e.args[0], scope)
        if fn == "sqrt":
            return _int_sqrt(self.eval_int(e.args[0], scope), InterpretError,
                             e.line)
        if fn == "__block__":
            return self.call(_FuncVal(e.args[0], scope), [])
        f = scope.function(e)
        if f is None:
            raise InterpretError(f"unknown function {fn!r}", e.line)
        return self.call(f, [self.eval(a, scope) for a in e.args], line=e.line)

    def call(self, f: _FuncVal, args, alias=None, line=None):
        """Run f once; `alias` = (result binding, target boxes, call line)
        binds the result buffer to the in-place target."""
        scope = _Scope(f.env)
        for (pname, _ann), v in zip(f.defn.params, args):
            if isinstance(v, bool):
                v = _Box(int(v))
            scope.bind(pname, v, isinstance(v, list))
        with _entering(self.active, f.defn, InterpretError, line):
            return self.run_block(f.defn.body, scope, True, alias)

    def run_block(self, block: Block, scope, want_value, alias=None):
        value = None
        for item in block.items:
            self.line = item.line
            if isinstance(item, ExprItem):
                value = self.eval(item.expr, scope)
            elif alias is not None and item is alias[0]:
                ret, target, line = alias
                n = self.eval_int(ret.expr.args[0], scope)
                _check_width(ret, n, target, line, InterpretError)
                scope.bind(ret.name, list(target), True)
            else:
                self.do_item(item, scope)
        if want_value and value is None:
            raise InterpretError("block does not end in an expression")
        return value

    def do_item(self, item, scope):
        self.line = item.line
        if isinstance(item, LetDef):
            scope.bind(item.name, _FuncVal(item, scope))
        elif isinstance(item, LetBind):
            v = self.eval(item.expr, scope)
            if isinstance(v, bool):
                v = _Box(int(v))
            scope.bind(item.name, v, item.mutable or isinstance(v, list))
        elif isinstance(item, Assign):
            self.do_assign(item, scope)
        elif isinstance(item, ForLoop):
            lo, hi = self.eval_int(item.lo, scope), self.eval_int(item.hi, scope)
            self.iterations = _count_iterations(self.iterations, lo, hi,
                                                InterpretError, item.line)
            for i in range(lo, hi + 1):
                inner = _Scope(scope)
                inner.bind(item.var, i)
                self.run_block(item.body, inner, False)
        elif isinstance(item, CleanStmt):
            v = scope.get(item.name, InterpretError, item.line)[0]
            boxes = [v] if isinstance(v, _Box) else v
            if not isinstance(boxes, list):
                raise InterpretError(f"clean of non-bit value {item.name!r}",
                                     item.line)
            for box in boxes:
                if box.v != 0:
                    raise InterpretError(f"clean of non-zero value "
                                         f"{item.name!r}", item.line)
                box.fresh = True  # as in flatten: unwritten again
        elif isinstance(item, ExprItem):
            self.eval(item.expr, scope)

    def accumulates(self, box: _Box, rhs, scope) -> bool:
        """As flatten's accumulator_strip: `rhs` reads `box` once, in its
        top-level `<>` chain."""
        return [top for e, top in _reads(rhs)
                if self.eval(e, scope) is box] == [True]

    def do_assign(self, item: Assign, scope):
        rhs = item.expr
        if isinstance(item.target, EIndex):
            arr = scope.get(item.target.name, InterpretError, item.line)[0]
            if not isinstance(arr, list):
                raise InterpretError(f"{item.target.name!r} is not an array",
                                     item.line)
            i = self.eval_int(item.target.index, scope)
            v = self.eval(rhs, scope)
            box, bit = arr[i], v.v if isinstance(v, _Box) else int(v)
            # as in flatten: an unwritten element re-labeled to a bit shares
            # its wire; the write is in place on an unwritten or target wire
            # or when it accumulates, else the element gets a new wire
            if (box.fresh and box not in self.enforced and isinstance(v, _Box)
                    and isinstance(rhs, (EName, EIndex))):
                arr[i] = v
            elif (box.fresh or box in self.enforced
                    or self.accumulates(box, rhs, scope)):
                box.v, box.fresh = bit, False
            else:
                arr[i] = _Box(bit)
            return
        name = item.target.name
        b = scope.get(name, InterpretError, item.line)
        if not b[1]:
            raise InterpretError(f"assignment to immutable binding {name!r}",
                                 item.line)
        # in-place call convention
        f = scope.function(rhs)
        if f is None:
            v = self.eval(rhs, scope)
        else:
            args = [self.eval(a, scope) for a in rhs.args]
            target = _boxes(b[0])
            ret = in_place_binding(f.defn, target, [_boxes(a) for a in args],
                                   self.nested)
            if ret is not None:  # in place: the target keeps its name
                self.nested += 1
                self.enforced = set(target)
                self.call(f, args, alias=(ret, target, item.line),
                          line=item.line)
                self.nested -= 1
                self.enforced = set()
                return
            v = self.call(f, args, line=item.line)
        if isinstance(v, bool):
            v = _Box(int(v))
        if isinstance(b[0], _Box) and self.accumulates(b[0], rhs, scope):
            # as in flatten: the write lands on the wire the name holds
            b[0].v, b[0].fresh = v.v, False
        else:
            b[0] = v


def interpret_source(program: Program, inputs, params: dict | None = None) -> list[int]:
    it = SourceInterpreter(program, params)
    try:
        return it.run(inputs)
    except RecursionError:
        raise InterpretError("program nests too deeply", it.line) from None
