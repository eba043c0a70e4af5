"""Frontend for the `.rev` language: lexer, parser, the walk, interpreters.

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

`flatten` and `interpret_source` are one walk of the AST, `_Walker`,
over two value domains.  In both a bit is a numbered slot, which
re-labels share, so the rules below, the bounds and every error check
are one code path, raised as the domain's error class.  A domain
supplies only what a slot holds: `Flattener` a BoolExp over slots,
emitted as statements; `SourceInterpreter` a 0 or 1, on one input.  The
walk runs the top-level items in order, then a final expression naming a
function, or with no final expression the last function defined, takes
the program's inputs as its parameters; any other final expression is
the output, and a program with neither is an error.

Agreement of the two domains cannot test the rules they share: the
tests' hand-worked tables do.  It tests flatten's own machinery, which
`interpret_source` never runs: the BoolExp simplifier, templates and
replays, in-place blocks and their validation, `read_before` and the
`x ^= rest` decomposition.  `run_statements` is the one, bit-sliced
evaluator of flat statements (one sample per bit of a Python int);
`interpret_packed` runs a FlatProgram through it and is the ground-truth
oracle of circuit verification.

The in-place convention: `x <- f args` *accumulates* onto `x` (e.g.
`h <- add h'` means `h += h'`) when `in_place_binding` accepts the call.
The walk asks it once, before inlining, and the rule is syntactic: `f`
returns a body-level `let r = Array.zeroCreate n`, every write to `r`
has the same element as one operand of its top-level `<>` chain and `r`
nowhere else on the right; `x` holds bits that no argument shares; the
call is not nested in an in-place body or an `if` branch.  The call is
then inlined once with `r` bound to `x`'s slots, otherwise once out of
place, re-binding `x`.  Nothing is rolled back: an accepted body that
breaks the contract (a width other than `x`'s, a write into `x` that
does not accumulate, arguments not restored, locals not zeroed) is an
error with a line.

The flattener inlines a call from the AST only once per call signature,
in place or not, and records what it emitted as a template
(`Flattener.call`): its statements and its value over positions (the
signature's distinct slots, then the slots the call allocated), the
positions fresh after it, and what it added to the unrolling and
allocation counts.  A later call with the same signature renames the
template's statements onto its own slots and new locals, taken in the
order inlining would take them, without walking the AST; a block keeps
its token, so an in-place call is the case whose statements are one
block.  The signature holds everything the inline depends on: the
function value, each argument's kind and width (a constant bit or
compile-time integer by value), the value of every name the body reads
before binding it (found once per definition by `_free_names`; a captured
function adds its own such names, a captured bit or array its slots),
which of all those slots are one slot, which are fresh (see below) and
which are in-place targets being accumulated onto, and whether the call
is inside an in-place body or an `if`.  A body that assigns a name it does
not bind is never recorded, nor is a call in an `if` branch or one that
touched a slot outside its positions; a replay that would pass the
unrolling or allocation bound, re-enter a running function or `clean` an
entry input inlines instead, so that the error is the same.  An in-place
call's block is validated when it is inlined; a replay is not, since its
check, drawn per body position, would be the template's bit for bit.

An unwritten `Array.zeroCreate` slot is the constant 0, and a `clean`ed
slot is fresh again: `clean` emits a `CleanSlot` for each of its slots
that is not fresh already and makes them fresh.  A `clean` that reaches
an entry input's slot, by its name or through a re-label, is a one-line
error: the input's wire belongs to the circuit.  An expression reads a
fresh slot as 0 (`read`), at top level and in in-place bodies, so the
slot's next write is a fresh write (`fresh=True`) and no flattened
statement reads a slot with no wire; a fresh output slot is written as
the constant 0.  An operator's value is a new slot, as the source makes
a new bit, also when it folds to an operand (`a && a`) or a constant
(`a <> a`), so it is never such a re-label.  A constant is a value,
never a bit.

One rule decides every other assignment, `x <- rhs` or `x.[i] <- rhs`
(`writes_in_place`): the write lands on the bit x held before rhs ran
when x still holds it (a call in rhs may re-bind x), exactly one read of
rhs returned that bit, and that read is an operand of rhs's top-level
`<>` chain.  The walk records the bit that each name or element read
returns as it evaluates it, so no read is evaluated twice.  An unwritten
element that still holds its bit is written in place as well, and a
plain re-label (`x <- y`) re-binds x; any other write re-binds x, or the
element, to a new bit.  Flatten writes in place as `x ^= rest` when the
expression is `x ^ rest`, and otherwise through a new slot, `d := e ^ x`
then `x ^= d`.

One rule decides an `if` (`if_value`): a constant condition (`true`,
`false`, or a name, call or `if` holding one) runs its live branch as a
block; any other is a bit, whatever flatten's simplifier folds it to,
and both branches run re-labeling only (a write, `clean` or new bit in
one is an error with its line).  The `if`'s value and each name bound
before it that a branch re-bound become new bits holding the live
branch's value.  On the right of `<-` an `if` re-labels (`relabels`).

The source reads each operand of `&&`, `||` and `<>` when it reaches it.
When a later operand emits statements (a call, or the branch of a
constant `if`) that write or `clean` a slot an earlier operand read,
flatten copies that slot to a new one ahead of those statements
(`read_before`); no corpus program does this.  A write in place onto
such a slot reads its old value from the copy, so it takes the new-slot
path.

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
hang: the parser bounds nesting at MAX_NESTING levels, the walk rejects
a call to a function that is already running and turns a stack overflow
into an error at the item being run, and flatten rejects an `&&` or `||`
chain whose synthesis would pass MAX_STATEMENT_GATES gates.  A chain of
one operator (`&&`, `||` or `<>`) is gathered with an explicit stack
(`_chain`) and evaluated in one call, and an integer chain (`+ -` or
`* / %`) folds its left spine in a loop (`_int_chain`), so a chain's
length costs no stack depth; `||` lowers all its operands at once (see
`bor`).
"""

from __future__ import annotations

import itertools
import math
import random
import re
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
    # each read of expr, with whether it is a top-level `<>` operand
    # (`_reads`), for `writes_in_place`
    reads: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.reads = list(_reads(self.expr))


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


# name -> number of arguments; a builtin's name cannot be re-bound
BUILTINS = {"Array.zeroCreate": 1, "Array.append": 2, "Array.concat": 1,
            "Array.length": 1, "rot": 2, "int": 1, "sqrt": 1, "float": 1}

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
            if len(args) != BUILTINS.get(e.name, len(args)):
                raise ParseError(f"{e.name} expects {BUILTINS[e.name]} "
                                 f"argument(s), got {len(args)}", e.line)
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
# The walk: scopes and values


class _Scope:
    def __init__(self, parent: "_Scope | None"):
        self.vars: dict[str, list] = {}  # name -> [value, mutable, serial]
        self.parent = parent
        # one count of bindings per walk: a bit-`if` merges only the names
        # bound before it began
        self.serials = parent.serials if parent else itertools.count()

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
        self.vars[name] = [value, mutable, next(self.serials)]

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


# Bound on the loop iterations one program may unroll, summed over every
# loop it runs (a loop in a function runs again at each call).  The
# bundled corpus peaks at 35136 (sha2.rev with all 64 rounds).  A loop that
# would pass the bound is an error before its first iteration; reaching
# the bound through many smaller loops takes a few seconds.
MAX_UNROLLED_ITERATIONS = 1_000_000


# Bound on the bits one program may allocate, summed over every
# `Array.zeroCreate` it runs and its entry parameters.  The bundled corpus
# peaks at 8960 (sha2.rev with all 64 rounds).  An allocation that would
# pass the bound is an error before any of its bits exist.
MAX_ALLOCATED_BITS = 100_000


def _slots_of(v) -> list[int] | None:
    if isinstance(v, _BitVal):
        return [v.slot]
    if isinstance(v, _ArrVal):
        return list(v.slots)
    return None


# ---------------------------------------------------------------------------
# The in-place and re-label rules of the walk (`_Walker`, which also holds
# the `if` rule, `if_value`)


def in_place_binding(defn: LetDef, target: list, args: list, nested: int,
                     results: dict):
    """Decide `x <- f args` before inlining: f's result binding if the call
    accumulates onto `x`, None if it re-binds `x`.

    `target` is x's slots, `args` the slots of each argument, `nested`
    non-zero inside an in-place body or an `if` branch.  f must return a
    body-level `let r = Array.zeroCreate n` whose every write accumulates;
    that half of the rule depends on f alone, and `results` caches it by
    `id(defn)`.
    """
    if nested or not target:
        return None
    bits = set(target)
    if any(not bits.isdisjoint(a) for a in args):
        return None
    if id(defn) not in results:
        results[id(defn)] = _in_place_result(defn)
    return results[id(defn)]


def writes_in_place(item: Assign, bit, reads: dict) -> bool:
    """Decide `x <- rhs`, after rhs ran: whether the write lands on `bit`,
    the bit x held before rhs ran and still holds (None if it holds none).

    It does when exactly one read of rhs returned that bit and the read is
    an operand of rhs's top-level `<>` chain (`item.reads`).  `reads` maps
    the id of each name or element read to the bit it returned when it
    last ran (None if not a bit): the walk records it as it evaluates the
    read, so that no read is evaluated twice.
    """
    if bit is None:
        return False
    return [top for e, top in item.reads if reads.get(id(e)) == bit] == [True]


def _in_place_result(defn: LetDef):
    """f's body-level `let r = Array.zeroCreate n` that it returns, if every
    write to r accumulates; else None."""
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


_BRANCH_RELABELS = "conditional branches may only re-label existing values"


def relabels(e) -> bool:
    """`x <- e` re-labels: e computes no bit of its own."""
    return isinstance(e, (EName, EIndex, ESlice, EBool, EIf)) or (
        isinstance(e, EApp) and e.fn in (
            "rot", "Array.append", "Array.concat", "Array.zeroCreate"))


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


def _substituted(e: BoolExp, m: dict[int, BoolExp]) -> BoolExp:
    """e with the variable of every slot s in `m` replaced by m[s], folded
    again; e itself if it reads none of them."""
    if e.op == "var":
        return m.get(e.args[0], e)
    if e.op == "const":
        return e
    args = [_substituted(a, m) for a in e.args]
    if all(a is b for a, b in zip(args, e.args)):
        return e
    if e.op == "not":
        return negate(args[0])
    return (band if e.op == "and" else bxor)(args)


_ZERO = bconst(False)


class _Leaves(dict):
    """The variable of slot m[s], for each slot s read, built on first
    use; a slot that `m` lacks raises KeyError."""
    __slots__ = ("m",)

    def __init__(self, m):
        self.m = m

    def __missing__(self, s: int) -> BoolExp:
        v = self[s] = bvar(self.m[s])
        return v


def _renamed_stmts(stmts, m) -> list:
    """Flat statements with every slot s renamed to m[s], `m` a dict or a
    sequence indexed by slot; a block keeps its token.  KeyError if `m`
    lacks a slot they touch."""
    leaves = _Leaves(m)
    out = []
    for s in stmts:
        if type(s) is Compute:
            out.append(Compute(m[s.slot], _renamed(s.expr, leaves), s.fresh))
        elif type(s) is CleanSlot:
            out.append(CleanSlot(m[s.slot]))
        else:
            out.append(InPlaceBlock(s.token, tuple([m[x] for x in s.slots])))
    return out


def _value_renamed(v, m):
    """Value v with every slot s renamed to m[s] (KeyError if `m` lacks
    one); a value without slots is itself."""
    if isinstance(v, _BitVal):
        return _BitVal(m[v.slot])
    if isinstance(v, _ArrVal):
        return _ArrVal([m[s] for s in v.slots])
    return v


def _written(stmts, kind=(Compute, CleanSlot)) -> set[int]:
    """The slots that flat statements of `kind` (by default, any) write
    or clean, a block's body statements counting on its slots."""
    out: set[int] = set()
    for s in stmts:
        if type(s) is InPlaceBlock:
            out.update([s.slots[x.slot] for x in s.token.stmts
                        if isinstance(x, kind)])
        elif isinstance(s, kind):
            out.add(s.slot)
    return out


@dataclass
class _Template:
    """A flattened call, replayed for later calls of its signature.

    Positions number the call's slots: the slots of its signature,
    distinct and in key order, then the slots it allocated, its locals.
    `stmts` are the statements it emitted and `value` its value (None in
    place), both over positions; `fresh_after` are the positions of the
    slots that are fresh (unwritten or cleaned) after it, and `cleans`
    those of the signature's slots that it cleans.  `entered` are the ids
    of the definitions it inlined, and `iterations` and `allocated` what
    it added to the unrolling and allocation counters.
    """
    stmts: list
    value: object
    fresh_after: tuple
    cleans: tuple
    locals: int
    entered: frozenset
    iterations: int
    allocated: int


class _NoTemplate(Exception):
    """The call writes a name it does not bind: it cannot be replayed."""


_LIST_ONLY_IN_CONCAT = "a list [a; ...] is only allowed as the argument of Array.concat"
_NOT_ACCUMULATING = "a write into an in-place target must accumulate (t <- t <> e)"


# ---------------------------------------------------------------------------
# The walk


class _Walker:
    """The one walk of a parsed program, over a value domain: `Flattener`
    (a slot holds a BoolExp's statements) or `SourceInterpreter` (a slot
    holds a bit).

    In both domains a bit is a numbered slot, which re-labels share:
    `fresh` holds the unwritten and cleaned ones, `inputs` the entry
    parameters' and `enforced` the in-place target's being accumulated
    onto.  The rules and every error check are here, raised as the
    domain's `error`.  A domain supplies what a slot holds:

      const(v), read(slot)     the bit expression of a constant, a slot
      chain(op, args, line)    the `&&`, `||` or `<>` of bit expressions
      put(slot, e)             e on a new slot (`compute`)
      write_in_place(slot, e)  e onto a slot a target holds
      clean_slot(slot, item)   release a slot that is not fresh
      load(slots)              the entry slots' input values

    and may override `call` and `inline_in_place` (flatten's templates and
    blocks), and `mark` with `read_before` (see `eval_scalar`).
    """
    error = FrontendError

    def __init__(self, program: Program, params: dict | None = None):
        self.program = program
        self.params = dict(program.pragmas)
        if params:
            self.params.update(params)
        self.slot_count = 0
        # unwritten Array.zeroCreate slots and cleaned ones: they read as 0
        self.fresh: set[int] = set()
        # id of each name or element read -> its slot, or None (`writes_in_place`)
        self.reads: dict[int, int | None] = {}
        self.inputs: set[int] = set()  # the entry parameters' slots
        self.enforced: set[int] = set()  # in-place target: accumulate only
        self.nested = 0  # >0: inside an in-place body or an if-branch
        self.branch_depth = 0  # >0: inside an if-branch, re-labelings only
        self.journal: list[list] = []  # per open branch: (binding, old value)
        self.iterations = 0  # loop iterations unrolled so far
        self.allocated = 0  # bits allocated by arrays and entry parameters
        self.active: set[int] = set()  # id(LetDef) of the calls running
        self.entered: list[int] = []  # id(LetDef) of every call inlined
        self.line: int | None = None  # of the item being run
        self.results: dict = {}  # id(LetDef) -> _in_place_result()

    def mark(self) -> int:
        """The count of statements emitted so far (flatten's)."""
        return 0

    def load(self, slots: list[int]) -> None:
        """Give the entry slots the program's inputs (the interpreter's)."""

    # -- slots ----------------------------------------------------------------
    def new_slot(self) -> int:
        s = self.slot_count
        self.slot_count += 1
        return s

    def new_slots(self, n: int, line) -> list[int]:
        """An array's n new slots, within MAX_ALLOCATED_BITS."""
        if n < 0:
            raise self.error("negative array size", line)
        self.allocated += n
        if self.allocated > MAX_ALLOCATED_BITS:
            raise self.error(f"arrays allocate more than "
                             f"{MAX_ALLOCATED_BITS} bits", line)
        return [self.new_slot() for _ in range(n)]

    def compute(self, e) -> int:
        """A new slot holding bit expression e; a bit-`if` branch makes
        none."""
        if self.branch_depth:
            raise self.error(_BRANCH_RELABELS, self.line)
        s = self.new_slot()
        self.put(s, e)
        return s

    def mutable(self, scope: _Scope, name: str, line: int) -> list:
        """The binding of `name`, which an assignment re-binds."""
        binding = scope.get(name, self.error, line)
        if not binding[1]:
            raise self.error(f"assignment to immutable binding {name!r}", line)
        return binding

    def rebind(self, binding: list, value) -> None:
        """Re-bind an existing name, journalled inside a bit-`if` branch."""
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
                              self.error)
        elif isinstance(e, EIndex):
            v = scope.lookup(e.name)
            if v is not None and isinstance(v[0], _IntArrVal):
                values, i = v[0].values, self.eval_int(e.index, scope, line)
                if not 0 <= i < len(values):
                    raise self.error(f"index {i} out of range for {e.name!r}"
                                     f" (size {len(values)})", e.line)
                return values[i]
        elif isinstance(e, EApp):
            if e.fn in ("int", "float"):
                return self.eval_int(e.args[0], scope, line)
            if e.fn == "sqrt":  # through a float, then truncated
                x = self.eval_int(e.args[0], scope, line)
                if x < 0:
                    raise self.error("sqrt of a negative number", e.line)
                try:
                    return int(math.sqrt(x))
                except OverflowError:
                    raise self.error("sqrt argument is too large",
                                     e.line) from None
            if e.fn == "Array.length":
                v = self.eval_value(e.args[0], scope)
                if isinstance(v, _ArrVal):
                    return len(v.slots)
                if isinstance(v, _IntArrVal):
                    return len(v.values)
                raise self.error("Array.length of a non-array", e.line)
        raise self.error("bound or index is not a compile-time integer", line)

    # -- bit expressions -------------------------------------------------------
    def eval_scalar(self, e, scope: _Scope):
        """Expression in bit context, as the domain's bit expression.  An
        operand is read when it is reached: when a later operand emits
        statements (`mark` moved), flatten's `read_before` copies what
        they overwrite."""
        if isinstance(e, EBool):
            return self.const(e.value)
        if isinstance(e, ENot):
            return self.chain("<>", [self.eval_scalar(e.arg, scope),
                                     self.const(True)], None)
        if isinstance(e, EBin):
            if e.op in ("&&", "||", "<>"):
                # one call per chain of one operator: `||` lowers all its
                # operands at once, and the chain's length costs no depth
                args = []
                for x in _chain(e):
                    start = self.mark()
                    a = self.eval_scalar(x, scope)
                    if args and self.mark() != start:
                        args = self.read_before(args, start)
                    args.append(a)
                return self.chain(e.op, args, e.line)
            raise self.error(f"integer operator {e.op!r} in bit context",
                             e.line)
        return self.bit_expr(self.eval_value(e, scope), e)

    def bit_expr(self, v, e):
        """The bit expression of value v, which expression e evaluated to."""
        if type(v) is _BitVal:
            return self.read(v.slot)
        if type(v) is _ConstBitVal:
            return self.const(v.value)
        raise self.error("expected a bit-valued expression",
                         getattr(e, "line", 0) or self.line)

    # -- general values -------------------------------------------------------
    def eval_value(self, e, scope: _Scope):
        if isinstance(e, EBool):
            return _ConstBitVal(e.value)
        if isinstance(e, EArrayLit):
            return _IntArrVal([self.eval_int(x, scope, e.line)
                               for x in e.items])
        if isinstance(e, EName):
            v = scope.get(e.name, self.error, e.line)[0]
            if isinstance(v, _ArrVal):
                v = _ArrVal(v.slots)
            self.reads[id(e)] = v.slot if type(v) is _BitVal else None
            return v
        if isinstance(e, EIndex):
            v = scope.get(e.name, self.error, e.line)[0]
            if isinstance(v, _IntArrVal):
                self.reads[id(e)] = None
                return _IntVal(self.eval_int(e, scope, e.line))
            i = self.eval_int(e.index, scope, e.line)
            if isinstance(v, _ArrVal):
                if not 0 <= i < len(v.slots):
                    raise self.error(f"index {i} out of range for {e.name!r}"
                                     f" (size {len(v.slots)})", e.line)
                self.reads[id(e)] = v.slots[i]
                return _BitVal(v.slots[i])
            raise self.error(f"{e.name!r} is not an array", e.line)
        if isinstance(e, ESlice):
            v = scope.get(e.name, self.error, e.line)[0]
            if not isinstance(v, _ArrVal):
                raise self.error(f"{e.name!r} is not a bit array", e.line)
            lo = self.eval_int(e.lo, scope, e.line)
            hi = self.eval_int(e.hi, scope, e.line)
            if not (0 <= lo and hi < len(v.slots)):
                raise self.error(f"slice [{lo}..{hi}] out of range for "
                                 f"{e.name!r} (size {len(v.slots)})", e.line)
            return _ArrVal(v.slots[lo:hi + 1])
        if isinstance(e, EApp):
            return self.eval_app(e, scope)
        if isinstance(e, EIf):
            c = self.eval_value(e.cond, scope)
            return self.if_value(e, scope, c.value if type(c) is _ConstBitVal
                                 else self.bit_expr(c, e.cond))
        if isinstance(e, (EBin, ENot)):
            if isinstance(e, EBin) and e.op in "+-*/%":
                return _IntVal(self.eval_int(e, scope, e.line))
            # an operator's value is a new bit, as in the source, also when
            # it folds to an operand (`a && a`) or a constant (`a <> a`): a
            # later write or `clean` of it must not reach another name
            return _BitVal(self.compute(self.eval_scalar(e, scope)))
        if isinstance(e, EInt):
            return _IntVal(e.value)
        if isinstance(e, EList):
            raise self.error(_LIST_ONLY_IN_CONCAT, e.line)
        raise self.error(f"cannot evaluate {type(e).__name__}", self.line)

    def eval_app(self, e: EApp, scope: _Scope):
        fn = e.fn
        if fn == "Array.zeroCreate":
            slots = self.new_slots(self.eval_int(e.args[0], scope, e.line),
                                   e.line)
            self.fresh.update(slots)
            return _ArrVal(slots)
        if fn == "Array.append":
            a = self.eval_value(e.args[0], scope)
            b = self.eval_value(e.args[1], scope)
            if not isinstance(a, _ArrVal) or not isinstance(b, _ArrVal):
                raise self.error("Array.append expects bit arrays", e.line)
            return _ArrVal(a.slots + b.slots)
        if fn == "Array.concat":
            (arg,) = e.args
            if not isinstance(arg, EList):
                raise self.error("Array.concat expects [a; b; ...]", e.line)
            out: list[int] = []
            for item in arg.items:
                v = self.eval_value(item, scope)
                if not isinstance(v, _ArrVal):
                    raise self.error("Array.concat expects bit arrays", e.line)
                out.extend(v.slots)
            return _ArrVal(out)
        if fn == "rot":
            k = self.eval_int(e.args[0], scope, e.line)
            v = self.eval_value(e.args[1], scope)
            if not isinstance(v, _ArrVal):
                raise self.error("rot expects a bit array", e.line)
            n = len(v.slots)
            return _ArrVal([v.slots[(i + k) % n] for i in range(n)])
        if fn in ("Array.length", "int", "sqrt", "float"):
            return _IntVal(self.eval_int(e, scope, e.line))
        if fn == "__block__":
            # desugared multi-statement binding body
            return self.inline_call(_FuncVal(e.args[0], scope), [])
        f = scope.function(e)
        if f is None:
            raise self.error(f"unknown function {fn!r}", e.line)
        args = [self.eval_value(a, scope) for a in e.args]
        return self.call(f, args, e.line)

    # -- calls -----------------------------------------------------------------
    def call(self, f: _FuncVal, args: list, line: int, target=(), ret=None):
        """Run call `f args`, in place onto `target` if `ret` (f's result
        binding) is given, and return its value (None in place)."""
        if ret is None:
            return self.inline_call(f, args, line=line)
        self.inline_in_place(f, args, target, ret, line)
        return None

    def inline_in_place(self, f: _FuncVal, args: list, target: list[int],
                        ret: LetBind, line: int) -> None:
        """Inline f with its result `ret` bound to `target`, whose bits take
        only accumulating writes meanwhile."""
        self.nested += 1
        self.enforced = set(target)
        self.inline_call(f, args, alias=(ret, target, line), line=line)
        self.nested -= 1
        self.enforced = set()

    def inline_call(self, f: _FuncVal, args: list, alias=None, line=0):
        """Inline f once; `alias` = (result binding, target slots, call
        line) binds the result buffer to the in-place target."""
        defn = f.defn
        if len(args) != len(defn.params):
            raise self.error(f"{defn.name or '<block>'} expects "
                             f"{len(defn.params)} argument(s), got {len(args)}",
                             line)
        scope = _Scope(f.env)
        for (pname, _ann), v in zip(defn.params, args):
            scope.bind(pname, v, isinstance(v, _ArrVal))
        self.entered.append(id(defn))
        if id(defn) in self.active:  # nothing would end the recursion
            raise self.error(f"recursive call to {defn.name or '<block>'!r}",
                             line or None)
        self.active.add(id(defn))
        try:
            value = self.run_block(defn.body, scope, want_value=True,
                                   alias=alias)
        finally:
            self.active.discard(id(defn))
        if isinstance(value, _FuncVal):
            raise self.error(f"{defn.name or '<block>'} returned no value",
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
                if n != len(target):
                    raise self.error(f"in-place result {ret.name!r} has {n} "
                                     f"bit(s) but its target has "
                                     f"{len(target)}", line)
                scope.bind(ret.name, _ArrVal(target), True)
            else:
                self.do_item(item, scope)
        if want_value and value is None:
            raise self.error("block does not end in an expression", self.line)
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
            self.iterations += max(0, hi - lo + 1)
            if self.iterations > MAX_UNROLLED_ITERATIONS:
                raise self.error(f"loops unroll to more than "
                                 f"{MAX_UNROLLED_ITERATIONS} iterations",
                                 item.line)
            for i in range(lo, hi + 1):
                inner = _Scope(scope)
                inner.bind(item.var, _IntVal(i))
                self.run_block(item.body, inner, want_value=False)
        elif isinstance(item, CleanStmt):
            if self.branch_depth:
                raise self.error("clean not allowed in conditional branches",
                                 item.line)
            slots = _slots_of(scope.get(item.name, self.error, item.line)[0])
            if slots is None:
                raise self.error(f"clean of non-bit value {item.name!r}",
                                 item.line)
            if not self.inputs.isdisjoint(slots):  # the circuit's input wire
                raise self.error(f"clean of {item.name!r} would release an "
                                 f"input bit", item.line)
            for s in slots:  # read as 0 again, written fresh next
                if s not in self.fresh:
                    self.clean_slot(s, item)
                    self.fresh.add(s)
        else:
            self.eval_value(item.expr, scope)

    def do_assign(self, item: Assign, scope: _Scope) -> None:
        rhs, target = item.expr, item.target
        # 1. `x <- f args`: inlined once, in place or re-binding x
        f = scope.function(rhs)
        if isinstance(target, EName) and f is not None:
            self.assign_call(item, f, scope)
            return
        # the target, and the bit it holds before rhs runs
        if isinstance(target, EName):
            b = self.mutable(scope, target.name, item.line)
            bit = b[0].slot if isinstance(b[0], _BitVal) else None
        else:
            bit, arr, i = self.element_slot(target, scope)
        if self.branch_depth and not (isinstance(target, EName)
                                      and relabels(rhs)):
            raise self.error(_BRANCH_RELABELS, item.line)
        # 2. a re-label re-binds x, or an unwritten element
        v = self.eval_value(rhs, scope) if relabels(rhs) else None
        if type(v) in (_BitVal, _ArrVal, _ConstBitVal):
            if isinstance(target, EName):
                self.rebind(b, v)
                return
            if (type(v) is _BitVal and bit in self.fresh
                    and bit not in self.enforced):
                arr.slots[i] = v.slot
                return
        # 3. computed assignment: in place by the shared rule or onto an
        # unwritten element, else onto a new slot
        e = self.eval_scalar(rhs, scope) if v is None else self.bit_expr(v, rhs)
        # whether the target still holds its bit: a call in rhs may re-bind it
        kept = (arr.slots[i] if isinstance(target, EIndex) else
                b[0].slot if type(b[0]) is _BitVal else None) == bit
        if kept and (writes_in_place(item, bit, self.reads)
                     or isinstance(target, EIndex) and bit in self.fresh):
            self.write_in_place(bit, e)
        elif bit in self.enforced:
            raise self.error(_NOT_ACCUMULATING, item.line)
        elif isinstance(target, EName):
            self.rebind(b, _BitVal(self.compute(e)))
        else:
            arr.slots[i] = self.compute(e)

    def element_slot(self, target: EIndex, scope: _Scope):
        arr = scope.get(target.name, self.error, target.line)[0]
        if not isinstance(arr, _ArrVal):
            raise self.error(f"{target.name!r} is not a bit array", target.line)
        i = self.eval_int(target.index, scope, target.line)
        if not 0 <= i < len(arr.slots):
            raise self.error(f"index {i} out of range for {target.name!r} "
                             f"(size {len(arr.slots)})", target.line)
        return arr.slots[i], arr, i

    def assign_call(self, item: Assign, f: _FuncVal, scope: _Scope) -> None:
        name = item.target.name
        b = self.mutable(scope, name, item.line)
        args = [self.eval_value(a, scope) for a in item.expr.args]
        target = _slots_of(b[0]) or []
        ret = in_place_binding(f.defn, target,
                               [_slots_of(a) or [] for a in args], self.nested,
                               self.results)
        if ret is not None:  # the body accumulates onto the target
            self.call(f, args, item.line, target, ret)
            return
        value = self.call(f, args, item.line)  # out of place: re-bind x
        if isinstance(value, (_IntVal, _IntArrVal)):
            raise self.error(f"cannot assign non-bit value to {name!r}",
                             item.line)
        self.rebind(b, value)

    # -- conditionals -----------------------------------------------------------
    def if_value(self, e: EIf, scope: _Scope, c):
        """The value of `if`, whose condition gave c: a bool for a constant
        condition, whose live branch then runs as a block, else a bit
        expression.  Then both branches run, re-labeling only
        (`branch_depth`), their re-bindings of names bound before the `if`
        journalled and undone; the `if`'s value and each such name either
        branch re-bound become new bits, `mux(c, t, x)` of each pair of the
        branches' `bits`, a bit or an array as the branches' values are."""
        self.nested += 1
        if type(c) is bool:
            value = self.run_block(e.then_block if c else e.else_block,
                                   _Scope(scope), True)
            self.nested -= 1
            return value

        def branch(block):  # its value, and each binding it changed: new value
            start = next(scope.serials)
            self.journal.append([])
            self.branch_depth += 1
            value = self.run_block(block, _Scope(scope), True)
            self.branch_depth -= 1
            log = self.journal.pop()
            after = {id(binding): (binding, binding[0])
                     for binding, _old in log if binding[2] < start}
            for binding, old in reversed(log):
                binding[0] = old
            return value, after

        def mux(t, x):
            tbits, xbits = self.bits(t), self.bits(x)
            if tbits is None or xbits is None:
                raise self.error("branches must produce bit values", e.line)
            if len(tbits) != len(xbits):
                raise self.error("branches produce different widths", e.line)
            slots = [self.mux(c, a, b, e.line) for a, b in zip(tbits, xbits)]
            return (_ArrVal(slots) if _ArrVal in (type(t), type(x))
                    else _BitVal(slots[0]))

        (tval, tafter), (xval, xafter) = branch(e.then_block), branch(e.else_block)
        self.nested -= 1
        for key, (binding, _) in {**tafter, **xafter}.items():
            t, x = (side.get(key, (binding, binding[0]))[1]
                    for side in (tafter, xafter))
            self.rebind(binding, mux(t, x))
        return mux(tval, xval)

    def bits(self, v) -> list | None:
        """A branch's value as bit expressions, None if it holds no bits."""
        if type(v) is _ConstBitVal:
            return [self.const(v.value)]
        slots = _slots_of(v)
        return None if slots is None else [self.read(s) for s in slots]

    def mux(self, c, t, x, line) -> int:
        """A new slot holding t if c else x: c&t ^ c&x ^ x."""
        return self.compute(self.chain("<>", [
            self.chain("&&", [c, t], line), self.chain("&&", [c, x], line), x],
            line))

    # -- entry ---------------------------------------------------------------
    def run(self):
        """Walk the program: its name, input slots, their layout (name,
        width) and output slots.  The top-level items run in order, then a
        final expression naming a function, or with no final expression
        the last function defined, takes the inputs as its parameters; any
        other final expression is the output."""
        try:
            scope = _Scope(None)
            for pname, pval in self.params.items():
                scope.bind(pname, _IntVal(pval))
            items = list(self.program.items)
            final = items.pop() if items and isinstance(items[-1], ExprItem) else None
            for item in items:
                self.do_item(item, scope)
            name = (final.expr.name if final is not None
                    and isinstance(final.expr, EName) else None)
            if final is None:
                name = next((it.name for it in reversed(items)
                             if isinstance(it, LetDef)), None)
            b = scope.lookup(name) if name is not None else None
            if b is None or not isinstance(b[0], _FuncVal):
                if final is None:
                    raise self.error("no output expression")
                self.load([])
                self.line = final.line
                value = self.eval_value(final.expr, scope)
                return "program", [], [], self.output_slots(value)
            entry, inputs, layout, args = b[0], [], [], []
            line = entry.defn.line
            for pname, ann in entry.defn.params:
                array = ann is not None and ann[0] == "array"
                if array and ann[1] is None:
                    raise self.error(f"entry parameter {pname!r} needs a sized "
                                     f"annotation like (x : bool[8])", line)
                n = self.eval_int(ann[1], scope, line) if array else 1
                slots = self.new_slots(n, line)
                inputs.extend(slots)
                args.append(_ArrVal(slots) if array else _BitVal(slots[0]))
                layout.append((pname, n))
            self.inputs = set(inputs)
            self.load(inputs)
            value = self.inline_call(entry, args, line=line)
            return entry.defn.name, inputs, layout, self.output_slots(value)
        except RecursionError:
            # calls or expressions nested past Python's stack, e.g. a long
            # chain of functions each calling the one before
            raise self.error("program nests too deeply", self.line) from None

    def output_slots(self, value) -> list[int]:
        slots = _slots_of(value)
        if slots is None:
            if not isinstance(value, _ConstBitVal):
                raise self.error("program output must be a bit or bit array",
                                 self.line)
            slots = [self.compute(self.const(value.value))]
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


# ---------------------------------------------------------------------------
# Flattener: the walk over BoolExps


class Flattener(_Walker):
    """The walk over BoolExps: a slot holds the statements that write it
    (`stmts`), built by the simplifier of `boolexpr`; calls are templated
    and replayed, an in-place call is a validated block, and an operand
    that a later operand's statements overwrite is copied first."""
    error = FlattenError  # raised by the walk

    def __init__(self, program: Program, params: dict | None = None):
        super().__init__(program, params)
        self.stmts: list = []
        self.templates: dict = {}  # call signature -> _Template
        self.call_templates = 0  # calls inlined and recorded as templates
        self.call_replays = 0  # calls replayed from a template
        self.free_names: dict[int, tuple] = {}  # id(LetDef) -> _free_names()

    # -- the domain ------------------------------------------------------------
    def emit(self, stmt) -> None:
        """Append a statement; a write of 0 onto a written slot is
        dropped."""
        if (type(stmt) is Compute and not stmt.fresh
                and stmt.expr.op == "const" and not stmt.expr.args[0]):
            return  # x ^= 0 is a no-op
        self.stmts.append(stmt)

    def mark(self) -> int:
        return len(self.stmts)

    const = staticmethod(bconst)

    def read(self, slot: int) -> BoolExp:
        """The value of `slot` for an expression that reads it: its
        variable, or 0 if it is fresh (unwritten or cleaned)."""
        return _ZERO if slot in self.fresh else bvar(slot)

    def chain(self, op: str, args: list, line) -> BoolExp:
        if op == "<>":
            return bxor(args)
        be = (band if op == "&&" else bor)(args)
        if gate_count(be) > MAX_STATEMENT_GATES:
            raise FlattenError(f"expression synthesizes to more than "
                               f"{MAX_STATEMENT_GATES} gates", line)
        return be

    def put(self, slot: int, e: BoolExp) -> None:
        self.stmts.append(Compute(slot, e, True))  # `emit` drops no fresh write

    def clean_slot(self, slot: int, item: CleanStmt) -> None:
        self.emit(CleanSlot(slot))

    def read_before(self, args: list, start: int) -> list:
        """Operands `args`, read before the statements from `start` on,
        which a later operand of their expression emitted (a call, or a
        branch of a constant `if`): the source reads each operand when it
        reaches it.  A slot those statements write or clean is copied to
        a new slot ahead of them (a fresh one was read as 0 already)."""
        reads = _written(self.stmts[start:]).intersection(
            set().union(*map(variables, args)))
        if not reads:
            return args
        m, copies = {}, []
        for s in sorted(reads):
            c = self.new_slot()
            copies.append(Compute(c, bvar(s), True))
            m[s] = bvar(c)
        self.stmts[start:start] = copies
        return [_substituted(a, m) for a in args]

    def write_in_place(self, slot: int, e: BoolExp) -> None:
        """Leave e's value on `slot`: slot := e if it is fresh, slot ^= rest
        if e is slot ^ rest, else through a new slot, d := e ^ slot and
        slot ^= d (e may read the slot's old value from a copy, say)."""
        if slot in self.fresh:
            self.fresh.discard(slot)
            self.emit(Compute(slot, e, True))
            return
        v = bvar(slot)
        if e == v:
            return  # slot ^= 0
        rest = (bxor([a for a in e.args if a != v])
                if e.op == "xor" and e.args.count(v) == 1 else None)
        if rest is None or slot in variables(rest):
            rest = bvar(self.compute(bxor([e, v])))
        self.emit(Compute(slot, rest, False))

    # -- calls by template ----------------------------------------------------
    def call(self, f: _FuncVal, args: list, line: int, target=(), ret=None):
        """Flatten call `f args`, in place onto `target` if `ret` (f's result
        binding) is given, and return its value (None in place).

        The first call of a signature is inlined from the AST and recorded
        as a template; a later one replays it, unless `replayable` finds
        that inlining would report an error.  A call inside an `if` branch
        is neither recorded nor replayed (a replay would not meet `emit`'s
        check there), nor is one that touched a slot outside its positions.
        """
        key = None
        if not self.branch_depth:
            sig = self.signature(f, target, args)
            if sig is not None:
                key, slots = sig
                tpl = self.templates.get(key)
                if tpl is not None and self.replayable(tpl, slots):
                    return self.replay(tpl, slots)
        mark = (len(self.stmts), self.slot_count, len(self.entered),
                self.iterations, self.allocated)
        if ret is None:
            value = self.inline_call(f, args, line=line)
        else:
            value = None
            self.inline_in_place(f, args, target, ret, line,
                                 slots if key is not None else ())
        if key is not None:
            self.record(key, slots, mark, value)
        return value

    def inline_in_place(self, f: _FuncVal, args: list, target: list[int],
                        ret: LetBind, line: int, slots=()) -> None:
        """Inline f with its result `ret` bound to `target` and emit the
        block of its statements, its slots `slots` first."""
        outer, self.stmts = self.stmts, []
        pre_slots = self.slot_count
        super().inline_in_place(f, args, target, ret, line)
        body, self.stmts = self.stmts, outer
        block = InPlaceBlock.from_statements(
            target, body, list(range(pre_slots, self.slot_count)), slots)
        self.validate_block(block, line, f.defn.name)
        self.emit(block)

    def signature(self, f: _FuncVal, target: list[int], args: list):
        """The template key of call `f args` (in place onto `target` if it
        is not empty), with the slots a template renames: the target's, the
        arguments' and the captured bits', distinct and in key order.  None
        if the call writes a name it does not bind.

        Two calls with one key inline to the same statements up to slot
        renaming: the key holds f (and so its result binding), each
        argument's kind and width or compile-time value, the value of every
        name f's body reads from its environment (for a function, the same
        again), how many slots there are (so a call in place, whose slots
        begin with its target's, never shares a key with one out of
        place), which of the slots are one slot, which
        are fresh (unwritten or cleaned) and which are in-place targets
        being accumulated onto, and whether the call is inside an in-place
        body or an `if` (`in_place_binding` inside it depends on that).
        Which slots are entry inputs changes only whether a `clean` is an
        error, so `replayable` checks the slots a template cleans instead:
        a key bit would give, say, MD5's additions of an input word and of
        a computed one two templates, and two block bodies.
        """
        slots = list(target)
        try:
            values = (tuple(self.value_key(v, slots, set()) for v in args),
                      self.function_key(f, slots, set()))
        except _NoTemplate:
            return None
        first: dict[int, int] = {}
        shared = tuple([first.setdefault(s, i) for i, s in enumerate(slots)])
        fresh, enforced = self.fresh, self.enforced
        states = tuple([(s in fresh) | (s in enforced) << 1 for s in first])
        return (values, self.nested > 0, shared, states), list(first)

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

    def record(self, key, slots: list[int], mark: tuple, value) -> None:
        """Record the call just inlined, which began at `mark`, as the
        template of `key`, unless it touched a slot outside its positions:
        its signature's `slots`, then the slots it allocated."""
        start, pre_slots, entered, iterations, allocated = mark
        pos = {s: p for p, s in enumerate(slots)}
        n = len(pos)
        shift = n - pre_slots
        pos.update({s: s + shift for s in range(pre_slots, self.slot_count)})
        try:
            stmts = _renamed_stmts(self.stmts[start:], pos)
            value = _value_renamed(value, pos)
        except KeyError:
            return
        fresh_after = tuple([p for s, p in pos.items() if s in self.fresh])
        self.templates[key] = _Template(
            stmts, value, fresh_after,
            tuple([p for p in _written(stmts, CleanSlot) if p < n]),
            self.slot_count - pre_slots, frozenset(self.entered[entered:]),
            self.iterations - iterations, self.allocated - allocated)
        self.call_templates += 1

    def replayable(self, tpl: _Template, slots: list[int]) -> bool:
        """Replaying `tpl` on its signature's `slots` emits what inlining
        the call would: it passes no bound, enters no function that is
        running and cleans no entry input."""
        return (self.iterations + tpl.iterations <= MAX_UNROLLED_ITERATIONS
                and self.allocated + tpl.allocated <= MAX_ALLOCATED_BITS
                and self.active.isdisjoint(tpl.entered)
                and self.inputs.isdisjoint([slots[p] for p in tpl.cleans]))

    def replay(self, tpl: _Template, slots: list[int]):
        """Emit `tpl`'s statements on its signature's `slots` and new
        locals, taken in the order inlining would take them, and return its
        value there.  Nothing is validated or folded again: a block's
        check and the reads of fresh slots would be the template's."""
        self.fresh.difference_update(slots)
        base = self.slot_count
        self.slot_count += tpl.locals
        self.iterations += tpl.iterations
        self.allocated += tpl.allocated
        self.entered += tpl.entered
        m = [*slots, *range(base, self.slot_count)]
        self.fresh.update([m[p] for p in tpl.fresh_after])
        self.stmts += _renamed_stmts(tpl.stmts, m)
        self.call_replays += 1
        return _value_renamed(tpl.value, m)

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


def flatten(program, params: dict | None = None,
            counts: dict | None = None) -> FlatProgram:
    """Unroll, inline and slot-number a parsed program (idempotent).
    `counts`, if given, receives `call_templates` (calls inlined and
    recorded as templates) and `call_replays` (calls replayed from one)."""
    if isinstance(program, FlatProgram):
        return program
    fl = Flattener(program, params)
    name, inputs, layout, outputs = fl.run()
    if counts is not None:
        counts.update(call_templates=fl.call_templates,
                      call_replays=fl.call_replays)
    return FlatProgram(name=name, input_slots=inputs, output_slots=outputs,
                       statements=fl.stmts, slot_count=fl.slot_count,
                       input_layout=layout)


# ---------------------------------------------------------------------------
# Source interpreter: the walk over plain bits (cross-check on flatten)


class SourceInterpreter(_Walker):
    """The walk over plain bits, on one input (`given`): a slot holds 0 or
    1 (`vals`, 0 if absent), computed as its expression is reached.  It
    shares the walk's rules, and checks flatten's own machinery (BoolExps,
    templates, replays, blocks, `read_before`) by running without it."""
    error = InterpretError

    def __init__(self, program: Program, params: dict | None = None,
                 inputs=()):
        super().__init__(program, params)
        self.given = list(inputs)
        self.vals: dict[int, int] = {}

    @staticmethod
    def const(v: bool) -> int:
        return int(v)

    def read(self, slot: int) -> int:
        return self.vals.get(slot, 0)

    @staticmethod
    def chain(op: str, args: list, line) -> int:
        if op == "<>":
            return sum(args) & 1
        return int(all(args) if op == "&&" else any(args))

    def put(self, slot: int, e: int) -> None:
        self.vals[slot] = e

    def write_in_place(self, slot: int, e: int) -> None:
        self.fresh.discard(slot)
        self.vals[slot] = e

    def clean_slot(self, slot: int, item: CleanStmt) -> None:
        if self.read(slot):
            raise InterpretError(f"clean of non-zero value {item.name!r}",
                                 item.line)

    def load(self, slots: list[int]) -> None:
        if len(self.given) != len(slots):
            raise InterpretError(f"expected {len(slots)} input bits, got "
                                 f"{len(self.given)}")
        self.vals.update(zip(slots, [b & 1 for b in self.given]))


def interpret_source(program: Program, inputs, params: dict | None = None) -> list[int]:
    """Run the program on one input, a list of 0/1, without flattening it;
    a list of 0/1 out."""
    it = SourceInterpreter(program, params, inputs)
    return [it.read(s) for s in it.run()[3]]
