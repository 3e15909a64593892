"""The interpreter: executes a program tree with a picklable continuation.

The interpreter itself performs no I/O and owns no clock — it is a pure
state machine exposing :meth:`Interpreter.next_action` ("what leaf comes
next?") and :meth:`Interpreter.leaf_done` ("that leaf finished; advance").
Rank drivers (native or MANA) own the scheduling policy: they decide when to
execute the returned leaves against the simulation engine, which is what
lets a checkpoint helper freeze a rank *between* those decisions.

Each :class:`~repro.mprog.ast.Program` is compiled once (and cached on the
program) into a flat instruction list; see :func:`compile_program` for the
instruction set.  The interpreter runs from an integer program counter plus
a stack of ``[iters, count]`` loop counters, so a continuation is four
plain values — ``snapshot()`` / ``restore()`` round-trip through pickle.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional

from repro.mprog.ast import (
    Call,
    Compute,
    If,
    Loop,
    Node,
    Program,
    ProgramError,
    Seq,
    While,
)


class ProgramState(dict):
    """Application state: a plain dict with attribute sugar.

    Everything stored here must be picklable; under MANA the state lives on
    the upper-half heap and is part of the checkpoint image.
    """

    def __getattr__(self, name: str) -> Any:
        try:
            return self[name]
        except KeyError:
            raise AttributeError(name) from None

    def __setattr__(self, name: str, value: Any) -> None:
        self[name] = value


class Action(NamedTuple):
    """What the driver should do next.

    Leaf actions are built once, at compile time.  ``path`` is the leaf's
    child-index path from the root (call-site identity for MANA's send
    guards and receive journals); ``cost`` is a compute leaf's modeled
    duration when it is a non-negative constant, else None (evaluate
    ``node.eval_cost`` per execution).
    """

    kind: str                    # "compute" | "call" | "done"
    node: Optional[Node] = None
    path: tuple[int, ...] = ()
    cost: Optional[float] = None


DONE = Action(kind="done")

# Instruction set.  Every instruction is a tuple whose first item is the
# opcode; ``exit``/``target`` operands are program counters.
#
#   (LEAF, action)               stop here and hand ``action`` to the driver
#   (LOOP_ENTER, loop)           evaluate the bound once, push [0, count],
#                                publish state[var] = 0
#   (LOOP_TEST, var, exit)       top pass < count: publish state[var] and
#                                enter the body; else pop, jump to exit
#   (LOOP_NEXT, test)            count a finished pass, jump to the test
#   (WHILE_TEST, cond, exit)     cond(state) true: body; else jump to exit
#   (IF, cond, orelse)           cond(state) true: then-branch; else jump
#   (JUMP, target)
LEAF, LOOP_ENTER, LOOP_TEST, LOOP_NEXT, WHILE_TEST, IF, JUMP = range(7)


class CompiledProgram(NamedTuple):
    """A program's instruction list plus, for every program counter
    (including the end, ``len(code)``), the number of enclosing loops — the
    loop-stack depth a valid continuation must have there."""

    code: tuple[tuple, ...]
    depth: tuple[int, ...]


def compile_program(program: Program) -> CompiledProgram:
    """The program's instruction list, compiled on first use and cached on
    the program (the tree is immutable program text)."""
    if program.compiled is not None:
        return program.compiled
    code: list = []
    depth: list[int] = []
    def walk(node: Node, path: tuple[int, ...], d: int) -> None:
        # a jump's target is patched in once the code it skips is laid out
        if isinstance(node, Compute):
            cost = node.cost
            const = float(cost) if not callable(cost) and cost >= 0 else None
            code.append((LEAF, Action("compute", node, path, const)))
            depth.append(d)
        elif isinstance(node, Call):
            code.append((LEAF, Action("call", node, path)))
            depth.append(d)
        elif isinstance(node, Seq):
            for i, child in enumerate(node.children):
                walk(child, path + (i,), d)
        elif isinstance(node, Loop):
            code.append((LOOP_ENTER, node))
            test = len(code)
            code.append(None)
            depth.extend((d, d + 1))
            walk(node.body, path + (0,), d + 1)
            code.append((LOOP_NEXT, test))
            depth.append(d + 1)
            code[test] = (LOOP_TEST, node.var, len(code))
        elif isinstance(node, While):
            test = len(code)
            code.append(None)
            depth.append(d)
            walk(node.body, path + (0,), d)
            code.append((JUMP, test))
            depth.append(d)
            code[test] = (WHILE_TEST, node.cond, len(code))
        elif isinstance(node, If):
            branch = len(code)
            code.append(None)
            depth.append(d)
            walk(node.then, path + (0,), d)
            if node.orelse is None:
                code[branch] = (IF, node.cond, len(code))
                return
            skip = len(code)
            code.append(None)
            depth.append(d)
            code[branch] = (IF, node.cond, len(code))
            walk(node.orelse, path + (1,), d)
            code[skip] = (JUMP, len(code))
        else:
            raise ProgramError(f"unknown node type {type(node).__name__}")

    walk(program.root, (), 0)
    depth.append(0)
    program.compiled = CompiledProgram(tuple(code), tuple(depth))
    return program.compiled


class Interpreter:
    """Drives one rank's program; the continuation is fully serializable."""

    def __init__(self, program: Program, state: Optional[ProgramState] = None) -> None:
        self.program = program
        self.state = state if state is not None else ProgramState()
        self._compiled = compile_program(program)
        self._code = self._compiled.code
        #: program counter: the next instruction (a LEAF while one is
        #: selected, ``len(code)`` once finished)
        self.pc = 0
        #: ``[iters, count]`` per enclosing Loop, innermost last
        self.loops: list[list[int]] = []
        self.finished = False
        #: number of leaves completed (diagnostics / progress reporting)
        self.leaves_done = 0
        #: True between next_action returning a leaf and leaf_done
        self._at_leaf = False

    # ----------------------------------------------------------- execution

    def next_action(self) -> Action:
        """The next leaf to execute (idempotent until :meth:`leaf_done`)."""
        code = self._code
        end = len(code)
        pc = self.pc
        state = self.state
        loops = self.loops
        while pc < end:
            ins = code[pc]
            op = ins[0]
            if op == LEAF:
                self.pc = pc
                self._at_leaf = True
                return ins[1]
            if op == LOOP_TEST:
                top = loops[-1]
                if top[0] < top[1]:
                    if ins[1] is not None:
                        state[ins[1]] = top[0]
                    pc += 1
                else:
                    loops.pop()
                    pc = ins[2]
            elif op == LOOP_NEXT:
                loops[-1][0] += 1
                pc = ins[1]
            elif op == LOOP_ENTER:
                loop = ins[1]
                loops.append([0, loop.eval_count(state)])
                if loop.var is not None:
                    state[loop.var] = 0
                pc += 1
            elif op == JUMP:
                pc = ins[1]
            else:  # WHILE_TEST / IF: fall into the body or jump past it
                pc = pc + 1 if ins[1](state) else ins[2]
        self.pc = pc
        self.finished = True
        return DONE

    def leaf_done(self) -> None:
        """The current leaf finished; advance past it."""
        if not self._at_leaf:
            raise ProgramError("leaf_done with no leaf in progress")
        self._at_leaf = False
        self.leaves_done += 1
        self.pc += 1

    # --------------------------------------------------------- persistence

    def snapshot(self) -> dict:
        """Picklable continuation (the state dict travels separately)."""
        return {
            "pc": self.pc,
            "loops": [list(frame) for frame in self.loops],
            "finished": self.finished,
            "leaves_done": self.leaves_done,
        }

    def restore(self, snap: dict) -> None:
        """Install a continuation captured by :meth:`snapshot`.

        The program must be the same text (same shape): the program counter
        and the loop-stack depth are validated against its compiled form,
        and a continuation in any other format raises :class:`ProgramError`.
        """
        if not isinstance(snap, dict) or not {"pc", "loops"} <= snap.keys():
            keys = sorted(snap) if isinstance(snap, dict) else type(snap).__name__
            raise ProgramError(
                f"unrecognised continuation format (keys {keys}); expected a "
                "pc-based continuation {'pc', 'loops', 'finished', "
                "'leaves_done'} — tree-walk {'stack': ...} continuations "
                "predate compiled programs"
            )
        pc = snap["pc"]
        depth = self._compiled.depth
        if not isinstance(pc, int) or not 0 <= pc < len(depth):
            raise ProgramError(
                f"continuation pc {pc!r} outside program {self.program.name!r} "
                f"({len(depth) - 1} instructions)"
            )
        loops = [list(frame) for frame in snap["loops"]]
        if len(loops) != depth[pc]:
            raise ProgramError(
                f"continuation has {len(loops)} loop counters at pc {pc}; "
                f"program {self.program.name!r} nests {depth[pc]} loops there"
            )
        for frame in loops:
            if len(frame) != 2 or not 0 <= frame[0] <= frame[1]:
                raise ProgramError(f"invalid loop counter {frame!r}")
        self.pc = pc
        self.loops = loops
        self.finished = bool(snap["finished"])
        self.leaves_done = int(snap["leaves_done"])
        self._at_leaf = False
