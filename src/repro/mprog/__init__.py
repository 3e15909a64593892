"""Structured application programs with serializable continuations.

Real MANA checkpoints the application's stack as raw upper-half memory, so a
restarted process resumes mid-function transparently.  A running Python
frame cannot be serialized, so applications in this reproduction are written
as *structured programs* — trees of :class:`Seq`/:class:`Loop`/
:class:`While`/:class:`If`/:class:`Compute`/:class:`Call` nodes — executed
by an :class:`Interpreter` whose continuation (a program counter into the
program's compiled instruction list plus a stack of loop counters) is plain
picklable data.

The essential property is preserved: a checkpoint can be cut while a rank is
*anywhere* an MPI wrapper allows (between calls, blocked in a receive,
waiting in phase 1 of a collective), and restart resumes from exactly that
program point — the program *text* (the node tree, including its Python
callables) is like the executable on disk: available at restart and never
stored in the image.
"""

from repro.mprog.ast import Call, Compute, If, Loop, Program, ProgramError, Seq, While
from repro.mprog.interp import Action, Interpreter, ProgramState

__all__ = [
    "Action",
    "Call",
    "Compute",
    "If",
    "Interpreter",
    "Loop",
    "Program",
    "ProgramError",
    "ProgramState",
    "Seq",
    "While",
]
