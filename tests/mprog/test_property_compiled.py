"""Property: the compiled interpreter runs any tree exactly like a plain
tree walk.

Random trees mix every node kind (Seq, Loop with int and callable bounds,
with and without ``var``, While, If with and without ``orelse``, Compute,
Call).  The reference is a recursive generator written here, evaluated
lazily so that every condition and bound sees the state left by the leaves
before it.  Conditions and bounds record each evaluation in the state, so
"a loop bound is evaluated once, a While condition before each pass, an If
condition once" is part of the compared final state.
"""

import itertools
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mprog import (
    Call,
    Compute,
    If,
    Interpreter,
    Loop,
    Program,
    ProgramState,
    Seq,
    While,
)


def _mix(state, k):
    state["x"] = (state["x"] * 31 + k) % 1009
    state["log"].append(k)


def _compute(k):
    return Compute(lambda s: _mix(s, k), cost=0.0)


def _call(k):
    # the runners below execute call builders synchronously with api=None
    return Call(lambda s, api: _mix(s, -k))


def _bound_fn(k):
    def bound(s):
        s["evals"].append(("loop", k))
        return s["x"] % 3

    return bound


def _if_cond(k):
    def cond(s):
        s["evals"].append(("if", k))
        return s["x"] % 2 == 0

    return cond


def _while_cond(k, passes):
    key = f"w{k}"

    def cond(s):
        s["evals"].append(("while", k))
        done = s.get(key, 0)
        if done < passes:
            s[key] = done + 1
            return True
        s[key] = 0  # re-entry (inside an outer loop) starts afresh
        return False

    return cond


@st.composite
def trees(draw, depth=3, ids=None):
    """A random program tree; leaf/cond ids are unique per tree."""
    ids = ids if ids is not None else itertools.count(1)
    kinds = ["compute", "call"]
    if depth > 0:
        kinds += ["seq", "loop", "while", "if"]
    kind = draw(st.sampled_from(kinds))
    k = next(ids)
    if kind == "compute":
        return _compute(k)
    if kind == "call":
        return _call(k)
    sub = trees(depth=depth - 1, ids=ids)
    if kind == "seq":
        return Seq(*draw(st.lists(sub, min_size=1, max_size=3)))
    if kind == "loop":
        count = draw(st.one_of(st.integers(0, 2), st.just(_bound_fn(k))))
        var = draw(st.sampled_from([None, f"i{k}"]))
        return Loop(count, draw(sub), var=var)
    if kind == "while":
        return While(_while_cond(k, draw(st.integers(0, 2))), draw(sub))
    orelse = draw(st.one_of(st.none(), sub))
    return If(_if_cond(k), draw(sub), orelse)


def _fresh_state():
    return ProgramState(x=7, log=[], evals=[])


def _reference(node, state):
    """Tree walk yielding leaves in execution order (lazily)."""
    if isinstance(node, (Compute, Call)):
        yield node
    elif isinstance(node, Seq):
        for child in node.children:
            yield from _reference(child, state)
    elif isinstance(node, Loop):
        n = node.eval_count(state)
        if node.var is not None:
            state[node.var] = 0
        for i in range(n):
            if node.var is not None:
                state[node.var] = i
            yield from _reference(node.body, state)
    elif isinstance(node, While):
        while node.cond(state):
            yield from _reference(node.body, state)
    elif isinstance(node, If):
        if node.cond(state):
            yield from _reference(node.then, state)
        elif node.orelse is not None:
            yield from _reference(node.orelse, state)


def _execute(node, state):
    if isinstance(node, Compute):
        node.fn(state)
    else:
        node.fn(state, None)


def _run_reference(root):
    state = _fresh_state()
    leaves = []
    for node in _reference(root, state):
        leaves.append(node)
        _execute(node, state)
    return leaves, state


def _run_compiled(interp, leaves):
    while True:
        action = interp.next_action()
        if action.kind == "done":
            return interp
        assert action.kind == ("compute" if isinstance(action.node, Compute)
                               else "call")
        leaves.append(action.node)
        _execute(action.node, interp.state)
        interp.leaf_done()


@settings(max_examples=60, deadline=None)
@given(trees())
def test_compiled_matches_tree_walk(root):
    ref_leaves, ref_state = _run_reference(root)
    leaves = []
    interp = _run_compiled(Interpreter(Program(root), _fresh_state()), leaves)
    assert interp.finished
    assert interp.leaves_done == len(ref_leaves)
    assert [id(n) for n in leaves] == [id(n) for n in ref_leaves]
    assert dict(interp.state) == dict(ref_state)


@settings(max_examples=30, deadline=None)
@given(trees(), st.booleans())
def test_restore_at_every_leaf_boundary_reproduces_the_rest(root, at_leaf):
    """Cut after ``stop`` leaves — either just past a leaf or positioned on
    the next one — pickle continuation and state, restore into a fresh
    interpreter over a fresh Program of the same text, and finish: the
    whole run equals the uninterrupted one."""
    ref_leaves, ref_state = _run_reference(root)
    for stop in range(len(ref_leaves) + 1):
        interp = Interpreter(Program(root), _fresh_state())
        for _ in range(stop):
            _execute(interp.next_action().node, interp.state)
            interp.leaf_done()
        if at_leaf:
            interp.next_action()
        snap = pickle.loads(pickle.dumps(interp.snapshot()))
        state = ProgramState(pickle.loads(pickle.dumps(dict(interp.state))))
        fresh = Interpreter(Program(root), state)
        fresh.restore(snap)
        tail = []
        _run_compiled(fresh, tail)
        assert [id(n) for n in tail] == [id(n) for n in ref_leaves[stop:]]
        assert fresh.leaves_done == len(ref_leaves)
        assert dict(fresh.state) == dict(ref_state)
