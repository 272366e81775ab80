"""AST-level optimisation for NVC: constant folding and branch pruning.

On an energy-budgeted core, every folded instruction is harvested
energy returned to the application.  The folder evaluates constant
subexpressions with exactly the target's 16-bit semantics (it calls
the interpreter's own :func:`~repro.lang.interp.unary` and
:func:`~repro.lang.interp.binary`), collapses constant conditions, and
prunes unreachable branches — all before code generation, so the
generated NV16 stays simple.

Semantics-preservation is enforced in the test suite by differential
fuzzing: for random programs, optimised and unoptimised binaries must
produce identical outputs.
"""

from __future__ import annotations

from typing import Tuple, Union

from repro.lang import ast
from repro.lang.interp import MASK, binary, unary


def fold_expr(node):
    """Return a constant-folded copy of an expression node."""
    if isinstance(node, ast.Num):
        return ast.Num(value=node.value & MASK, line=node.line)
    if isinstance(node, (ast.Var,)):
        return node
    if isinstance(node, ast.Index):
        return ast.Index(name=node.name, index=fold_expr(node.index), line=node.line)
    if isinstance(node, ast.Unary):
        operand = fold_expr(node.operand)
        if isinstance(operand, ast.Num):
            return ast.Num(value=unary(node.op, operand.value), line=node.line)
        return ast.Unary(op=node.op, operand=operand, line=node.line)
    if isinstance(node, ast.Binary):
        left = fold_expr(node.left)
        right = fold_expr(node.right)
        if isinstance(left, ast.Num) and isinstance(right, ast.Num):
            return ast.Num(
                value=binary(node.op, left.value, right.value),
                line=node.line,
            )
        return ast.Binary(op=node.op, left=left, right=right, line=node.line)
    if isinstance(node, ast.Logical):
        left = fold_expr(node.left)
        right = fold_expr(node.right)
        if isinstance(left, ast.Num):
            # Short-circuit is decidable: the right side has no side
            # effects in NVC *except calls*, so only fold when safe.
            if node.op == "&&" and left.value == 0:
                return ast.Num(value=0, line=node.line)
            if node.op == "||" and left.value != 0:
                return ast.Num(value=1, line=node.line)
            if isinstance(right, ast.Num):
                return ast.Num(value=int(right.value != 0), line=node.line)
            # Constant-true left of && / constant-false left of ||:
            # result is the normalised right operand.
            return ast.Logical(op=node.op, left=left, right=right, line=node.line)
        return ast.Logical(op=node.op, left=left, right=right, line=node.line)
    if isinstance(node, ast.Call):
        return ast.Call(
            name=node.name,
            args=tuple(fold_expr(arg) for arg in node.args),
            line=node.line,
        )
    return node


def _fold_body(body: Tuple) -> Tuple:
    out = []
    for node in body:
        folded = fold_statement(node)
        if folded is None:
            continue
        if isinstance(folded, tuple):
            out.extend(folded)
        else:
            out.append(folded)
    return tuple(out)


def fold_statement(node) -> Union[None, Tuple, object]:
    """Fold one statement; may return None (pruned), a statement, or a
    tuple of statements (an inlined branch)."""
    if isinstance(node, ast.Assign):
        target = node.target
        if isinstance(target, ast.Index):
            target = ast.Index(
                name=target.name, index=fold_expr(target.index), line=target.line
            )
        return ast.Assign(target=target, value=fold_expr(node.value), line=node.line)
    if isinstance(node, ast.If):
        cond = fold_expr(node.cond)
        then_body = _fold_body(node.then_body)
        else_body = _fold_body(node.else_body)
        if isinstance(cond, ast.Num):
            return then_body if cond.value != 0 else else_body
        return ast.If(
            cond=cond, then_body=then_body, else_body=else_body, line=node.line
        )
    if isinstance(node, ast.While):
        cond = fold_expr(node.cond)
        if isinstance(cond, ast.Num) and cond.value == 0:
            return None  # while (0) {...}: dead
        return ast.While(cond=cond, body=_fold_body(node.body), line=node.line)
    if isinstance(node, ast.For):
        init = fold_statement(node.init) if node.init is not None else None
        step = fold_statement(node.step) if node.step is not None else None
        cond = fold_expr(node.cond)
        if isinstance(cond, ast.Num) and cond.value == 0:
            # Body never runs, but the init assignment still does.
            return init
        return ast.For(
            init=init, cond=cond, step=step, body=_fold_body(node.body),
            line=node.line,
        )
    if isinstance(node, ast.Out):
        return ast.Out(value=fold_expr(node.value), line=node.line)
    if isinstance(node, ast.Return):
        value = fold_expr(node.value) if node.value is not None else None
        return ast.Return(value=value, line=node.line)
    if isinstance(node, ast.ExprStatement):
        value = fold_expr(node.value)
        if isinstance(value, (ast.Num, ast.Var)):
            return None  # side-effect-free statement: dead
        return ast.ExprStatement(value=value, line=node.line)
    return node  # LocalDecl, Halt, Break, Continue


def optimize(program: ast.Program) -> ast.Program:
    """Return a constant-folded copy of a parsed program."""
    functions = tuple(
        ast.Function(
            name=fn.name,
            params=fn.params,
            body=_fold_body(fn.body),
            line=fn.line,
        )
        for fn in program.functions
    )
    return ast.Program(globals=program.globals, functions=functions)
