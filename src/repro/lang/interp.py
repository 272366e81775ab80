"""Tree-walking interpreter for NVC — the semantic oracle.

Implements exactly the NV16 semantics the code generator targets:
16-bit wrap-around arithmetic, unsigned ``/``, ``%`` and ``>>``,
signed comparisons, division by zero yielding ``0xFFFF`` (and ``x % 0
== x``), shift counts modulo 16.  Each operator's semantics lives once,
in :func:`unary` and :func:`binary`, which the constant folder
(:mod:`repro.lang.optimize`) calls too.  The test suite cross-checks
compiled programs against this interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.lang import ast
from repro.lang.parser import parse

MASK = 0xFFFF


class InterpError(Exception):
    """Raised on runtime errors (unknown names, bad indices, budget)."""


class _Halted(Exception):
    """Internal: the program executed ``halt``."""


class _Returned(Exception):
    """Internal: a function executed ``return``."""

    def __init__(self, value: int) -> None:
        super().__init__()
        self.value = value


class _Break(Exception):
    """Internal: ``break`` inside a loop."""


class _Continue(Exception):
    """Internal: ``continue`` inside a loop."""


def _signed(value: int) -> int:
    value &= MASK
    return value - 0x10000 if value & 0x8000 else value


def unary(op: str, value: int) -> int:
    """``op value`` on a 16-bit value, with NV16 semantics."""
    if op == "-":
        return (-value) & MASK
    if op == "~":
        return value ^ MASK
    return 1 if value == 0 else 0  # "!"


def binary(op: str, a: int, b: int) -> int:
    """``a op b`` on two 16-bit values, with NV16 semantics."""
    if op == "+":
        return (a + b) & MASK
    if op == "-":
        return (a - b) & MASK
    if op == "*":
        return (a * b) & MASK
    if op == "/":
        return MASK if b == 0 else a // b
    if op == "%":
        return a if b == 0 else a % b
    if op == "&":
        return a & b
    if op == "|":
        return a | b
    if op == "^":
        return a ^ b
    if op == "<<":
        return (a << (b % 16)) & MASK
    if op == ">>":
        return a >> (b % 16)
    if op == "==":
        return 1 if a == b else 0
    if op == "!=":
        return 1 if a != b else 0
    if op == "<":
        return 1 if _signed(a) < _signed(b) else 0
    if op == "<=":
        return 1 if _signed(a) <= _signed(b) else 0
    if op == ">":
        return 1 if _signed(a) > _signed(b) else 0
    if op == ">=":
        return 1 if _signed(a) >= _signed(b) else 0
    raise InterpError(f"unknown operator {op!r}")


@dataclass
class InterpResult:
    """Outcome of interpreting a program.

    Attributes:
        outputs: values streamed via ``out(...)`` in order.
        globals: final global scalar/array values.
        returned: ``main``'s return value.
    """

    outputs: List[int] = field(default_factory=list)
    globals: Dict[str, Union[int, List[int]]] = field(default_factory=dict)
    returned: int = 0


class _Interp:
    def __init__(self, program: ast.Program, inputs, max_steps: int) -> None:
        self.program = program
        self.inputs = list(inputs or [])
        self.max_steps = max_steps
        self.steps = 0
        self.outputs: List[int] = []
        self.globals: Dict[str, Union[int, List[int]]] = {}
        for decl in program.globals:
            if decl.size is None:
                value = decl.initializer[0] if decl.initializer else 0
                self.globals[decl.name] = value & MASK
            else:
                values = [v & MASK for v in decl.initializer]
                values += [0] * (decl.size - len(values))
                self.globals[decl.name] = values

    def _tick(self) -> None:
        self.steps += 1
        if self.steps > self.max_steps:
            raise InterpError("step budget exhausted (infinite loop?)")

    # -- expressions ---------------------------------------------------------

    def eval(self, node, env: Dict[str, int]) -> int:
        self._tick()
        if isinstance(node, ast.Num):
            return node.value & MASK
        if isinstance(node, ast.Var):
            if node.name in env:
                return env[node.name]
            value = self.globals.get(node.name)
            if isinstance(value, int):
                return value
            if isinstance(value, list):
                raise InterpError(f"array {node.name!r} used as a scalar")
            raise InterpError(f"unknown variable {node.name!r}")
        if isinstance(node, ast.Index):
            array = self.globals.get(node.name)
            if not isinstance(array, list):
                raise InterpError(f"{node.name!r} is not an array")
            index = self.eval(node.index, env)
            if index >= len(array):
                raise InterpError(
                    f"index {index} out of bounds for {node.name!r}[{len(array)}]"
                )
            return array[index]
        if isinstance(node, ast.Unary):
            return unary(node.op, self.eval(node.operand, env))
        if isinstance(node, ast.Binary):
            left = self.eval(node.left, env)
            return binary(node.op, left, self.eval(node.right, env))
        if isinstance(node, ast.Logical):
            left = self.eval(node.left, env)
            if node.op == "&&":
                if left == 0:
                    return 0
                return 1 if self.eval(node.right, env) != 0 else 0
            if left != 0:
                return 1
            return 1 if self.eval(node.right, env) != 0 else 0
        if isinstance(node, ast.Call):
            return self._call(node, env)
        raise InterpError(f"cannot evaluate {type(node).__name__}")

    def _call(self, node: ast.Call, env) -> int:
        if node.name == "in":
            return self.inputs.pop(0) & MASK if self.inputs else 0
        try:
            fn = self.program.function(node.name)
        except KeyError as exc:
            raise InterpError(str(exc)) from exc
        if len(node.args) != len(fn.params):
            raise InterpError(
                f"{node.name}() expects {len(fn.params)} args, got {len(node.args)}"
            )
        frame = {
            param: self.eval(arg, env) for param, arg in zip(fn.params, node.args)
        }
        try:
            self.exec_block(fn.body, frame)
        except _Returned as ret:
            return ret.value
        except (_Break, _Continue) as exc:
            raise InterpError("break/continue outside a loop") from exc
        return 0

    # -- statements -----------------------------------------------------------

    def exec_block(self, body, env) -> None:
        for statement in body:
            self.exec_statement(statement, env)

    def exec_statement(self, node, env) -> None:
        self._tick()
        if isinstance(node, ast.LocalDecl):
            env[node.name] = 0
            return
        if isinstance(node, ast.Assign):
            value = self.eval(node.value, env)
            target = node.target
            if isinstance(target, ast.Var):
                if target.name in env:
                    env[target.name] = value
                elif isinstance(self.globals.get(target.name), int):
                    self.globals[target.name] = value
                else:
                    raise InterpError(f"unknown variable {target.name!r}")
            else:  # Index
                array = self.globals.get(target.name)
                if not isinstance(array, list):
                    raise InterpError(f"{target.name!r} is not an array")
                index = self.eval(target.index, env)
                if index >= len(array):
                    raise InterpError(
                        f"index {index} out of bounds for {target.name!r}"
                    )
                array[index] = value
            return
        if isinstance(node, ast.If):
            if self.eval(node.cond, env) != 0:
                self.exec_block(node.then_body, env)
            else:
                self.exec_block(node.else_body, env)
            return
        if isinstance(node, ast.While):
            while self.eval(node.cond, env) != 0:
                try:
                    self.exec_block(node.body, env)
                except _Break:
                    break
                except _Continue:
                    continue
            return
        if isinstance(node, ast.For):
            if node.init is not None:
                self.exec_statement(node.init, env)
            while self.eval(node.cond, env) != 0:
                try:
                    self.exec_block(node.body, env)
                except _Break:
                    break
                except _Continue:
                    pass  # fall through to the step
                if node.step is not None:
                    self.exec_statement(node.step, env)
            return
        if isinstance(node, ast.Out):
            self.outputs.append(self.eval(node.value, env))
            return
        if isinstance(node, ast.Return):
            value = self.eval(node.value, env) if node.value is not None else 0
            raise _Returned(value)
        if isinstance(node, ast.Halt):
            raise _Halted()
        if isinstance(node, ast.Break):
            raise _Break()
        if isinstance(node, ast.Continue):
            raise _Continue()
        if isinstance(node, ast.ExprStatement):
            self.eval(node.value, env)
            return
        raise InterpError(f"cannot execute {type(node).__name__}")


def interpret(
    program: Union[str, ast.Program],
    inputs: Optional[List[int]] = None,
    max_steps: int = 1_000_000,
) -> InterpResult:
    """Interpret an NVC program (source text or parsed AST).

    Execution starts at ``main()``.

    Raises:
        InterpError: on runtime errors or if there is no ``main``.
    """
    tree = parse(program) if isinstance(program, str) else program
    interp = _Interp(tree, inputs, max_steps)
    try:
        main = tree.function("main")
    except KeyError as exc:
        raise InterpError(str(exc)) from exc
    if main.params:
        raise InterpError("main() cannot take parameters")
    returned = 0
    try:
        interp.exec_block(main.body, {})
    except _Returned as ret:
        returned = ret.value
    except _Halted:
        pass
    except (_Break, _Continue) as exc:
        raise InterpError("break/continue outside a loop") from exc
    return InterpResult(
        outputs=interp.outputs, globals=interp.globals, returned=returned
    )
