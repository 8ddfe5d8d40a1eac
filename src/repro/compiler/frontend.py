"""MiniC front end: parsing, symbols and type inference.

MiniC is a restricted, statically-typed language with Python *syntax*
(parsed with :mod:`ast`) compiled to the Alpha-like ISA.  It substitutes
for the paper's GCC Alpha cross-compiler: benchmarks written in MiniC get
real register allocation, loop nests, call frames and memory traffic, so
fault-injection outcomes depend on the same structural properties as the
paper's compiled C codes.

Supported subset
----------------
* two scalar types: ``int`` (i64) and ``float`` (IEEE-754 binary64);
* module-level declarations: scalar globals (``N = 10``), arrays
  (``A = iarray(64)``, ``B = farray(16)``, ``C = iarray_init([1, 2])``,
  ``D = farray_init([0.5, 2.0])``) and functions;
* statements: assignment, augmented assignment, ``if``/``elif``/``else``,
  ``while``, ``for i in range(...)``, ``break``/``continue``, ``return``,
  expression statements;
* expressions: literals, variables, 1-D array indexing, arithmetic,
  comparisons, boolean logic, calls, and the intrinsics listed in
  :mod:`repro.compiler.intrinsics`.

Parameters default to ``int``; annotate with ``: float`` for FP.  A
function returning ``float`` must annotate ``-> float`` (or be inferable
from its return expressions).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

INT = "int"
FLOAT = "float"

ARRAY_DECLS = {"iarray": INT, "farray": FLOAT,
               "iarray_init": INT, "farray_init": FLOAT}
# Function-local (stack-allocated) arrays.
LOCAL_ARRAY_DECLS = {"ilocal": INT, "flocal": FLOAT}


class CompileError(Exception):
    """Any MiniC front-end or code-generation error."""

    def __init__(self, message: str, node: ast.AST | None = None) -> None:
        if node is not None and hasattr(node, "lineno"):
            message = f"line {node.lineno}: {message}"
        super().__init__(message)


@dataclass
class ArrayInfo:
    name: str
    elem_type: str
    size: int
    init: list | None = None

    @property
    def label(self) -> str:
        return f"g_{self.name}"


@dataclass
class GlobalScalar:
    name: str
    type: str
    init: int | float = 0

    @property
    def label(self) -> str:
        return f"g_{self.name}"


@dataclass
class FuncInfo:
    name: str
    params: list[tuple[str, str]]
    ret_type: str
    node: ast.FunctionDef
    locals_types: dict[str, str] = field(default_factory=dict)
    # name -> (elem_type, size) for stack-allocated ilocal()/flocal().
    local_arrays: dict[str, tuple[str, int]] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return f"fn_{self.name}"


@dataclass
class ProgramInfo:
    functions: dict[str, FuncInfo] = field(default_factory=dict)
    arrays: dict[str, ArrayInfo] = field(default_factory=dict)
    globals: dict[str, GlobalScalar] = field(default_factory=dict)


def parse_program(source: str) -> ProgramInfo:
    """Parse MiniC source and build the program-level symbol table."""
    try:
        module = ast.parse(source)
    except SyntaxError as exc:
        raise CompileError(f"syntax error: {exc}") from exc

    program = ProgramInfo()
    for node in module.body:
        if isinstance(node, ast.FunctionDef):
            _collect_function(program, node)
        elif isinstance(node, ast.Assign):
            _collect_global(program, node)
        elif isinstance(node, (ast.Expr, ast.AnnAssign)):
            raise CompileError(
                "only functions and global declarations are allowed at "
                "module level", node)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            continue  # tolerated so sources read as valid Python modules
        else:
            raise CompileError(
                f"unsupported module-level statement "
                f"{type(node).__name__}", node)
    if "main" not in program.functions:
        raise CompileError("program must define a main() function")
    if program.functions["main"].params:
        raise CompileError("main() takes no parameters")

    for func in program.functions.values():
        func.locals_types = _infer_locals(program, func)
    _infer_return_types(program)
    return program


# -- collection ----------------------------------------------------------------


def _collect_function(program: ProgramInfo, node: ast.FunctionDef) -> None:
    if node.name in program.functions:
        raise CompileError(f"duplicate function '{node.name}'", node)
    params: list[tuple[str, str]] = []
    args = node.args
    if args.vararg or args.kwonlyargs or args.kwarg or args.defaults \
            or args.posonlyargs:
        raise CompileError(
            "only plain positional parameters are supported", node)
    if len(args.args) > 6:
        raise CompileError("at most 6 parameters are supported", node)
    for arg in args.args:
        params.append((arg.arg, _annotation_type(arg.annotation)))
    ret_type = _annotation_type(node.returns) if node.returns else ""
    program.functions[node.name] = FuncInfo(
        name=node.name, params=params, ret_type=ret_type, node=node)


def _annotation_type(annotation) -> str:
    if annotation is None:
        return INT
    if isinstance(annotation, ast.Name) and annotation.id in (INT, FLOAT):
        return annotation.id
    if isinstance(annotation, ast.Constant) and annotation.value is None:
        return INT
    raise CompileError("annotations must be 'int' or 'float'", annotation)


def _collect_global(program: ProgramInfo, node: ast.Assign) -> None:
    if len(node.targets) != 1 or not isinstance(node.targets[0], ast.Name):
        raise CompileError("globals must be simple assignments", node)
    name = node.targets[0].id
    if name in program.arrays or name in program.globals:
        raise CompileError(f"duplicate global '{name}'", node)
    value = node.value

    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name) \
            and value.func.id in ARRAY_DECLS:
        elem_type = ARRAY_DECLS[value.func.id]
        if value.func.id.endswith("_init"):
            init = _const_list(value, elem_type)
            program.arrays[name] = ArrayInfo(name, elem_type,
                                             len(init), init)
        else:
            if len(value.args) != 1:
                raise CompileError("array decl takes one size", node)
            size = _const_int(value.args[0])
            if size <= 0:
                raise CompileError("array size must be positive", node)
            program.arrays[name] = ArrayInfo(name, elem_type, size)
        return

    if isinstance(value, ast.Constant):
        if isinstance(value.value, bool) or not isinstance(
                value.value, (int, float)):
            raise CompileError("global initialiser must be int or float",
                               node)
        kind = FLOAT if isinstance(value.value, float) else INT
        program.globals[name] = GlobalScalar(name, kind, value.value)
        return
    if isinstance(value, ast.UnaryOp) and isinstance(value.op, ast.USub) \
            and isinstance(value.operand, ast.Constant):
        inner = value.operand.value
        kind = FLOAT if isinstance(inner, float) else INT
        program.globals[name] = GlobalScalar(name, kind, -inner)
        return
    raise CompileError("unsupported global initialiser", node)


def _const_int(node) -> int:
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    raise CompileError("expected integer constant", node)


def _const_list(call: ast.Call, elem_type: str) -> list:
    if len(call.args) != 1 or not isinstance(call.args[0],
                                             (ast.List, ast.Tuple)):
        raise CompileError("expected a literal list of constants", call)
    out = []
    for element in call.args[0].elts:
        negative = False
        if isinstance(element, ast.UnaryOp) and \
                isinstance(element.op, ast.USub):
            negative = True
            element = element.operand
        if not isinstance(element, ast.Constant) or not isinstance(
                element.value, (int, float)):
            raise CompileError("array initialiser items must be numeric "
                               "constants", element)
        value = -element.value if negative else element.value
        if elem_type == FLOAT:
            value = float(value)
        elif isinstance(value, float):
            raise CompileError("float constant in int array", element)
        out.append(value)
    return out


# -- type inference ------------------------------------------------------------


def _infer_locals(program: ProgramInfo, func: FuncInfo) -> dict[str, str]:
    """Infer local-variable types from assignments (fixed point)."""
    types: dict[str, str] = dict(func.params)
    func.local_arrays = _collect_local_arrays(program, func)
    changed = True
    guard = 0
    while changed:
        changed = False
        guard += 1
        if guard > 20:  # pragma: no cover - defensive
            raise CompileError("type inference did not converge",
                               func.node)
        for node in ast.walk(func.node):
            target = None
            value_type = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                target = node.targets[0].id
                if target in func.local_arrays:
                    continue  # the ilocal()/flocal() declaration itself
                value_type = _expr_type(program, types, node.value,
                                        func.local_arrays)
            elif isinstance(node, ast.AugAssign) and \
                    isinstance(node.target, ast.Name):
                target = node.target.id
                value_type = _expr_type(program, types, node.value,
                                        func.local_arrays)
                existing = types.get(target)
                if existing is not None:
                    value_type = _merge(existing, value_type)
            elif isinstance(node, ast.For) and \
                    isinstance(node.target, ast.Name):
                target = node.target.id
                value_type = INT
            if target is None or value_type is None:
                continue
            if target in func.local_arrays:
                continue  # the declaration statement itself
            if target in program.arrays:
                raise CompileError(
                    f"cannot assign to array '{target}'", node)
            if target in program.globals:
                continue  # assignment to a global scalar
            if types.get(target) != value_type:
                types[target] = _merge(types.get(target), value_type)
                changed = True
    return types


def _merge(existing: str | None, new: str) -> str:
    if existing is None:
        return new
    if existing == new:
        return existing
    # int assigned into a float variable is fine; float into int promotes
    # the variable to float (one type per variable for its whole life).
    return FLOAT


def _expr_type(program: ProgramInfo, local_types: dict[str, str],
               node: ast.expr,
               local_arrays: dict | None = None) -> str:
    """Static type of an expression ('int' or 'float')."""
    from .intrinsics import INTRINSIC_TYPES

    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool):
            raise CompileError("bool literals are not supported", node)
        if isinstance(node.value, float):
            return FLOAT
        if isinstance(node.value, int):
            return INT
        raise CompileError("unsupported literal", node)
    if isinstance(node, ast.Name):
        if node.id in local_types:
            return local_types[node.id]
        if node.id in program.globals:
            return program.globals[node.id].type
        if node.id in program.arrays:
            raise CompileError(
                f"array '{node.id}' used without an index", node)
        return INT  # not yet inferred; the fixed point converges
    if isinstance(node, ast.Subscript):
        if not isinstance(node.value, ast.Name):
            raise CompileError("only arrays can be indexed", node)
        name = node.value.id
        if name in program.arrays:
            return program.arrays[name].elem_type
        if local_arrays and name in local_arrays:
            return local_arrays[name][0]
        raise CompileError(
            f"'{name}' is not a global or local array", node)
    if isinstance(node, ast.BinOp):
        left = _expr_type(program, local_types, node.left,
                          local_arrays)
        right = _expr_type(program, local_types, node.right,
                           local_arrays)
        if isinstance(node.op, ast.Div):
            return FLOAT
        if isinstance(node.op, (ast.FloorDiv, ast.Mod)):
            if left == FLOAT or right == FLOAT:
                raise CompileError("// and % need integer operands", node)
            return INT
        if isinstance(node.op, (ast.LShift, ast.RShift, ast.BitAnd,
                                ast.BitOr, ast.BitXor)):
            if left == FLOAT or right == FLOAT:
                raise CompileError("bitwise ops need integer operands",
                                   node)
            return INT
        return FLOAT if FLOAT in (left, right) else INT
    if isinstance(node, ast.UnaryOp):
        if isinstance(node.op, ast.Not):
            return INT
        return _expr_type(program, local_types, node.operand,
                          local_arrays)
    if isinstance(node, (ast.Compare, ast.BoolOp)):
        return INT
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name):
            raise CompileError("only direct calls are supported", node)
        name = node.func.id
        if name in INTRINSIC_TYPES:
            ret = INTRINSIC_TYPES[name]
            if callable(ret):
                arg_types = [_expr_type(program, local_types, a,
                                        local_arrays)
                             for a in node.args]
                return ret(arg_types)
            return ret
        if name in program.functions:
            return program.functions[name].ret_type or INT
        raise CompileError(f"unknown function '{name}'", node)
    if isinstance(node, ast.IfExp):
        body = _expr_type(program, local_types, node.body,
                          local_arrays)
        orelse = _expr_type(program, local_types, node.orelse,
                            local_arrays)
        return _merge(body, orelse)
    raise CompileError(
        f"unsupported expression {type(node).__name__}", node)


def _infer_return_types(program: ProgramInfo) -> None:
    """Infer missing return types from return statements (two rounds, so
    forward calls settle)."""
    for _ in range(2):
        for func in program.functions.values():
            if func.node.returns is not None:
                continue  # explicitly annotated
            inferred = INT
            for node in ast.walk(func.node):
                if isinstance(node, ast.Return) and node.value is not None:
                    t = _expr_type(program, func.locals_types,
                                   node.value, func.local_arrays)
                    if t == FLOAT:
                        inferred = FLOAT
            func.ret_type = inferred


def expr_type(program: ProgramInfo, func: FuncInfo,
              node: ast.expr) -> str:
    """Public expression-type helper used by the code generator."""
    return _expr_type(program, func.locals_types, node,
                      func.local_arrays)


def _collect_local_arrays(program: ProgramInfo,
                          func: FuncInfo) -> dict[str, tuple[str, int]]:
    """Find ``name = ilocal(N)`` / ``flocal(N)`` declarations."""
    arrays: dict[str, tuple[str, int]] = {}
    for node in ast.walk(func.node):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name)
                and node.value.func.id in LOCAL_ARRAY_DECLS):
            continue
        name = node.targets[0].id
        if name in arrays:
            raise CompileError(
                f"local array '{name}' declared twice", node)
        if name in program.arrays or name in program.globals:
            raise CompileError(
                f"'{name}' shadows a global declaration", node)
        size = _const_int(node.value.args[0]) \
            if len(node.value.args) == 1 else 0
        if not 0 < size <= 4096:
            raise CompileError(
                "local array size must be a constant in [1, 4096]",
                node)
        arrays[name] = (LOCAL_ARRAY_DECLS[node.value.func.id], size)
    return arrays
