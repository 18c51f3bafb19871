"""Static hygiene of the package source, read with `ast`.

- Every module-level function and every non-dunder method or property of
  `src/redchar` is reachable from the package's roots: the module-level
  statements of its modules (`cli.CHECKS`, the call of `cli.main` under
  `__main__`) and the names in `redchar.__all__`.  `__init__.py`, which only
  re-exports, and the tests are not roots, so code that only the tests call
  is flagged, and so are dead definitions that only call each other.  A
  definition reached reaches every name it references; a class reached
  reaches its body, bases, decorators and dunder methods other than
  `__init__`, but each other method of it only through a reference, and its
  `__init__` only where the class is called.  Functions are matched by name.
  Methods are matched by (class, name): an attribute reference counts for
  class C when its receiver resolves to C (`self`, the class itself, a
  variable whose last binding is annotated C or holds a C, a call or field
  whose annotation names C), or, unresolved, when C is the only class that
  binds that name and the reference is not a call of C's property.  So a
  dead method is not hidden by another class's attribute of the same name,
  nor a dead property by a call such as `dict.values()`.
- Memos are declared attributes, not string-named ones: no `getattr` or
  `setattr` call in the package names an attribute with a string literal
  that starts with an underscore.
- No `assert` statement in the package: `python -O` removes them, so every
  internal check raises explicitly.
- Polynomial arithmetic over F_p has one home: a function named `_poly*` or
  `poly_*` is defined only in `finitefield.py`.
- Matrices over F_q have one home: only `groups.py` uses an attribute named
  `tables` (the field's lookup tables), so no other module multiplies group
  elements entry by entry.
"""

import ast
from pathlib import Path

import redchar

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "redchar"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
SEQUENCES = ("list", "tuple", "Sequence", "Iterable", "Iterator")


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _position(node: ast.AST) -> tuple[int, int]:
    return node.lineno, node.col_offset


def _local_nodes(node: ast.AST):
    """The nodes under `node`, but not inside nested functions or classes."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        sub = stack.pop()
        yield sub
        if not isinstance(sub, (*FUNCTIONS, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(sub))


class _Types:
    """What annotations say about the package's classes.

    A type is a class name, ("of", name) for a sequence of that class, or
    None when unknown.  `binders[attr]` is every class that binds `attr`:
    as a method, a class-level name, or an attribute set on `self`.
    """

    def __init__(self, modules: list[ast.Module]):
        self.classes = {n.name for m in modules for n in m.body if isinstance(n, ast.ClassDef)}
        self.binders: dict[str, set] = {}
        self.fields: dict[tuple, object] = {}  # (class, attr) -> type of the field or result
        self.properties = {  # (class, attr) of the methods read as attributes
            (cls.name, item.name)
            for m in modules
            for cls in m.body
            if isinstance(cls, ast.ClassDef)
            for item in cls.body
            if isinstance(item, FUNCTIONS)
            and any(getattr(d, "id", getattr(d, "attr", None)) in ("property", "cached_property")
                    for d in item.decorator_list)
        }
        self.returns = {
            n.name: self.annotation(n.returns) for m in modules for n in m.body if isinstance(n, FUNCTIONS)
        }
        for cls in (n for m in modules for n in m.body if isinstance(n, ast.ClassDef)):
            for item in cls.body:
                if isinstance(item, FUNCTIONS):
                    self._bind(cls.name, item.name, self.annotation(item.returns))
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    self._bind(cls.name, item.target.id, self.annotation(item.annotation))
                elif isinstance(item, ast.Assign):
                    for target in item.targets:
                        if isinstance(target, ast.Name):
                            self._bind(cls.name, target.id, None)
            for sub in ast.walk(cls):
                if (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.ctx, ast.Store)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                ):
                    self._bind(cls.name, sub.attr, None)
                elif isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Attribute):
                    self._bind(cls.name, sub.target.attr, self.annotation(sub.annotation))

    def _bind(self, cls: str, attr: str, kind) -> None:
        self.binders.setdefault(attr, set()).add(cls)
        if kind is not None:
            self.fields.setdefault((cls, attr), kind)

    def annotation(self, node):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return self.annotation(ast.parse(node.value, mode="eval").body)
        if isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            return name if name in self.classes else None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):  # X | None
            kinds = {self.annotation(node.left), self.annotation(node.right)} - {None}
            return kinds.pop() if len(kinds) == 1 else None
        if isinstance(node, ast.Subscript):  # list[X], tuple[X, ...]
            outer = node.value.id if isinstance(node.value, ast.Name) else getattr(node.value, "attr", None)
            inner = node.slice.elts[0] if isinstance(node.slice, ast.Tuple) else node.slice
            kind = self.annotation(inner)
            if outer in SEQUENCES and isinstance(kind, str):
                return ("of", kind)
        return None

    def resolve(self, expr, scope: dict):
        """The type of an expression, from the scope's variables."""
        if isinstance(expr, ast.Name):
            if expr.id in self.classes:
                return expr.id
            kind = None  # the last binding of the name before the reference
            for at, bound in scope.get(expr.id, ()):
                if at > _position(expr):
                    break
                kind = bound
            return kind
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name):
                return func.id if func.id in self.classes else self.returns.get(func.id)
            if isinstance(func, ast.Attribute):
                owner = self.resolve(func.value, scope)
                if isinstance(owner, str):
                    return self.fields.get((owner, func.attr))
                return self.returns.get(func.attr)  # module.function(...)
        if isinstance(expr, ast.Attribute):
            owner = self.resolve(expr.value, scope)
            return self.fields.get((owner, expr.attr)) if isinstance(owner, str) else None
        if isinstance(expr, ast.Subscript):
            seq = self.resolve(expr.value, scope)
            if isinstance(seq, tuple):
                return seq if isinstance(expr.slice, ast.Slice) else seq[1]
        if isinstance(expr, ast.BinOp):  # the package's operators keep the left operand's class
            return self.resolve(expr.left, scope)
        return None

    def scope(self, node, outer: dict, owner: str | None = None) -> dict:
        """The variables of a function (or module) body: name -> (position,
        type) per binding, in source order, so that a reference reads the
        last binding before it.  Arguments take their annotations and the
        first one of a method of `owner` is `owner`; a variable of the
        enclosing scope is seen with its last type, bound before the body."""
        start = (0, -1)
        scope = {name: [(start, entries[-1][1])] for name, entries in outer.items()}
        if not isinstance(node, ast.Module):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                scope[arg.arg] = [(start, self.annotation(arg.annotation))]
            static = any(getattr(d, "id", None) == "staticmethod" for d in getattr(node, "decorator_list", ()))
            if owner is not None and args.args and not static:
                scope[args.args[0].arg] = [(start, owner)]
        # id(target) -> (node that sets its position, target, thunk giving its type)
        bindings = {}
        for sub in _local_nodes(node):
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1 and isinstance(sub.targets[0], ast.Name):
                target, kind = sub.targets[0], lambda s=sub: self.resolve(s.value, scope)
            elif isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                target, kind = sub.target, lambda s=sub: self.annotation(s.annotation)
            elif isinstance(sub, (ast.For, ast.AsyncFor)) and isinstance(sub.target, ast.Name):
                target, kind = sub.target, lambda s=sub: self.element(self.resolve(s.iter, scope))
            elif isinstance(sub, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                # the element expression comes first in the source, so the
                # loop variables are bound at the start of the comprehension
                for gen in sub.generators:
                    if isinstance(gen.target, ast.Name):
                        bindings[id(gen.target)] = (
                            sub, gen.target, lambda g=gen: self.element(self.resolve(g.iter, scope))
                        )
                continue
            else:
                continue
            bindings[id(target)] = (target, target, kind)
        for sub in _local_nodes(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store) and id(sub) not in bindings:
                bindings[id(sub)] = (sub, sub, lambda: None)
        for at, target, kind in sorted(bindings.values(), key=lambda b: _position(b[0])):
            scope.setdefault(target.id, []).append((_position(at), kind()))
        return scope

    @staticmethod
    def element(kind):
        return kind[1] if isinstance(kind, tuple) else None


def _references(tree: ast.Module, types: _Types) -> dict:
    """The references in `tree`, per place that makes them: every bare and
    attribute name, and (class, name) for the attributes that resolve to a
    class.  The place is None for a module-level statement, a module
    function's name or (class, method) for a definition (nested functions
    count for the definition around them), and a class's name for its body
    outside the methods, its decorators, its bases and its dunder methods
    but `__init__`, which run whenever the class is used.  A call of a class
    references its (class, "__init__")."""
    inside: dict = {}
    called = set()  # id() of the nodes that are the function of a call

    def record(key, current):
        inside.setdefault(current, set()).add(key)

    def visit(node, scope, current):
        if isinstance(node, ast.ClassDef):
            own = current or node.name
            for item in (*node.decorator_list, *node.bases, *node.keywords):
                visit(item, scope, own)
            for item in node.body:
                if isinstance(item, FUNCTIONS):
                    own_key = item.name == "__init__" or not _is_dunder(item.name)
                    key = current or ((node.name, item.name) if own_key else node.name)
                    visit(item, types.scope(item, scope, node.name), key)
                else:
                    visit(item, scope, own)
            return
        if isinstance(node, ast.Call):
            called.add(id(node.func))
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in types.classes:
                record((name, "__init__"), current)
        if isinstance(node, ast.Name):
            record(node.id, current)
        elif isinstance(node, ast.Attribute):
            record(node.attr, current)
            kind = types.resolve(node.value, scope)
            if not isinstance(kind, str):
                binders = types.binders.get(node.attr, ())
                kind = next(iter(binders)) if len(binders) == 1 else None
                if (kind, node.attr) in types.properties and id(node) in called:
                    kind = None  # a call of what the receiver holds, not of the property
            if kind is not None:
                record((kind, node.attr), current)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (*FUNCTIONS, ast.Lambda)):
                key = current or (child.name if isinstance(child, FUNCTIONS) else None)
                visit(child, types.scope(child, scope), key)
            else:
                visit(child, scope, current)

    visit(tree, types.scope(tree, {}), None)
    return inside


def _definitions(tree: ast.Module):
    """(key, node) for the module-level functions (keyed by name) and the
    `__init__`, the non-dunder methods and the properties of module-level
    classes (keyed by (class, name))."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTIONS) and (item.name == "__init__" or not _is_dunder(item.name)):
                    yield (node.name, item.name), item


def _unreachable(package: dict[str, str], roots) -> list[str]:
    """The definitions of the `package` sources (file name -> text) that
    nothing reaches from the roots: the module-level statements of the
    sources and the names in `roots`.  A definition reached is followed
    through every reference it makes, so dead code that only dead code (or
    only itself) uses is found too."""
    trees = {name: ast.parse(text, filename=name) for name, text in package.items()}
    types = _Types(list(trees.values()))
    edges: dict = {}
    for tree in trees.values():
        for key, refs in _references(tree, types).items():
            edges.setdefault(key, set()).update(refs)
    reached, stack = set(), [None, *roots]
    while stack:
        key = stack.pop()
        if key not in reached:
            reached.add(key)
            stack.extend(edges.get(key, ()))
    return [
        f"{name}:{node.lineno} {key if isinstance(key, str) else '.'.join(key)}"
        for name, tree in trees.items()
        for key, node in _definitions(tree)
        if key not in reached
    ]


def _source_modules():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules, f"no modules found under {SRC}"
    return modules


def test_every_function_and_method_is_reachable():
    # the roots are the modules' own statements (`cli.CHECKS`, the call of
    # `cli.main` under __main__) and the public names; the tests are not one
    package = {path.name: path.read_text() for path in _source_modules()}
    unreachable = _unreachable(package, redchar.__all__)
    assert unreachable == [], f"defined but not reachable from the package's roots: {unreachable}"


_PLANTED = """
class Label:
    def n(self):
        return 1


class Spec:
    def __init__(self, n):
        self.n = n

    @property
    def order(self):
        return self.n


def spec_order(spec: Spec) -> int:
    return spec.order + spec.n
"""
_MAIN = {"main.py": "spec_order(Spec(2))\n"}


def test_a_dead_method_sharing_an_attribute_name_is_flagged():
    # nothing calls Label.n, but `.n` is read on a Spec: a count by bare
    # name would take that read for a call
    package = {"planted.py": _PLANTED}
    assert _unreachable({**package, **_MAIN}, []) == ["planted.py:3 Label.n"]
    # a receiver that resolves to Label is a call of Label.n ...
    typed = "def read(label: Label):\n    return label.n\n"
    assert _unreachable({**package, **_MAIN, "reader.py": typed}, ["read"]) == []
    # ... one that does not resolve is not, as two classes bind `n`
    untyped = "def read(label):\n    return label.n\n"
    assert _unreachable({**package, **_MAIN, "reader.py": untyped}, ["read"]) == ["planted.py:3 Label.n"]
    # an unresolved receiver still counts for a name that one class binds
    loose = {"planted.py": _PLANTED.replace("spec: Spec", "spec").replace("class Label:\n    def n", "class Label:\n    def m")}
    assert _unreachable({**loose, "main.py": "spec_order(Spec(1))\nLabel().m\n"}, []) == []
    # and a reference from inside the definition itself does not count
    recursive = _PLANTED.replace("return 1", "return self.n()")
    assert _unreachable({"planted.py": recursive, **_MAIN}, []) == ["planted.py:3 Label.n"]


def test_code_that_only_tests_or_dead_code_reach_is_flagged():
    # an exported class is a root, but each of its methods counts only if
    # something reaches it, and its __init__ only if something calls it
    assert _unreachable({"planted.py": _PLANTED}, ["Spec"]) == [
        "planted.py:3 Label.n", "planted.py:8 Spec.__init__", "planted.py:12 Spec.order",
        "planted.py:16 spec_order",
    ]
    # a helper that only a test would call: nothing in the package reaches
    # it, and the tests are not a root
    helper = "def helper():\n    return 1\n"
    assert _unreachable({**_MAIN, "planted.py": _PLANTED + helper}, []) == [
        "planted.py:3 Label.n", "planted.py:18 helper",
    ]
    # two dead functions that call each other: each is referenced, and
    # neither is reached
    pair = "def ping(n):\n    return pong(n - 1) if n else 0\n\n\ndef pong(n):\n    return ping(n)\n"
    assert _unreachable({**_MAIN, "planted.py": _PLANTED, "pair.py": pair}, []) == [
        "planted.py:3 Label.n", "pair.py:1 ping", "pair.py:5 pong",
    ]


_CONSTRUCTED = """
class Table:
    def __init__(self, rows):
        self.rows = rows

    @property
    def values(self):
        return self.rows


def size(table) -> int:
    return len(table.rows) if isinstance(table, Table) else 0
"""


def test_a_constructor_and_a_property_count_only_where_they_run():
    # naming the class is not calling it: its __init__ stays unreached until
    # some code constructs the class
    package = {"planted.py": _CONSTRUCTED, "main.py": "size\n"}
    assert _unreachable(package, []) == ["planted.py:3 Table.__init__", "planted.py:7 Table.values"]
    assert _unreachable({**package, "main.py": "size(Table([1]))\n"}, []) == ["planted.py:7 Table.values"]
    # a call of `.values()` on an unresolved receiver is a call of what it
    # holds (a dict's values), not a read of the only property so named ...
    called = "def count(d):\n    return len(d.values())\n"
    package["reader.py"] = called
    assert "planted.py:7 Table.values" in _unreachable(package, ["count"])
    # ... while a read of it counts
    package["reader.py"] = called.replace("d.values()", "d.values")
    assert "planted.py:7 Table.values" not in _unreachable(package, ["count"])


def test_no_string_named_private_attributes():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("getattr", "setattr")
                and len(node.args) >= 2
            ):
                continue
            literals = [
                sub.value
                for sub in ast.walk(node.args[1])
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
            ]
            if any(text.startswith("_") for text in literals):
                offenders.append(f"{path.name}:{node.lineno} {node.func.id}{literals}")
    assert offenders == [], f"string-named private attributes: {offenders}"


def test_no_assert_statements():
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == [], f"assert statements vanish under python -O: {offenders}"


def test_polynomial_toolkit_lives_only_in_finitefield():
    offenders = [
        f"{path.name}:{node.lineno} {node.name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "finitefield.py"
        for node in ast.walk(_parse(path))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith(("_poly", "poly_"))
    ]
    assert offenders == [], f"F_p polynomial helpers outside finitefield: {offenders}"


def test_matrix_arithmetic_lives_only_in_groups():
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "groups.py"
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Attribute) and node.attr == "tables"
    ]
    assert offenders == [], f"F_q lookup tables read outside groups: {offenders}"
