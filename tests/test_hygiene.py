"""Static hygiene of the package source, read with `ast`.

- Every module-level function and every non-dunder method or property of
  `src/redchar` is referenced somewhere else: in another part of the package
  (`__init__.py`, which only re-exports, does not count) or in the tests.
  A reference inside the definition itself (recursion) does not count.
  Functions are matched by name.  Methods are matched by (class, name): an
  attribute reference counts for class C when its receiver resolves to C
  (`self`, the class itself, a variable whose last binding is annotated C
  or holds a C, a call or field whose annotation names C), or, unresolved,
  when C is the only class that binds that name.  So a dead method is not
  hidden by another class's attribute of the same name.
- Memos are declared attributes, not string-named ones: no `getattr` or
  `setattr` call in the package names an attribute with a string literal
  that starts with an underscore.
- No `assert` statement in the package: `python -O` removes them, so every
  internal check raises explicitly.
- Polynomial arithmetic over F_p has one home: a function named `_poly*` or
  `poly_*` is defined only in `finitefield.py`.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "redchar"
TESTS = ROOT / "tests"


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


def _references(tree: ast.Module, types: _Types) -> tuple[Counter, dict]:
    """The references in `tree`: every bare and attribute name, and
    (class, name) for the attributes that resolve to a class; and, per
    definition (a module function's name or (class, method)), the
    references inside it."""
    total, inside = Counter(), {}

    def count(key, current):
        total[key] += 1
        if current is not None:
            inside.setdefault(current, Counter())[key] += 1

    def visit(node, scope, current):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTIONS):
                    key = current or (node.name, item.name)
                    visit(item, types.scope(item, scope, node.name), key)
                else:
                    visit(item, scope, current)
            return
        if isinstance(node, ast.Name):
            count(node.id, current)
        elif isinstance(node, ast.Attribute):
            count(node.attr, current)
            kind = types.resolve(node.value, scope)
            if not isinstance(kind, str):
                binders = types.binders.get(node.attr, ())
                kind = next(iter(binders)) if len(binders) == 1 else None
            if kind is not None:
                count((kind, node.attr), current)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (*FUNCTIONS, ast.Lambda)):
                key = current or (child.name if isinstance(child, FUNCTIONS) else None)
                visit(child, types.scope(child, scope), key)
            else:
                visit(child, scope, current)

    visit(tree, types.scope(tree, {}), None)
    return total, inside


def _definitions(tree: ast.Module):
    """(key, node) for the module-level functions (keyed by name) and the
    non-dunder methods and properties of module-level classes (keyed by
    (class, name))."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTIONS) and not _is_dunder(item.name):
                    yield (node.name, item.name), item


def _unreferenced(package: dict[str, str], others: list[str]) -> list[str]:
    """The definitions of the `package` sources (file name -> text) that no
    other place in them or in the `others` sources references."""
    trees = {name: ast.parse(text, filename=name) for name, text in package.items()}
    types = _Types(list(trees.values()))
    total, inside = Counter(), {}
    for tree in [*trees.values(), *(ast.parse(text) for text in others)]:
        refs, per_definition = _references(tree, types)
        total += refs
        for key, counter in per_definition.items():
            inside.setdefault(key, Counter()).update(counter)
    unused = []
    for name, tree in trees.items():
        for key, node in _definitions(tree):
            if total[key] - inside.get(key, Counter())[key] <= 0:
                label = key if isinstance(key, str) else ".".join(key)
                unused.append(f"{name}:{node.lineno} {label}")
    return unused


def _source_modules():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules, f"no modules found under {SRC}"
    return modules


def test_every_function_and_method_is_referenced():
    package = {path.name: path.read_text() for path in _source_modules()}
    others = [path.read_text() for path in sorted(TESTS.glob("*.py"))]
    unused = _unreferenced(package, others)
    assert unused == [], f"defined but never referenced: {unused}"


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


def test_a_dead_method_sharing_an_attribute_name_is_flagged():
    # nothing calls Label.n, but `.n` is read on a Spec: a count by bare
    # name would take that read for a call
    package = {"planted.py": _PLANTED}
    assert _unreferenced(package, ["spec_order(Spec(2))"]) == ["planted.py:3 Label.n"]
    # a receiver that resolves to Label is a call of Label.n ...
    typed = "def read(label: Label):\n    return label.n\n"
    assert _unreferenced({**package, "reader.py": typed}, ["spec_order, read"]) == []
    # ... one that does not resolve is not, as two classes bind `n`
    untyped = "def read(label):\n    return label.n\n"
    assert _unreferenced({**package, "reader.py": untyped}, ["spec_order, read"]) == ["planted.py:3 Label.n"]
    # an unresolved receiver still counts for a name that one class binds
    loose = {"planted.py": _PLANTED.replace("spec: Spec", "spec").replace("class Label:\n    def n", "class Label:\n    def m")}
    assert _unreferenced(loose, ["spec_order, Label().m"]) == []
    # and a reference from inside the definition itself does not count
    recursive = _PLANTED.replace("return 1", "return self.n()")
    assert _unreferenced({"planted.py": recursive}, ["spec_order(Spec(2))"]) == ["planted.py:3 Label.n"]


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
