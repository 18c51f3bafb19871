"""Static hygiene of the package source, read with `ast`.

- Every module-level function and every non-dunder method of `src/redchar`
  is referenced by name somewhere else: in another part of the package
  (`__init__.py`, which only re-exports, does not count) or in the tests.
  A reference inside the definition itself (recursion) does not count.
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


def _references(tree: ast.AST) -> Counter:
    """Names used in `tree`: bare names and attribute names."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
    return out


def _definitions(tree: ast.Module):
    """Module-level functions and the methods of module-level classes."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions):
            yield node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item


def _source_modules():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules, f"no modules found under {SRC}"
    return modules


def test_every_function_and_method_is_referenced():
    references = Counter()
    for path in _source_modules() + sorted(TESTS.glob("*.py")):
        references += _references(_parse(path))
    unused = []
    for path in _source_modules():
        for node in _definitions(_parse(path)):
            if references[node.name] - _references(node)[node.name] <= 0:
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert unused == [], f"defined but never referenced: {unused}"


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
