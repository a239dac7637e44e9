import ast
import dataclasses
import functools
import importlib
import pkgutil
import re
from pathlib import Path

import rifslab

README = Path(__file__).resolve().parents[1] / "README.md"
# numpy names that run BLAS or LAPACK (np.linalg.norm with an axis is an
# elementwise reduction, and allowed)
_BLAS_NAMES = {"polyfit", "dot", "vdot", "inner", "matmul", "einsum",
               "tensordot", "linalg"}


def test_public_names_resolve():
    names = rifslab.__all__
    assert [n for n in names if not hasattr(rifslab, n)] == []
    assert len(set(names)) == len(names)
    # the sampled Lipschitz check, the one-point apply and the explicit
    # composition oracle live in the tests
    for gone in ("apply", "validate_lip_bounds", "LipValidation",
                 "compose", "MapComposition"):
        assert gone not in names
        assert not hasattr(rifslab, gone)


def module_map_names() -> list[str]:
    """The backticked identifiers of README's module map (`name`,
    `module.name`, or a call `name(args)` as its name), file names
    excluded."""
    text = README.read_text(encoding="utf-8")
    bullets = text[text.index("Module map"):].split("\n\n")[1]
    names = re.findall(r"`([A-Za-z_][\w.]*)(?:\([^`]*\))?`", bullets)
    return [n for n in names
            if Path(n).suffix not in (".py", ".json", ".toml", ".md")]


def submodules():
    # __main__ runs the CLI on import
    return [importlib.import_module(f"rifslab.{info.name}")
            for info in pkgutil.iter_modules(rifslab.__path__)
            if info.name != "__main__"]


def test_module_map_names_resolve():
    # every submodule imported, so each is an attribute of rifslab
    roots = [rifslab] + submodules()

    def resolves(name):
        for root in roots:
            try:
                functools.reduce(getattr, name.split("."), root)
                return True
            except AttributeError:
                pass
        return False

    names = module_map_names()
    assert len(names) >= 25
    assert [n for n in names if not resolves(n)] == []


def test_every_dataclass_has_its_own_docstring():
    # without one, dataclasses fills __doc__ with the generated signature
    records = [cls for module in submodules() for cls in vars(module).values()
               if isinstance(cls, type) and dataclasses.is_dataclass(cls)
               and cls.__module__ == module.__name__]
    assert len(records) >= 20
    assert [cls.__qualname__ for cls in records
            if cls.__doc__.startswith(f"{cls.__name__}(")] == []


def blas_uses(source: str) -> list[str]:
    """Each place in the source that calls BLAS or LAPACK: the @ operator,
    a numpy name of _BLAS_NAMES, or np.linalg other than
    norm(..., axis=...)."""
    tree = ast.parse(source)
    imports = [a for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names]
    numpy = {a.asname or "numpy" for a in imports if a.name == "numpy"}
    axis_norms = {id(call.func.value) for call in ast.walk(tree)
                  if isinstance(call, ast.Call)
                  and isinstance(call.func, ast.Attribute)
                  and call.func.attr == "norm"
                  and any(kw.arg == "axis" for kw in call.keywords)}
    found = [f"import {a.name}" for a in imports
             if a.name.startswith("numpy.linalg")]
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and \
                isinstance(node.op, ast.MatMult):
            found.append(f"line {node.lineno}: @")
        elif isinstance(node, ast.ImportFrom) and (node.module or "") \
                .startswith("numpy") and (
                    "linalg" in node.module
                    or any(a.name in _BLAS_NAMES for a in node.names)):
            found.append(f"line {node.lineno}: from {node.module} import")
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and \
                node.value.id in numpy and node.attr in _BLAS_NAMES and \
                id(node) not in axis_norms:
            found.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return found


def test_guard_finds_every_blas_call():
    for snippet in ("a @ b", "a @= b", "np.linalg.svd(a)",
                    "np.linalg.norm(a)", "np.polyfit(x, y, 1)",
                    "np.dot(a, b)", "np.vdot(a, b)", "np.inner(a, b)",
                    "np.matmul(a, b)", "np.einsum('ij->i', a)",
                    "np.tensordot(a, b)", "la = np.linalg",
                    "from numpy.linalg import svd", "import numpy.linalg",
                    "from numpy import dot"):
        assert blas_uses("import numpy as np\n" + snippet), snippet
    assert blas_uses("import numpy as np\nnp.linalg.norm(a, axis=1)") == []


def test_no_run_calls_blas_or_lapack():
    # the first BLAS or LAPACK call of a process touches about 0.8 MB of
    # OpenBLAS/LAPACK pages, all of it added to the run's peak RSS
    found = {path.name: uses
             for path in Path(rifslab.__file__).parent.glob("*.py")
             if (uses := blas_uses(path.read_text(encoding="utf-8")))}
    assert found == {}, (
        "BLAS/LAPACK calls cost ~0.8 MB of peak RSS on first use", found)
