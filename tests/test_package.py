import functools
import importlib
import pkgutil
import re
from pathlib import Path

import rifslab

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_names_resolve():
    names = rifslab.__all__
    assert [n for n in names if not hasattr(rifslab, n)] == []
    assert len(set(names)) == len(names)
    # the sampled Lipschitz check and the one-point apply live in the tests
    for gone in ("apply", "validate_lip_bounds", "LipValidation"):
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


def test_module_map_names_resolve():
    # every submodule imported, so each is an attribute of rifslab;
    # __main__ runs the CLI on import
    roots = [rifslab] + [importlib.import_module(f"rifslab.{info.name}")
                         for info in pkgutil.iter_modules(rifslab.__path__)
                         if info.name != "__main__"]

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
