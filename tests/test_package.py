import ast
import dataclasses
import functools
import importlib
import inspect
import json
import pkgutil
import re
import sys
import types
import typing
from pathlib import Path

import numpy as np
import pytest

import rifslab
from rifslab import (BernoulliSampler, CarpetSpec, CylinderMeasure,
                     OmegaSeq, RenderSpec, RifsError, TaskSpec, UsageError,
                     check_msc_grid, continuity_probe, count_boxes, cylinder_cover,
                     cylinder_images, geometry, level_masses, load_corpus,
                     sample_omega, splice, tasks)
from rifslab._record import Record, record

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


def test_public_names_are_the_lazy_table_and_the_errors():
    errors = {name for name, value in vars(rifslab.errors).items()
              if isinstance(value, type) and issubclass(value, RifsError)}
    assert len(errors) == 9
    table = [name for names in rifslab._EXPORTS.values() for name in names]
    assert sorted(rifslab.__all__) == sorted(table + [*errors])
    star = {}
    exec("from rifslab import *", star)
    listed = dir(rifslab)
    for name in rifslab.__all__:
        home = rifslab._HOME.get(name, "errors")
        assert getattr(rifslab, name) is getattr(getattr(rifslab, home), name)
        assert name in listed
        assert star[name] is getattr(rifslab, name)


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


def package_records() -> list[type]:
    """Every dataclass a submodule defines."""
    return [cls for module in submodules() for cls in vars(module).values()
            if isinstance(cls, type) and dataclasses.is_dataclass(cls)
            and cls.__module__ == module.__name__]


def test_every_dataclass_has_its_own_docstring():
    # without one, dataclasses fills __doc__ with the generated signature
    records = package_records()
    assert len(records) >= 20
    assert [cls.__qualname__ for cls in records
            if cls.__doc__.startswith(f"{cls.__name__}(")] == []


@pytest.fixture(scope="module")
def record_samples() -> dict[type, list]:
    """Instances of the package records, keyed by class: three corpus
    configs and every record they hold, the task table, the closed-form
    catalog, and one result of each call that returns a record."""
    cfg = load_corpus("carpet-splice")
    rifs, omega = cfg.rifs, cfg.omega
    cm = rifslab.CylinderMeasure(rifs, omega)
    roots = [
        cfg, load_corpus("cantor"), load_corpus("sample"),
        tasks.TASKS, geometry.CLOSED_FORMS,
        rifslab.estimate_box_dims(rifs, omega, (0.5, 0.25)),
        rifslab.similarity_dimension((0.5, 0.25)),
        rifslab.check_growth_conditions(rifs, 1.0, 1.0),
        rifslab.doubling_constants(rifslab.PowerGauge(1.0), 0.5, 1.0),
        rifslab.packing_lower_bound(np.eye(2), rifslab.PowerGauge(1.0), 0.5),
        cm, rifslab.mdp_bounds(cm, 1.5, (0.25,), np.array([[0.5, 0.5]])),
        rifslab.cylinder_cover(rifs, omega, 2),
        rifslab.attractor_points(rifs, omega, 0.3),
        rifslab.BernoulliSampler((0.5, 0.5), 3), RenderSpec(3, 2),
        rifslab.continuity_probe(rifs, omega, 1, [OmegaSeq((), (2,))], 2)]
    samples: dict[type, list] = {}

    def collect(obj):
        if isinstance(obj, dict):
            obj = list(obj.values())
        if isinstance(obj, (tuple, list)):
            for item in obj:
                collect(item)
        elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            samples.setdefault(type(obj), []).append(obj)
            for f in dataclasses.fields(obj):
                collect(getattr(obj, f.name))

    collect(roots)
    return samples


def stdlib_twin(cls: type) -> type:
    """A `@dataclass(frozen=True)` with the fields, defaults, name and
    `__post_init__` of `cls` (which reads nothing but its fields)."""
    fields = dataclasses.fields(cls)
    body = {"__qualname__": cls.__qualname__, "__module__": cls.__module__,
            "__annotations__": {f.name: f.type for f in fields},
            **{f.name: f.default for f in fields
               if f.default is not dataclasses.MISSING}}
    if "__post_init__" in vars(cls):
        body["__post_init__"] = cls.__post_init__
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), body))


def outcome(call):
    """The repr of what `call()` returns, or the type and text of what it
    raises."""
    try:
        return repr(call())
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("cls", package_records(),
                         ids=lambda cls: cls.__qualname__)
def test_record_behaves_as_a_stdlib_frozen_dataclass(cls, record_samples):
    twin = stdlib_twin(cls)
    assert [(f.name, f.type, f.default) for f in dataclasses.fields(cls)] \
        == [(f.name, f.type, f.default) for f in dataclasses.fields(twin)]
    assert inspect.signature(cls) == inspect.signature(twin)
    assert cls.__match_args__ == twin.__match_args__
    names = [f.name for f in dataclasses.fields(cls)]
    assert cls in record_samples
    rows = [[getattr(obj, n) for n in names] for obj in record_samples[cls]]
    for values in rows:
        required = [v for v, f in zip(values, dataclasses.fields(cls))
                    if f.default is dataclasses.MISSING]
        calls = [(values, {}), ([], dict(zip(names, values))),
                 (required, {}), (values[:-1], {}), ([], {}),
                 ([*values, 0], {}), (values, {"unknown": 0}),
                 (values, {names[0]: values[0]})]
        for args, kwargs in calls:
            assert outcome(lambda: cls(*args, **kwargs)) \
                == outcome(lambda: twin(*args, **kwargs))
        obj, twin_obj = cls(*values), twin(*values)
        for op in (hash, lambda x: setattr(x, names[0], 0),
                   lambda x: setattr(x, "unknown", 0),
                   lambda x: delattr(x, names[-1]),
                   lambda x: x.__eq__(0), lambda x: x != x,
                   lambda x: dataclasses.replace(x, **{names[-1]: values[-1]})):
            assert outcome(lambda: op(obj)) == outcome(lambda: op(twin_obj))
        for other in rows:
            assert outcome(lambda: obj == cls(*other)) \
                == outcome(lambda: twin_obj == twin(*other))


def test_a_record_in_its_own_field_reprs_as_a_stdlib_one():
    reprs = []
    for make in (TaskSpec, stdlib_twin(TaskSpec)):
        params = {}
        params["spec"] = make("dim", params)
        reprs.append(repr(params["spec"]))
    assert reprs == ["TaskSpec(type='dim', params={'spec': ...})"] * 2


def test_record_refuses_fields_its_methods_ignore():
    for base, field in ((Record, dataclasses.field(default_factory=list)),
                        (Record, dataclasses.field(default=0, compare=False)),
                        (object, 0)):
        with pytest.raises(TypeError, match="not a Record of plain fields"):
            record(type("Loose", (base,), {"__annotations__": {"x": "int"},
                                           "x": field}))


def test_record_reads_plain_fields_and_refuses_the_rest(monkeypatch):
    # record reads the fields itself, as dataclass would: a redeclared field
    # keeps its place and its inherited default, the subclass read before
    # its base; a class whose fields dataclass might read otherwise is
    # refused: ClassVar (bare, qualified or through an alias), InitVar,
    # KW_ONLY, a non-string annotation, no docstring, a mutable default,
    # a required field after a defaulted one
    module = types.ModuleType("record_fields")
    module.typing, module.ClassVar = typing, typing.ClassVar
    module.Limit = typing.ClassVar[int]
    module.InitVar, module.KW_ONLY = dataclasses.InitVar, dataclasses.KW_ONLY
    monkeypatch.setitem(sys.modules, module.__name__, module)

    def body(annotations, **defaults):
        return {"__module__": module.__name__, "__doc__": "A record.",
                "__annotations__": annotations, **defaults}

    base = body({"x": "int", "y": "tuple[int, ...]"}, y=())
    sub = body({"z": "str", "y": "tuple[int, ...]"}, z="z")
    Base = record(type("Base", (Record,), base))
    Sub = record(type("Sub", (Base,), sub))
    TwinBase = dataclasses.dataclass(frozen=True)(type("Base", (), base))
    TwinSub = dataclasses.dataclass(frozen=True)(type("Sub", (TwinBase,), sub))
    for cls, twin in ((Sub, TwinSub), (Base, TwinBase)):
        assert [(f.name, f.type, f.default) for f in dataclasses.fields(cls)] \
            == [(f.name, f.type, f.default) for f in dataclasses.fields(twin)]
        assert inspect.signature(cls) == inspect.signature(twin)
        assert cls.__match_args__ == twin.__match_args__
        assert repr(cls(1)) == repr(twin(1))
    assert [f.name for f in dataclasses.fields(Sub)] == ["x", "y", "z"]
    for namespace in (body({"k": "ClassVar[int]"}, k=3),
                      body({"q": "typing.ClassVar"}, q="q"),
                      body({"n": "Limit"}, n=1), body({"v": "InitVar[int]"}),
                      body({"_": "KW_ONLY", "x": "int"}), body({"x": int}),
                      {**body({"x": "int"}), "__doc__": None},
                      body({"x": "list"}, x=[]),
                      body({"x": "int", "y": "int"}, x=0)):
        with pytest.raises(TypeError, match="not a Record of plain fields"):
            record(type("Loose", (Record,), namespace))


def test_record_metadata_built_on_first_read_is_the_stdlib_twins(
        run_isolated):
    # a fresh process defines every record and uses them before anything
    # imports dataclasses, so each read below is the first; the
    # undecorated subclass is read before the record it derives from
    code = f"""
import json
import sys
import rifslab
from rifslab._record import Record
cfg = rifslab.load_corpus("carpet-splice")
cover = rifslab.cylinder_cover(cfg.rifs, cfg.omega, 2)

class Config(type(cfg)):
    pass

config = Config(*[getattr(cfg, n) for n in type(cfg).__match_args__])
preloaded = "dataclasses" in sys.modules
import dataclasses
import inspect
{inspect.getsource(stdlib_twin)}
bad = []
def check(what, got, want):
    if got != want:
        bad.append([what, repr(got), repr(want)])

def asdict(obj):
    # asdict deep-copies the maps, which compare by identity
    return json.dumps(dataclasses.asdict(obj), default=lambda value: (
        value.tolist() if hasattr(value, "tolist") else type(value).__name__))

base = type(cfg)
check("Config fields", dataclasses.fields(Config), dataclasses.fields(base))
check("Config signature", inspect.signature(Config), inspect.signature(base))
check("Config match_args", Config.__match_args__, base.__match_args__)
check("Config is_dataclass", dataclasses.is_dataclass(Config), True)
check("Config asdict", asdict(config), asdict(cfg))
moved = dataclasses.replace(config, seed=cfg.seed + 1)
check("Config replace", (type(moved), moved.seed), (Config, cfg.seed + 1))
check("Record is_dataclass", dataclasses.is_dataclass(Record), False)
check("Record signature", str(inspect.signature(Record)), "(*args, **kwargs)")

samples = {{}}
def collect(obj):
    if isinstance(obj, tuple):
        for item in obj:
            collect(item)
    elif dataclasses.is_dataclass(obj):
        samples.setdefault(type(obj), obj)
        for f in dataclasses.fields(obj):
            collect(getattr(obj, f.name))
collect((cfg, cover))
for cls, obj in samples.items():
    twin = stdlib_twin(cls)
    name = cls.__qualname__
    check(name + " fields", [(f.name, f.type, f.default)
                             for f in dataclasses.fields(cls)],
          [(f.name, f.type, f.default) for f in dataclasses.fields(twin)])
    check(name + " annotations", [f.name for f in dataclasses.fields(cls)],
          list(cls.__annotations__))
    check(name + " signature", inspect.signature(cls), inspect.signature(twin))
    check(name + " match_args", cls.__match_args__, twin.__match_args__)
    values = [getattr(obj, f.name) for f in dataclasses.fields(cls)]
    twin_obj = twin(*values)
    check(name + " asdict", asdict(obj), asdict(twin_obj))
    last = dataclasses.fields(cls)[-1].name
    check(name + " replace",
          repr(dataclasses.replace(obj, **{{last: values[-1]}})),
          repr(dataclasses.replace(twin_obj, **{{last: values[-1]}})))
print(json.dumps([preloaded, sorted(c.__qualname__ for c in samples), bad]))
"""
    done = run_isolated(code, timeout=120)
    assert done.returncode == 0, done.stderr
    preloaded, sampled, bad = json.loads(done.stdout.splitlines()[-1])
    assert not preloaded
    assert {"AmbientBox", "CylinderCover", "DeterministicIfs",
            "ExperimentConfig", "OmegaSeq", "Rifs", "TaskSpec"} <= set(sampled)
    assert bad == []


def test_importing_the_cli_execs_no_source(run_isolated):
    # the stdlib modules the package imports load first, so the count is
    # the package's own: six generated methods per @dataclass(frozen=True)
    # would make it 132
    nodes = [node for path in Path(rifslab.__file__).parent.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))]
    imported = sorted(
        {alias.name for node in nodes if isinstance(node, ast.Import)
         for alias in node.names}
        | {node.module for node in nodes
           if isinstance(node, ast.ImportFrom) and node.level == 0})
    code = f"""
import builtins
import importlib
for name in {imported!r}:
    importlib.import_module(name)
sources = []
real_exec = builtins.exec
def counting_exec(source, *args, **kwargs):
    if isinstance(source, str):
        sources.append(source)
    return real_exec(source, *args, **kwargs)
builtins.exec = counting_exec
import rifslab.cli
builtins.exec = real_exec
print(len(sources))
"""
    done = run_isolated(code, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0"]


def blas_uses(source: str) -> list[str]:
    """Each place in the source that calls BLAS or LAPACK: the @ operator,
    a numpy name of _BLAS_NAMES, or np.linalg other than
    norm(..., axis=...)."""
    tree = ast.parse(source)
    imports = [a for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names]
    numpy = {a.asname or "numpy" for a in imports if a.name == "numpy"} | {
        a.asname or a.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "_lazy"
        for a in node.names if a.name == "np"}
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
        if snippet.startswith(("np.", "la = np")):
            assert blas_uses("from ._lazy import np\n" + snippet), snippet
    assert blas_uses("import numpy as np\nnp.linalg.norm(a, axis=1)") == []


def test_no_run_calls_blas_or_lapack():
    # the first BLAS or LAPACK call of a process touches about 0.8 MB of
    # OpenBLAS/LAPACK pages, all of it added to the run's peak RSS
    found = {path.name: uses
             for path in Path(rifslab.__file__).parent.glob("*.py")
             if (uses := blas_uses(path.read_text(encoding="utf-8")))}
    assert found == {}, (
        "BLAS/LAPACK calls cost ~0.8 MB of peak RSS on first use", found)


# each call passes True where the library means a whole number
@pytest.mark.parametrize("call", [
    lambda cfg: CarpetSpec(True, 2, ((0, 0),)),
    lambda cfg: CarpetSpec(2, 2, ((True, 0),)),
    lambda cfg: cylinder_cover(cfg.rifs, cfg.omega, True),
    lambda cfg: cylinder_cover(cfg.rifs, cfg.omega, 2, budget=True),
    lambda cfg: cylinder_images(cfg.rifs, cfg.omega, True, [[0.5]]),
    lambda cfg: splice(cfg.omega, True, cfg.omega),
    lambda cfg: continuity_probe(cfg.rifs, cfg.omega, True, [cfg.omega],
                                 True),
    lambda cfg: count_boxes(np.array([[0.25]]), 0.5, cfg.rifs.ambient, True),
    lambda cfg: level_masses(CylinderMeasure(cfg.rifs, cfg.omega), True),
    lambda cfg: sample_omega(BernoulliSampler((0.5, 0.5), 1), True),
    lambda cfg: check_msc_grid([CarpetSpec(3, 3, ((0, 0), (2, 2)))],
                               OmegaSeq((), (1,)), True),
], ids=["carpet-size", "carpet-cell", "cover-depth", "walk-budget",
        "images-depth", "splice-depth", "probe-depths", "count-budget",
        "masses-depth", "sample-horizon", "msc-depth"])
def test_bool_is_refused_where_an_integer_is_meant(call, cantor_cfg):
    with pytest.raises(UsageError, match="must be an integer, not True"):
        call(cantor_cfg)


# malformed arguments are a caller error, whatever Python would raise
@pytest.mark.parametrize("make", [
    lambda: RenderSpec(4, 4, foreground=5),
    lambda: geometry.Similarity(0.5, 5),
    lambda: geometry.Similarity(0.5, ("a",)),
    lambda: geometry.Similarity("a", (0.5,)),
    lambda: geometry.Affine2([[0.5, 0.0], [0.0, 0.5]], (10 ** 400, 0.0)),
    lambda: CarpetSpec(2, 2, ((0, 0, 0),)),
    lambda: CarpetSpec(2, 2, (5,)),
], ids=["rgb-scalar", "shift-scalar", "shift-string", "ratio-string",
        "shift-past-floats", "cell-triple", "cell-scalar"])
def test_constructors_refuse_malformed_arguments_with_usage_error(make):
    with pytest.raises(UsageError):
        make()
