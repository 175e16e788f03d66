"""The frozen node classes, declared with `lang.node`, against stock
`dataclass(frozen=True, slots=True)` twins, and the checks that every
frozen dataclass of the package is declared that way."""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
from dataclasses import (
    MISSING,
    FrozenInstanceError,
    InitVar,
    dataclass,
    field,
    fields,
    is_dataclass,
    replace,
)
from pathlib import Path

import pytest

import specrepair
from specrepair.lang import (
    ArrayDecl,
    Command,
    Fail,
    Lit,
    Pure,
    PtrRead,
    Seq,
    Skip,
    Var,
    _Compound,
    node,
)

SOURCES = Path(specrepair.__file__).resolve().parent
MODULES = [importlib.import_module(f"specrepair.{info.name}")
           for info in pkgutil.iter_modules([str(SOURCES)])
           if info.name != "__main__"]


def _frozen_dataclasses(module):
    return [cls for cls in vars(module).values()
            if isinstance(cls, type) and cls.__module__ == module.__name__
            and is_dataclass(cls) and cls.__dataclass_params__.frozen]


NODES = [cls for module in MODULES for cls in _frozen_dataclasses(module)]

# Two different values of each field type the node classes declare.
SAMPLES = {
    "str": ("x", "y"),
    "int": (3, 4),
    "bool": (True, False),
    "Value": (5, True),
    "Expr": (Var("x"), Lit(2)),
    "Rhs": (Pure(Var("x")), PtrRead("L", Lit(1))),
    "Command": (Skip(), Seq(Skip(), Fail())),
    "ArrayDecl": (ArrayDecl("a", 1, 4, "L"), ArrayDecl("b", 5, 2, "H")),
    "frozenset[str]": (frozenset(), frozenset({"x"})),
    "tuple[int, ...]": ((), (1, 2)),
    "tuple[Command, ...]": ((), (Skip(),)),
}


def _twin(cls):
    """`cls` declared with a stock `dataclass(frozen=True, slots=True)`:
    the same bases, fields, defaults and methods written in its module."""
    params = cls.__dataclass_params__
    namespace = {name: value for name, value in vars(cls).items()
                 if inspect.isfunction(value)
                 and inspect.getfile(value) == inspect.getfile(cls)}
    namespace.update({f.name: f.default for f in fields(cls)
                      if f.default is not MISSING})
    namespace.update(__annotations__={f.name: f.type for f in fields(cls)},
                     __module__=cls.__module__,
                     __qualname__=cls.__qualname__)
    return dataclass(frozen=True, slots=True, eq=params.eq,
                     repr=params.repr)(
        type(cls.__name__, cls.__bases__, namespace))


def _state(node) -> list:
    return [getattr(node, f.name) for f in fields(node)]


@pytest.mark.parametrize("cls", NODES, ids=lambda cls: cls.__qualname__)
def test_node_builds_what_a_stock_dataclass_builds(cls):
    twin = _twin(cls)
    assert inspect.signature(cls) == inspect.signature(twin)
    names = [f.name for f in fields(cls)]
    required = sum(f.default is MISSING for f in fields(cls))
    # a class with value equality: its own, or the generated one
    by_value = cls.__eq__ is not object.__eq__
    # the compound commands' methods walk the real classes only
    twin_methods = not issubclass(cls, _Compound)
    samples = [[SAMPLES[f.type][k] for f in fields(cls)] for k in (0, 1)]
    for args in samples + [samples[0][:required]]:
        built = cls(*args)
        stock = object.__new__(cls)
        twin.__init__(stock, *args)
        assert all(map(lambda a, b: a is b, _state(built), args))
        assert _state(built) == _state(stock) == _state(twin(*args))
        assert _state(cls(**dict(zip(names, args)))) == _state(built)
        assert repr(built) == repr(stock) == repr(twin(*args))
        if by_value:
            assert built == stock == cls(**dict(zip(names, args)))
            assert hash(built) == hash(stock)
            if twin_methods:
                assert hash(built) == hash(twin(*args))
        assert _state(replace(built, **dict(zip(names, samples[1])))) == \
            samples[1]
        for name in names:
            with pytest.raises(FrozenInstanceError):
                setattr(built, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(built, name)
        if issubclass(cls, Command):
            object.__setattr__(built, "_fetched", args)
            assert built._fetched is args
            assert not by_value or built == stock
    if cls.__dataclass_params__.eq:
        ours, theirs = ([kind(*args) for args in samples]
                        for kind in (cls, twin))
        assert (ours[0] == ours[1]) == (theirs[0] == theirs[1])
        assert (ours[0] == cls(*samples[0])) == \
            (theirs[0] == twin(*samples[0]))


def test_every_frozen_dataclass_is_a_node():
    # `lang.node` stores each field through its slot; the stock frozen
    # constructor calls `object.__setattr__` once per field
    for module in MODULES:
        for cls in _frozen_dataclasses(module):
            code = cls.__init__.__code__
            assert "__setattr__" not in code.co_names, cls
            assert set(code.co_freevars) == \
                {f"_set_{f.name}" for f in fields(cls)}, cls
    # and no class, not even one without fields, is declared frozen
    # through `dataclass` itself
    for path in SOURCES.glob("*.py"):
        for item in ast.walk(ast.parse(path.read_text())):
            if isinstance(item, ast.ClassDef):
                for call in item.decorator_list:
                    assert not any(k.arg == "frozen" for k in getattr(
                        call, "keywords", ())), f"{path.name}:{item.name}"


class _Factory:
    items: tuple = field(default_factory=tuple)


class _InitOnly:
    scale: InitVar[int]


class _KeywordOnly:
    name: str = field(kw_only=True)


class _NotInit:
    name: str = field(init=False, default="x")


class _PostInit:
    name: str

    def __post_init__(self):
        pass


@pytest.mark.parametrize("cls", [_Factory, _InitOnly, _KeywordOnly,
                                 _NotInit, _PostInit],
                         ids=lambda cls: cls.__name__)
def test_node_refuses_what_its_constructor_cannot_build(cls):
    # each needs the generated constructor's extra code
    with pytest.raises(TypeError, match="plain positional parameter"):
        node(cls)


def test_sources_parse_as_python_3_10():
    # pyproject.toml declares `requires-python = ">=3.10"`
    for path in sorted(SOURCES.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path),
                  feature_version=(3, 10))
