"""Every annotation in ``repro`` resolves, on every supported Python.

``typing.get_type_hints`` evaluates a function's annotations in its
module's namespace, so a name the module never binds (a ``Tuple`` it
forgot to import) raises ``NameError`` there, and in every tool that
introspects the signature.  Names imported under ``if TYPE_CHECKING:``
count as bound: they exist for type checkers, and importing them at run
time would be circular.  ``X | Y`` unions are refused outright, because
the package supports Python 3.9, which cannot evaluate them.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import typing

import repro


def _modules():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        yield importlib.import_module(info.name)


def _type_checking_names(module) -> dict:
    """The names ``module`` imports under ``if TYPE_CHECKING:``."""
    names: dict = {}
    context = {"__name__": module.__name__, "__package__": module.__package__}
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, ast.If) and ast.unparse(node.test).endswith(
            "TYPE_CHECKING"
        ):
            block = ast.Module(body=node.body, type_ignores=[])
            exec(compile(block, module.__file__, "exec"), context, names)
    return names


def _callables(module):
    """``(name, function)`` for each function and method ``module`` defines."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                if isinstance(member, property):
                    functions = [member.fget, member.fset, member.fdel]
                else:
                    functions = [member]
                for function in functions:
                    if inspect.isfunction(function):
                        yield f"{name}.{attr}", function


def _uses_union_operator(annotation) -> bool:
    if not isinstance(annotation, str):
        return False
    return any(
        isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr)
        for node in ast.walk(ast.parse(annotation, mode="eval"))
    )


def test_every_annotation_resolves():
    checked = 0
    unresolved = []
    for module in _modules():
        bound = _type_checking_names(module)
        for name, function in _callables(module):
            checked += 1
            where = f"{module.__name__}.{name}"
            try:
                typing.get_type_hints(function, localns=bound)
            except Exception as exc:
                unresolved.append(f"{where}: {exc!r}")
            for arg, annotation in function.__annotations__.items():
                if _uses_union_operator(annotation):
                    unresolved.append(f"{where}: {arg} uses X | Y")
    assert checked > 1000
    assert unresolved == []
