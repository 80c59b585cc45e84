"""The generic traversal over both syntax trees."""

import dataclasses
import inspect
import typing

import pytest

from eb2jml import ebast as eb
from eb2jml import jmlast as jml
from eb2jml.checker import _contains_old
from eb2jml.jmlast import render_class
from eb2jml.nodes import children, map_children, walk
from eb2jml.translate import translate_machine

from conftest import load_machine

CORPUS = ("counter.ebm", "swap.ebm", "social_abstract.ebm", "social_ref1.ebm")

# a concrete node for each abstract base a field may be annotated with
_CONCRETE = {
    eb.Expr: lambda: eb.IntLit(7),
    eb.Predicate: lambda: eb.BTrue(),
    eb.EbType: lambda: eb.IntType(),
    jml.JmlExpr: lambda: jml.JmlIntLit(7),
    jml.JmlPredicate: lambda: jml.JmlTrue(),
    jml.JmlType: lambda: jml.JInt(),
}


def _node_classes(module):
    return [cls for _name, cls in inspect.getmembers(module, inspect.isclass)
            if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__
            and cls is not eb.Span]


NODE_CLASSES = _node_classes(eb) + _node_classes(jml)


def _sample(tp, made: list):
    """A value of annotation ``tp``; every node created is appended to ``made``."""
    origin = typing.get_origin(tp)
    if tp is str:
        return "s"
    if tp is int:
        return 1
    if tp is bool:
        return True
    if origin is typing.Union:
        return _sample(next(a for a in typing.get_args(tp) if a is not type(None)), made)
    if origin is tuple:
        args = typing.get_args(tp)
        if len(args) == 2 and args[1] is Ellipsis:
            return (_sample(args[0], made), _sample(args[0], made))
        return tuple(_sample(a, made) for a in args)
    node = _CONCRETE[tp]() if tp in _CONCRETE else _build(tp, [])
    made.append(node)
    return node


def _build(cls, made: list):
    hints = typing.get_type_hints(cls)
    values = {f.name: _sample(hints[f.name], made)
              for f in dataclasses.fields(cls) if f.compare}
    return cls(**values)


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
def test_children_yield_every_node_valued_field(cls):
    made: list = []
    node = _build(cls, made)
    assert [id(c) for c in children(node)] == [id(m) for m in made]
    assert map_children(node, lambda c: c) is node


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
def test_map_children_replaces_each_child(cls):
    made: list = []
    node = _build(cls, made)
    copies = {id(m): dataclasses.replace(m) for m in made}
    rebuilt = map_children(node, lambda c: copies[id(c)])
    assert rebuilt == node
    assert [id(c) for c in children(rebuilt)] == [id(copies[id(m)]) for m in made]


def test_spans_are_not_children():
    ident = eb.Ident("v", span=eb.Span(0, 1, 1, 1))
    ref = eb.Ref(ident, span=eb.Span(0, 1, 1, 1))
    assert children(ref) == [ident]
    assert children(ident) == []


def test_walk_is_preorder():
    a, b, c = (eb.Ref(eb.Ident(n)) for n in "abc")
    inner = eb.BinOp("add", a, b)
    top = eb.Cmp("eq", inner, eb.SetEnum((c,)))
    order = [n for n in walk(top) if isinstance(n, eb.Ref)]
    assert order == [a, b, c]
    assert next(walk(top)) is top


@pytest.mark.parametrize("name", CORPUS)
def test_old_nodes_match_rendered_old(name):
    result = translate_machine(load_machine(name)).result
    olds = [n for n in walk(result) if isinstance(n, (jml.JmlOld, jml.JmlOldExpr))]
    assert olds and _contains_old(result)
    assert len(olds) == render_class(result).count("\\old(")
