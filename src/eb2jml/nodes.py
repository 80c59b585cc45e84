"""One generic traversal for the Event-B and the JML syntax trees.

Every node is a dataclass.  The children of a node are the nodes held in its
fields, in field order.  Tuple fields are flattened, nested tuples too, so
``SetEnum.items`` and labelled predicates such as ``Machine.invariants``
contribute their nodes.  Fields excluded from comparison (source spans) and
fields annotated ``str``, ``int`` or ``bool`` are never children; every
other field holds a node, ``None`` or a tuple.
"""

from __future__ import annotations

from dataclasses import fields, replace
from functools import cache

_LEAF_TYPES = frozenset({"str", "int", "bool", str, int, bool})


@cache
def _child_fields(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls)
                 if f.compare and f.type not in _LEAF_TYPES)


def _is_node(value) -> bool:
    return hasattr(type(value), "__dataclass_fields__")


def _flatten(items: tuple, out: list) -> None:
    for item in items:
        if type(item) is tuple:
            _flatten(item, out)
        elif _is_node(item):
            out.append(item)


def children(node) -> list:
    """The child nodes of ``node``, in field order."""
    out: list = []
    for name in _child_fields(type(node)):
        value = getattr(node, name)
        if type(value) is tuple:
            _flatten(value, out)
        elif value is not None:
            out.append(value)
    return out


def walk(node):
    """Every node of the tree rooted at ``node``, in pre-order."""
    stack = [node]
    while stack:
        n = stack.pop()
        yield n
        kids = children(n)
        kids.reverse()
        stack += kids


def _map(value, f):
    if type(value) is tuple:
        items = tuple(_map(item, f) for item in value)
        return value if all(a is b for a, b in zip(items, value)) else items
    return f(value) if _is_node(value) else value


def map_children(node, f):
    """``node`` with every child ``c`` replaced by ``f(c)``.

    Returns ``node`` itself when ``f`` returns every child unchanged, so a
    rewrite that matches nothing allocates nothing.
    """
    changes = {}
    for name in _child_fields(type(node)):
        value = getattr(node, name)
        new = _map(value, f)
        if new is not value:
            changes[name] = new
    return replace(node, **changes) if changes else node
