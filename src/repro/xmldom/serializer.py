"""Serialization of nodes and documents back to XML text.

``serialize_fragment`` is the serialized image of the subtree rooted at
a node -- the ``cont`` stored attribute of view tuples.  Elements
compose their memoized ``cont`` from their children's
(:attr:`repro.xmldom.model.ElementNode.cont`), byte-identical to this
fresh walk, which serves pretty-printing, update forests and the
tests as their oracle.
"""

from __future__ import annotations

from typing import List

from repro.xmldom.model import (
    AttributeNode,
    Document,
    ElementNode,
    Node,
    TextNode,
    escape_attribute,
    escape_text,
)


def _write_node(node: Node, out: List[str], indent: int, pretty: bool) -> None:
    pad = "  " * indent if pretty else ""
    newline = "\n" if pretty else ""
    if isinstance(node, TextNode):
        out.append("%s%s%s" % (pad, escape_text(node.text), newline))
        return
    if isinstance(node, AttributeNode):
        # A detached attribute serialized on its own (rare; used when an
        # attribute node is itself a view return node).
        out.append('%s%s="%s"%s' % (pad, node.name, escape_attribute(node.value), newline))
        return
    assert isinstance(node, ElementNode)
    attributes = [child for child in node.children if child.kind == "attribute"]
    others = [child for child in node.children if child.kind != "attribute"]
    attr_text = "".join(
        ' %s="%s"' % (attr.name, escape_attribute(attr.value))  # type: ignore[union-attr]
        for attr in attributes
    )
    if not others:
        out.append("%s<%s%s/>%s" % (pad, node.label, attr_text, newline))
        return
    out.append("%s<%s%s>%s" % (pad, node.label, attr_text, newline))
    for child in others:
        _write_node(child, out, indent + 1, pretty)
    out.append("%s</%s>%s" % (pad, node.label, newline))


def serialize_fragment(node: Node, pretty: bool = False) -> str:
    """Serialize one subtree (the ``cont`` of its root)."""
    out: List[str] = []
    _write_node(node, out, 0, pretty)
    return "".join(out)


def serialize(document: Document, pretty: bool = False, declaration: bool = True) -> str:
    """Serialize a whole document."""
    out: List[str] = []
    if declaration:
        out.append('<?xml version="1.0" encoding="UTF-8"?>')
        out.append("\n")
    _write_node(document.root, out, 0, pretty)
    return "".join(out)
