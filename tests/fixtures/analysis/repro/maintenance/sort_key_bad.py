"""Fixture: document-order sorts keyed by the DeweyID object."""


def ordered(nodes, rows):
    by_object = sorted(nodes, key=lambda n: n.id)
    nodes.sort(key=lambda node: node.id)
    first = min(rows, key=lambda row: row.node.id)
    # Clean: same order, comparisons in C.
    by_key = sorted(nodes, key=lambda n: n.id.sort_key)
    nodes.sort(key=lambda n: (n.label, n.id.sort_key))
    return by_object, first, by_key
