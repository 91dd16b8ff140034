"""Bytes of Python heap per DeweyID, per label-index entry and per
insert statement, measured with tracemalloc.

Rebuilds the IDs of a fixed XMark document through ``DeweyID.root`` /
``DeweyID.child`` (the way a document numbers its nodes) into a list
allocated beforehand, with the step memo emptied first, so the figure
counts every ID object, its key bytes and its share of the interned
steps, and nothing else.  ``tests/test_dewey.py`` pins it.

The label-index figure is the heap a ``LabelIndex`` of the same
document holds per indexed node: its blocks, block lists and per-label
first keys, built from the preorder per-label runs the way a document
loads (the runs are freed; nodes and their keys exist beforehand).

The statement figure is the heap a ``statement_stream`` of inserts on
the same document holds, per statement: the statement objects, their
names, target lists and forests, plus the stream's per-name caches
spread over the stream.  ``tests/test_workloads.py`` pins it.

Run as a script it prints one markdown table per figure for a CI job
summary::

    PYTHONPATH=src python tests/harness/id_memory.py
"""

from __future__ import annotations

import gc
import platform
import tracemalloc
from typing import List, Tuple

from repro.workloads.updates import statement_stream
from repro.workloads.xmark import generate_document
from repro.xmldom import dewey
from repro.xmldom.dewey import DeweyID
from repro.xmldom.index import KeyedRows, LabelIndex

#: The bound ``tests/test_dewey.py`` holds the measurement to.
BYTES_PER_ID_LIMIT = 200
#: The bound ``tests/test_workloads.py`` holds the statement figure to.
BYTES_PER_STATEMENT_LIMIT = 1000
#: The fixed document: XMark scale 4, about 7.1k nodes.
SCALE = 4
#: Insert statements in the measured stream.
STATEMENTS = 1000


def _numbering(scale: int) -> List[Tuple[int, str, tuple]]:
    """``(parent position, label, ordinal)`` per node, in preorder."""
    document = generate_document(scale=scale)
    rows: List[Tuple[int, str, tuple]] = []
    stack = [(document.root, -1)]
    while stack:
        node, parent = stack.pop()
        rows.append((parent, node.id.label, node.id.ordinal))
        position = len(rows) - 1
        for child in reversed(getattr(node, "children", ())):
            stack.append((child, position))
    return rows


def bytes_per_id(scale: int = SCALE) -> Tuple[float, int]:
    """Traced bytes per ID and the number of IDs built."""
    rows = _numbering(scale)
    ids: list = [None] * len(rows)
    dewey._STEP_BYTES.clear()
    gc.collect()  # the document left a cycle; free it before tracing
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for position, (parent, label, ordinal) in enumerate(rows):
            ids[position] = (
                DeweyID.root(label) if parent < 0 else ids[parent].child(label, ordinal)
            )
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return (after - before) / len(ids), len(ids)


def bytes_per_indexed_node(scale: int = SCALE) -> Tuple[float, int]:
    """Traced bytes per node of the document's label index, and the
    number of nodes indexed."""
    document = generate_document(scale=scale)
    nodes = list(document.root.self_and_descendants())
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        runs: dict = {}
        for node in nodes:
            run = runs.get(node.label)
            if run is None:
                runs[node.label] = KeyedRows([node], [node.id.sort_key])
            else:
                run.nodes.append(node)
                run.keys.append(node.id.sort_key)
        index = LabelIndex()
        index.add_runs(runs)
        del runs
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sum(len(index.nodes(label)) for label in index.labels()) == len(nodes)
    return (after - before) / len(nodes), len(nodes)


def bytes_per_statement(scale: int = SCALE, count: int = STATEMENTS) -> float:
    """Traced bytes per statement of an all-insert ``statement_stream``
    of ``count`` statements (seed 0) on the XMark document."""
    document = generate_document(scale=scale)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        stream = statement_stream(document, count, seed=0)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(stream) == count
    return (after - before) / count


if __name__ == "__main__":
    per_id, count = bytes_per_id()
    per_node, indexed = bytes_per_indexed_node()
    print("| Python | XMark scale %d | count | bytes each | limit |" % SCALE)
    print("|---|---|---|---|---|")
    print(
        "| %s | DeweyIDs | %d | %.1f | %d |"
        % (platform.python_version(), count, per_id, BYTES_PER_ID_LIMIT)
    )
    print(
        "| %s | label-index entries (one per node) | %d | %.1f | - |"
        % (platform.python_version(), indexed, per_node)
    )
    per_statement = bytes_per_statement()
    print()
    print(
        "| Python | insert statements (XMark scale %d) | bytes per statement | limit |"
        % SCALE
    )
    print("|---|---|---|---|")
    print(
        "| %s | %d | %.1f | %d |"
        % (platform.python_version(), STATEMENTS, per_statement, BYTES_PER_STATEMENT_LIMIT)
    )
