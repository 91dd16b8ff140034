"""Bytes of Python heap per DeweyID, per label-index entry, per insert
statement and per inserted element, measured with tracemalloc, and the
mean length of a ``sort_key``.

Rebuilds the IDs of a fixed XMark document through ``DeweyID.root`` /
``DeweyID.child`` (the way a document numbers its nodes) into a list
allocated beforehand, in a fresh label table with the document's labels
dealt and the step memo empty, so the figure counts every ID object,
its key bytes and its share of the interned steps, and nothing else.  ``tests/test_dewey.py`` pins it, and the
mean key length of the same IDs.

The label-index figure is the heap a ``LabelIndex`` of the same
document holds per indexed node: its blocks, block lists and per-label
first keys, built from the preorder per-label runs the way a document
loads (the runs are freed; nodes and their keys exist beforehand).

The statement figure is the heap a ``statement_stream`` of inserts on
the same document holds, per statement: the statement objects, their
names, target lists and forests, plus the stream's per-name caches
spread over the stream.  ``tests/test_workloads.py`` pins it.

The inserted-element figure is the heap the same document grows by
when those 1000 inserts are applied (batches of 64, no views), per
inserted element: the new nodes, their IDs and their label-index
entries (an element's ``val``/``cont`` caches stay empty until first
read).

Run as a script it prints one markdown table per figure for a CI job
summary::

    PYTHONPATH=src python tests/harness/id_memory.py
"""

from __future__ import annotations

import gc
import platform
import tracemalloc
from contextlib import contextmanager
from typing import Iterator, List, Tuple

from repro.updates.pul import BatchApplication
from repro.workloads.updates import statement_stream
from repro.workloads.xmark import generate_document
from repro.xmldom import dewey
from repro.xmldom.dewey import DeweyID
from repro.xmldom.index import KeyedRows, LabelIndex

#: The bounds ``tests/test_dewey.py`` holds the measurements to.
BYTES_PER_ID_LIMIT = 150
MEAN_KEY_BYTES_LIMIT = 24
#: The bound ``tests/test_workloads.py`` holds the statement figure to.
BYTES_PER_STATEMENT_LIMIT = 1000
#: The fixed document: XMark scale 4, about 7.1k nodes.
SCALE = 4
#: Insert statements in the measured stream.
STATEMENTS = 1000


@contextmanager
def fresh_label_table() -> Iterator[None]:
    """Run the body as a process that has dealt no label code yet: the
    label table and the step memo are swapped for empty ones and put
    back after.  IDs built inside must not outlive the body (their keys
    use the swapped codes).  Keeps the figures below independent of
    what ran earlier in the process: a label dealt after the first 127
    takes a two-byte code."""
    saved = dewey._LABEL_CODES, dewey._LABELS, dewey._STEP_BYTES
    dewey._LABEL_CODES, dewey._LABELS, dewey._STEP_BYTES = {}, [], {}
    try:
        yield
    finally:
        dewey._LABEL_CODES, dewey._LABELS, dewey._STEP_BYTES = saved


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


def mean_key_bytes(scale: int = SCALE) -> float:
    """Mean ``sort_key`` length over the document's IDs."""
    with fresh_label_table():
        document = generate_document(scale=scale)
        keys = [node.id.sort_key for node in document.root.self_and_descendants()]
    return sum(map(len, keys)) / len(keys)


def bytes_per_id(scale: int = SCALE) -> Tuple[float, int]:
    """Traced bytes per ID and the number of IDs built."""
    rows = _numbering(scale)
    ids: list = [None] * len(rows)
    with fresh_label_table():
        for _parent, label, _ordinal in rows:
            dewey.label_code(label)  # the document's labels, dealt at load
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


def bytes_per_inserted_element(
    scale: int = SCALE, count: int = STATEMENTS
) -> Tuple[float, int]:
    """Traced bytes the document grows by per inserted element when an
    all-insert ``statement_stream`` of ``count`` statements (seed 0) is
    applied in batches of 64, and the number of elements inserted."""
    document = generate_document(scale=scale)
    stream = statement_stream(document, count, seed=0)
    elements = sum(1 for _ in document.all_elements())
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for start in range(0, count, 64):
            BatchApplication(document, stream[start : start + 64]).apply()
        gc.collect()  # count live state only, not the batches' garbage
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    inserted = sum(1 for _ in document.all_elements()) - elements
    return (after - before) / inserted, inserted


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
    print(
        "| %s | mean key bytes (one key per ID) | %d | %.1f | %d |"
        % (platform.python_version(), count, mean_key_bytes(), MEAN_KEY_BYTES_LIMIT)
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
    per_element, inserted = bytes_per_inserted_element()
    print()
    print(
        "| Python | inserted elements (%d statements, XMark scale %d) | bytes per element |"
        % (STATEMENTS, SCALE)
    )
    print("|---|---|---|")
    print("| %s | %d | %.1f |" % (platform.python_version(), inserted, per_element))
