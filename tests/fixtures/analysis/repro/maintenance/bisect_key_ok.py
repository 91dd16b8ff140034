"""Fixture: the same bisects over a parallel sort_key list."""
import bisect
from bisect import bisect_left, insort


def positions(sorted_keys, node, row):
    first = bisect.bisect_right(sorted_keys, node.id.sort_key)
    second = bisect_left(sorted_keys, row.node.id.sort_key, first)
    insort(sorted_keys, node.id.sort_key)
    return first, second
