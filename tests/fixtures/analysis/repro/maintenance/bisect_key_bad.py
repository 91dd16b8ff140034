"""Fixture: bisects probing sorted ID lists with the DeweyID object."""
import bisect
from bisect import bisect_left, insort


def positions(sorted_ids, node, row):
    first = bisect.bisect_right(sorted_ids, node.id)
    second = bisect_left(sorted_ids, row.node.id, first)
    insort(sorted_ids, node.id)
    return first, second
