"""Fixture: address- and hash-based ordering (det-id-order /
det-hash-order).

det-id-order: the two sort keys plus the comparison (one finding per
compared side).  det-hash-order: the modulo bucket and the sort key.
"""

import zlib


def by_address(nodes):
    nodes.sort(key=id)  # det-id-order: id as sort key
    worst = sorted(nodes, key=lambda node: id(node))  # det-id-order
    return worst


def tie_break(left, right):
    return left if id(left) < id(right) else right  # det-id-order x2


def bucket(label, shard_count):
    return hash(label) % shard_count  # det-hash-order: seed-salted


def by_hash(labels):
    return sorted(labels, key=lambda label: hash(label))  # det-hash-order


def bucket_ok(label, shard_count):
    # crc32 is a sanctioned stable label hash.
    return zlib.crc32(label.encode("utf-8")) % shard_count
