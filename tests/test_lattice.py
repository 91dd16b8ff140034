"""The sub-pattern lattice: Figures 6/7, snowcaps, materialization."""

import pytest

from repro.pattern.evaluate import evaluate_bindings
from repro.views.lattice import (
    SnowcapLattice,
    enumerate_snowcaps,
    enumerate_subpatterns,
    join_decompositions,
    snowcap_chain,
)
from tests.conftest import branch_pattern, chain_pattern
from tests.harness.reference_statement_path import apply_delete


def names(sets):
    return sorted("".join(sorted(n.split("#")[0] for n in s)) for s in sets)


class TestEnumeration:
    def test_figure6_lattice_nodes(self):
        # Figure 6 for //a[//b//c]//d: 12 pattern-labeled nodes.
        pattern = branch_pattern()
        subsets = enumerate_subpatterns(pattern)
        assert names(subsets) == sorted(
            ["a", "b", "c", "d", "ab", "ac", "ad", "bc", "abc", "abd", "acd", "abcd"]
        )

    def test_cd_is_not_a_lattice_node(self):
        pattern = branch_pattern()
        subsets = set(names(enumerate_subpatterns(pattern)))
        assert "cd" not in subsets
        assert "bd" not in subsets

    def test_figure6_snowcaps(self):
        # Boxed nodes of Figure 6: a, ab, ad, abc, abd (proper snowcaps).
        pattern = branch_pattern()
        caps = enumerate_snowcaps(pattern)
        assert names(caps) == sorted(["a", "ab", "ad", "abc", "abd"])

    def test_snowcaps_include_full_optionally(self):
        pattern = branch_pattern()
        caps = enumerate_snowcaps(pattern, include_full=True)
        assert "abcd" in names(caps)

    def test_figure6_abc_has_three_join_decompositions(self):
        pattern = branch_pattern()
        abc = frozenset({"a#1", "b#1", "c#1"})
        assert len(join_decompositions(pattern, abc)) == 3

    def test_chain_snowcaps_are_prefixes(self):
        pattern = chain_pattern("a", "b", "c")
        caps = enumerate_snowcaps(pattern)
        assert names(caps) == sorted(["a", "ab"])


class TestChainSelection:
    def test_default_chain_is_preorder_prefixes(self):
        pattern = branch_pattern()
        chain = snowcap_chain(pattern)
        assert [len(s) for s in chain] == [1, 2, 3]
        assert names(chain) == sorted(["a", "ab", "abc"])

    def test_profile_peels_expected_labels_first(self):
        pattern = branch_pattern()
        chain = snowcap_chain(pattern, update_profile=["d"])
        # d is peeled first: the size-3 snowcap is abc (complement of {d}).
        assert "abc" in names(chain)
        chain_c = snowcap_chain(pattern, update_profile=["c"])
        assert "abd" in names(chain_c)

    def test_chain_is_nested(self):
        pattern = branch_pattern()
        for profile in (None, ["c"], ["d"], ["b"]):
            chain = snowcap_chain(pattern, profile)
            for small, big in zip(chain, chain[1:]):
                assert small < big


class TestMaterialization:
    def test_materialize_and_lookup(self, fig12_document):
        pattern = chain_pattern("a", "c", "b")
        lattice = SnowcapLattice(pattern)
        lattice.materialize(fig12_document)
        subset = frozenset({"a#1", "c#1"})
        stored = lattice.relation_for(subset)
        fresh = evaluate_bindings(pattern.subpattern(subset), fig12_document)
        assert stored.rows == fresh.rows
        assert lattice.stored_tuples() > 0

    def test_leaves_strategy_materializes_nothing(self, fig12_document):
        pattern = chain_pattern("a", "c", "b")
        lattice = SnowcapLattice(pattern, strategy="leaves")
        lattice.materialize(fig12_document)
        assert lattice.materialized_sets() == []
        assert lattice.relation_for(frozenset({"a#1"})) is None

    def test_apply_delete_filters_rows(self, fig12_document):
        pattern = chain_pattern("a", "c", "b")
        lattice = SnowcapLattice(pattern)
        lattice.materialize(fig12_document)
        c = fig12_document.nodes_with_label("c")[0]
        doomed = {n.id for n in c.self_and_descendants()}
        removed = apply_delete(lattice, doomed)
        assert removed > 0
        for subset in lattice.materialized_sets():
            for row in lattice.relation_for(subset).rows:
                assert not any(cell.id in doomed for cell in row)

    def test_bad_strategy_rejected(self):
        with pytest.raises(ValueError):
            SnowcapLattice(chain_pattern("a", "b"), strategy="everything")
