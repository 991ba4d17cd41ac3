"""The catalog and the sweep over its subgroup pairs."""

import pytest

from helpers import reference_conjugates, reference_sweep_rows
from subdepth import corpus
from subdepth.corpus import analyze_pair, catalog


def test_catalog_enumerates_only_the_groups_a_sweep_reads(monkeypatch):
    enumerated = []
    enumerate_group = corpus.enumerate_group

    def counted(gens, degree):
        enumerated.append(degree)
        return enumerate_group(gens, degree=degree)

    monkeypatch.setattr(corpus, "_GROUPS", {})
    monkeypatch.setattr(corpus, "enumerate_group", counted)
    groups = catalog(16)
    assert len(groups) == len(enumerated) == 30
    assert all(G.order <= 16 for _, G in groups)
    # the groups already enumerated are not enumerated again
    assert len(catalog()) == 43 and len(enumerated) == 43
    assert catalog(16) == groups


def test_catalog_names_and_orders_keep_their_order():
    names = [name for name, _ in catalog()]
    assert names == ([f"C{n}" for n in range(1, 25)]
                     + [f"D{2 * n}" for n in range(3, 13)]
                     + ["S4", "A4", "Q8", "C2xC2", "C2xC4", "C2xC2xC2", "C2xC6",
                        "C3xC3", "C2xD8"])
    assert [order for _, order, _, _ in corpus._entries()] == [G.order for _, G in catalog()]


def test_catalog_raises_when_an_enumerated_order_differs(monkeypatch):
    entries = [(name, 7 if name == "C6" else order, degree, gens)
               for name, order, degree, gens in corpus._entries()]
    monkeypatch.setattr(corpus, "_GROUPS", {})
    monkeypatch.setattr(corpus, "_entries", lambda: tuple(entries))
    # C6 is stored as order 7, so a sweep to order 6 never enumerates it
    assert "C6" not in dict(catalog(6))
    with pytest.raises(AssertionError, match="^catalog group C6 has order 6, not the stored 7$"):
        catalog(7)


@pytest.mark.parametrize("max_order, classes", [(16, 174), (24, 255)])
def test_sweep_analyzes_one_pair_per_class_of_subgroups(monkeypatch, max_order, classes):
    analyzed = []

    def counted(G, H, tabG=None):
        analyzed.append((G, H.bits))
        return analyze_pair(G, H, tabG)

    monkeypatch.setattr(corpus, "analyze_pair", counted)
    corpus.run_sweep(max_order)
    assert len(analyzed) == len(set(analyzed)) == classes


def test_sweep_rows_equal_the_per_subgroup_reference(sweep24):
    # each conjugate copies its representative's row; the reference runs
    # analyze_pair on all 365 subgroups
    rows = reference_sweep_rows(24)
    assert len(rows) == len(sweep24.rows) == 365
    for want, got in zip(rows, sweep24.rows):
        assert got.to_json() == want.to_json()


def test_classes_of_subgroups_are_the_conjugate_orbits():
    # every subgroup lies in exactly one class, whose members are the
    # conjugates of its representative by every g, found without the orbit
    # walk of G.conjugates
    for _, G in catalog(24):
        subs = G.subgroups()
        classes = G.subgroup_classes()
        assert sorted(i for _, members in classes for i in members) == list(range(len(subs)))
        for H, members in classes:
            assert subs[members[0]] is H
            assert {subs[i].bits for i in members} == reference_conjugates(G, H).keys()
