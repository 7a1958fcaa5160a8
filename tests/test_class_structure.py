"""Structure checks that tie the labeled classes to invariant claims."""

from geohom.graph_core import complete_graph, two_colored_isomorphism
from geohom.invariants import (
    line_crossing_graph,
    signature,
    uncrossed_subgraph,
)
from geohom.morphisms import (
    injective_geo_homomorphisms,
    is_geo_homomorphism,
    prop_conditions,
    VertexMap,
)
from geohom.realization import make_realization

from brute_force import geo_isomorphic
from helpers import (
    map_induces_ex_hom,
    map_induces_lex_hom,
    map_respects_uncrossed_pullback,
)


def test_lex_forms_distinguish_54_and_56(pinned_atlas):
    lex54 = line_crossing_graph(pinned_atlas.find("5.4").representative)
    lex56 = line_crossing_graph(pinned_atlas.find("5.6").representative)
    assert two_colored_isomorphism(lex54, lex56) is None


def test_34_to_51_fails_only_the_line_graph_condition(pinned_atlas):
    report = prop_conditions(
        pinned_atlas.find("3.4").representative,
        pinned_atlas.find("5.1").representative,
    )
    assert report.cond1_uncrossed_embeds
    assert report.cond2_ex_hom_exists
    assert not report.cond3_lex_hom_exists


def test_maximal_class_edge_crossing_profile(pinned_atlas):
    # computed by direct count: even the 9-crossing class keeps a pair of
    # disjoint uncrossed edges (hull edges of the convex drawing), so no
    # class has an empty uncrossed subgraph
    top = pinned_atlas.find("9.1").representative
    assert signature(top).per_edge_cr_multiset == (0, 0, 2, 2, 2, 2, 2, 4, 4)
    assert uncrossed_subgraph(top).m == 2
    for cls in pinned_atlas.classes:
        assert uncrossed_subgraph(cls.representative).m >= 2


def test_k33_completions_land_in_k6_atlas(pinned_atlas, atlas_k6_a):
    for cls in pinned_atlas.classes:
        completed = make_realization(complete_graph(6), cls.representative.points)
        homes = [
            other.label
            for other in atlas_k6_a.classes
            if geo_isomorphic(completed, other.representative) is not None
        ]
        assert len(homes) == 1, f"{cls.label} completion lands in {homes}"


def test_hasse_witnesses_induce_valid_edge_maps(hom_poset):
    for i, j in sorted(hom_poset.hasse_edges):
        src = hom_poset.classes[i].representative
        dst = hom_poset.classes[j].representative
        witness = injective_geo_homomorphisms(src, dst)[0]
        assert map_induces_ex_hom(src, dst, witness)
        assert map_induces_lex_hom(src, dst, witness)
        assert map_respects_uncrossed_pullback(src, dst, witness)


def test_hasse_chains_compose(hom_poset):
    edges = sorted(hom_poset.hasse_edges)
    outgoing = {}
    for i, j in edges:
        outgoing.setdefault(i, []).append(j)
    composed = 0
    for i, j in edges:
        for k in outgoing.get(j, []):
            f = injective_geo_homomorphisms(
                hom_poset.classes[i].representative,
                hom_poset.classes[j].representative,
            )[0]
            g = injective_geo_homomorphisms(
                hom_poset.classes[j].representative,
                hom_poset.classes[k].representative,
            )[0]
            h = VertexMap(6, 6, tuple(g.images[f.images[v]] for v in range(6)))
            assert is_geo_homomorphism(
                hom_poset.classes[i].representative,
                hom_poset.classes[k].representative,
                h,
            )
            composed += 1
    assert composed > 0
