"""Planar graph generators.

Corollary 2.3 of the paper is about three families:

1. arbitrary planar graphs (``mad < 6``) — 6-list-colorable by the paper's
   algorithm;
2. triangle-free planar graphs (``mad < 4``) — 4-list-colorable;
3. planar graphs of girth at least 6 (``mad < 3``) — 3-list-colorable.

The generators below produce representative members of each family at
arbitrary sizes: maximal planar triangulations (Apollonian networks and
Delaunay triangulations of random points), quadrangulation-like grids and
random bipartite planar graphs (triangle-free), and hexagonal lattices plus
edge subdivisions (girth >= 6).
"""

from __future__ import annotations

import random

import networkx as nx
import numpy as np

from repro.errors import GeneratorError
from repro.graphs.graph import Graph

__all__ = [
    "apollonian_network",
    "stacked_triangulation",
    "delaunay_triangulation",
    "random_planar_graph",
    "wheel",
    "grid_graph",
    "hexagonal_lattice",
    "triangle_free_planar",
    "high_girth_planar",
    "subdivide",
    "outerplanar_fan",
    "icosahedron",
]


def wheel(n_spokes: int) -> Graph:
    """Wheel graph: an ``n_spokes``-cycle plus a universal hub vertex."""
    if n_spokes < 3:
        raise GeneratorError("a wheel needs at least 3 spokes")
    g = Graph(name=f"wheel_{n_spokes}")
    hub = "hub"
    g.add_vertex(hub)
    for i in range(n_spokes):
        g.add_edge(i, (i + 1) % n_spokes)
        g.add_edge(hub, i)
    g.metadata["planar"] = True
    return g


def apollonian_network(n_insertions: int, seed: int | None = None) -> Graph:
    """Random Apollonian network (stacked planar triangulation).

    Starts from a triangle and repeatedly inserts a new vertex inside a
    uniformly chosen face, joining it to the three face vertices.  The result
    is a maximal planar graph (a *stacked triangulation*), i.e. a planar
    3-tree: average degree just under 6, so it exercises the ``d = 6`` case
    of Theorem 1.3 at its tightest.
    """
    rng = random.Random(seed)
    g = Graph(name=f"apollonian_{n_insertions}")
    g.add_edges([(0, 1), (1, 2), (0, 2)])
    faces: list[tuple[int, int, int]] = [(0, 1, 2)]
    next_vertex = 3
    for _ in range(n_insertions):
        face_index = rng.randrange(len(faces))
        a, b, c = faces[face_index]
        v = next_vertex
        next_vertex += 1
        g.add_edges([(v, a), (v, b), (v, c)])
        faces[face_index] = (a, b, v)
        faces.append((a, c, v))
        faces.append((b, c, v))
    g.metadata["planar"] = True
    g.metadata["maximal_planar"] = n_insertions > 0
    return g


def stacked_triangulation(n_vertices: int, seed: int | None = None) -> Graph:
    """Apollonian network with exactly ``n_vertices`` vertices (>= 3)."""
    if n_vertices < 3:
        raise GeneratorError("need at least 3 vertices")
    return apollonian_network(n_vertices - 3, seed=seed)


def delaunay_triangulation(n_points: int, seed: int | None = None) -> Graph:
    """Delaunay triangulation of ``n_points`` random points in the unit square.

    Produces "geometric" planar triangulations whose degree distribution is
    much more balanced than Apollonian networks.  Requires scipy.
    """
    if n_points < 3:
        raise GeneratorError("need at least 3 points")
    from scipy.spatial import Delaunay

    rng = np.random.default_rng(seed)
    points = rng.random((n_points, 2))
    tri = Delaunay(points)
    g = Graph(vertices=range(n_points), name=f"delaunay_{n_points}")
    for simplex in tri.simplices:
        a, b, c = (int(x) for x in simplex)
        g.add_edge(a, b)
        g.add_edge(b, c)
        g.add_edge(a, c)
    g.metadata["planar"] = True
    g.metadata["coordinates"] = {i: tuple(points[i]) for i in range(n_points)}
    return g


def random_planar_graph(
    n_vertices: int, edge_fraction: float = 0.8, seed: int | None = None
) -> Graph:
    """Random planar graph: a Delaunay triangulation with edges subsampled.

    ``edge_fraction`` controls sparsity (1.0 keeps the triangulation).  The
    result stays planar because removing edges preserves planarity.
    """
    if not 0.0 <= edge_fraction <= 1.0:
        raise GeneratorError("edge_fraction must lie in [0, 1]")
    base = delaunay_triangulation(n_vertices, seed=seed)
    rng = random.Random(seed)
    g = Graph(vertices=base.vertices(), name=f"random_planar_{n_vertices}")
    for u, v in base.edges():
        if rng.random() < edge_fraction:
            g.add_edge(u, v)
    g.metadata["planar"] = True
    return g


def grid_graph(rows: int, cols: int) -> Graph:
    """Planar rectangular grid (bipartite, triangle-free, girth 4)."""
    from repro.graphs.generators.classic import grid_2d

    g = grid_2d(rows, cols)
    g.metadata["triangle_free"] = True
    g.metadata["bipartite"] = True
    return g


def hexagonal_lattice(rows: int, cols: int) -> Graph:
    """Hexagonal (honeycomb) lattice — planar with girth 6.

    Built through networkx's generator and relabelled to integers; realizes
    the "planar of girth at least 6" family of Corollary 2.3(3).
    """
    if rows < 1 or cols < 1:
        raise GeneratorError("rows and cols must be positive")
    h = nx.hexagonal_lattice_graph(rows, cols)
    g = Graph.from_networkx(nx.convert_node_labels_to_integers(h))
    g.name = f"hex_{rows}x{cols}"
    g.metadata["planar"] = True
    g.metadata["girth"] = 6
    return g


def triangle_free_planar(
    n_vertices: int, seed: int | None = None
) -> Graph:
    """Random triangle-free planar graph.

    Construction: take a random planar triangulation and keep only the edges
    of a bipartition-respecting subgraph of its *square grid overlay*?  That
    is overkill; instead we take the Delaunay triangulation and subdivide
    every edge once, which yields a planar bipartite (hence triangle-free)
    graph with roughly ``n_vertices`` original vertices plus one vertex per
    edge.  To keep sizes predictable we start from a triangulation on about
    ``n_vertices / 4`` points (a triangulation has ~3n edges).
    """
    base_points = max(4, n_vertices // 4)
    base = delaunay_triangulation(base_points, seed=seed)
    g = subdivide(base, times=1)
    g.name = f"triangle_free_planar_{len(g)}"
    g.metadata["planar"] = True
    g.metadata["triangle_free"] = True
    g.metadata["bipartite"] = True
    return g


def high_girth_planar(n_vertices: int, seed: int | None = None) -> Graph:
    """Random planar graph with girth at least 6 (triangulation, subdivided twice).

    Subdividing every edge multiplies the girth by the subdivision factor,
    so two rounds of subdivision turn girth-3 faces into girth-12 faces; the
    resulting graph has ``mad < 3`` and exercises the 3-list-coloring branch
    of Corollary 2.3.
    """
    base_points = max(4, n_vertices // 10)
    base = delaunay_triangulation(base_points, seed=seed)
    g = subdivide(base, times=2)
    g.name = f"high_girth_planar_{len(g)}"
    g.metadata["planar"] = True
    g.metadata["girth_at_least"] = 6
    return g


def subdivide(graph: Graph, times: int = 1) -> Graph:
    """Subdivide every edge of ``graph`` ``times`` times.

    Each original edge ``(u, v)`` becomes a path with ``times`` internal
    vertices.  Subdivision preserves planarity and multiplies the girth by
    ``times + 1``.
    """
    if times < 0:
        raise GeneratorError("times must be non-negative")
    if times == 0:
        return graph.copy()
    g = Graph(name=f"{graph.name}_subdivided_{times}")
    g.add_vertices(graph.vertices())
    counter = 0
    for u, v in graph.edges():
        previous = u
        for _ in range(times):
            w = ("sub", counter)
            counter += 1
            g.add_edge(previous, w)
            previous = w
        g.add_edge(previous, v)
    g.metadata.update(graph.metadata)
    return g


def outerplanar_fan(n: int) -> Graph:
    """Fan graph: a path ``1..n-1`` plus a vertex 0 joined to every path vertex.

    Outerplanar, maximal outerplanar for the fan; arboricity 2, mad < 4.
    """
    if n < 2:
        raise GeneratorError("need at least 2 vertices")
    g = Graph(vertices=range(n), name=f"fan_{n}")
    for i in range(1, n - 1):
        g.add_edge(i, i + 1)
    for i in range(1, n):
        g.add_edge(0, i)
    g.metadata["planar"] = True
    g.metadata["outerplanar"] = True
    return g


def icosahedron() -> Graph:
    """The icosahedron: a 5-regular planar triangulation on 12 vertices.

    Useful as a small planar graph with no vertex of degree <= 4, hence a
    worst case for naive "peel a small-degree vertex" strategies.
    """
    g = Graph.from_networkx(nx.icosahedral_graph())
    g.name = "icosahedron"
    g.metadata["planar"] = True
    return g
