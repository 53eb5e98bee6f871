"""The paper's contribution: Theorem 1.3 and its corollaries.

This package implements the pipeline of the upper-bound half of the
paper, bottom-up:

* :mod:`repro.core.happy` — the rich/poor/happy/sad vertex
  classification of Lemma 3.1 (with the paper's ``c log2 n`` rich-ball
  radius);
* :mod:`repro.core.peeling` — iterated happy-layer peeling, whose layer
  count the ``|A| >= n/(3d)^3`` bound controls;
* :mod:`repro.core.extension` — Lemma 3.2, extending a list-coloring of
  ``G - A`` to ``G`` via ruling forests and layered tree coloring;
* :mod:`repro.core.sparse_coloring` — the Theorem 1.3 driver
  (:func:`color_sparse_graph`) gluing the above together;
* :mod:`repro.core.arboricity_coloring`, :mod:`repro.core.brooks`,
  :mod:`repro.core.planar`, :mod:`repro.core.surfaces` — the corollaries
  (1.4, 2.1/6.1, 2.3, 2.11) as thin reductions to the driver.

All entry points accept either graph representation (the ``GraphLike``
protocol), freeze it once and run the CSR code; the
``theorem13-*``, ``corollary*`` and ``lemma3*`` scenarios of
``python -m repro`` measure everything exported here against the paper's
claims.
"""

from repro.core.arboricity_coloring import color_bounded_arboricity_graph
from repro.core.brooks import (
    NiceListColoringResult,
    brooks_list_coloring,
    is_nice_list_assignment,
    nice_list_coloring,
)
from repro.core.extension import ExtensionReport, extend_coloring_to_happy_set
from repro.core.happy import (
    VertexClassification,
    classify_vertices,
    default_rich_ball_radius,
    paper_radius_constant,
)
from repro.core.peeling import PeelingLayer, PeelingResult, peel_happy_layers
from repro.core.planar import (
    color_high_girth_planar_graph,
    color_planar_graph,
    color_triangle_free_planar_graph,
    planar_color_budget,
)
from repro.core.sparse_coloring import SparseColoringResult, color_sparse_graph
from repro.core.surfaces import color_embedded_graph, genus_color_budget

__all__ = [
    "color_bounded_arboricity_graph",
    "NiceListColoringResult",
    "brooks_list_coloring",
    "is_nice_list_assignment",
    "nice_list_coloring",
    "ExtensionReport",
    "extend_coloring_to_happy_set",
    "VertexClassification",
    "classify_vertices",
    "default_rich_ball_radius",
    "paper_radius_constant",
    "PeelingLayer",
    "PeelingResult",
    "peel_happy_layers",
    "color_high_girth_planar_graph",
    "color_planar_graph",
    "color_triangle_free_planar_graph",
    "planar_color_budget",
    "SparseColoringResult",
    "color_sparse_graph",
    "color_embedded_graph",
    "genus_color_budget",
]
