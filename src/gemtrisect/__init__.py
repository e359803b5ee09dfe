"""Crystallization toolkit: trisection diagrams from edge-colored graphs.

The package turns a 5-colored graph encoding a closed (or suitably
bounded) 4-manifold into a certified trisection diagram: three systems
of curves on a surface whose genus is read off the graph's regular
embeddings.
"""

__version__ = "0.2.0"
