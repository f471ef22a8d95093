"""Exact connected-subgraph counting and extremal search over small graphs.

The package root re-exports nothing: import the submodule that holds a name
(``connsub.census``, ``connsub.decompose``, ``connsub.extremal``, ...).
"""

__version__ = "0.1.0"
