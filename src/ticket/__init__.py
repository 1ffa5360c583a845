"""Decision engine for the implicational relevance logic T-arrow.

Subpackages:
- formula: implicational formulas, parsing, subformulas
- terms: HRM lambda terms, typing, normalization
- combinators: BB'IW derivation certificates and the lambda bridge
- blueprint: stable parts, blueprints, extraction, shuffles, compressions
- compact: compactness of inhabitants and term transformations
- shadow: compact-shadow search (_Solver), decide, and shadows derived from
  it for the lemma checks
- oracle: independent brute-force inhabitant enumeration
- countermodel: 3-valued matrices that refute non-theorems, with a
  checkable countermodel for Empty
- cli: command-line front end
"""

__version__ = "0.1.0"
