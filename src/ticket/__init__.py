"""Decision engine for the implicational relevance logic T-arrow.

Subpackages:
- record: Record, the slotted immutable base of the decision path's value
  types (terms, certificates, countermodels, DecideConfig), which keeps
  `dataclasses` out of the start-up
- formula: interned implicational formulas (equal formulas are one object),
  parsing, printing, subformulas, contraction closure
- terms: HRM lambda terms, typing, canonical placement
- combinators: BB'IW derivation certificates and their extraction from
  normal inhabitants
- blueprint: stable parts, blueprints, extraction, shuffles, compressions
- compact: HRM normalization, the translation of derivations back to
  lambda terms, compactness of inhabitants, term transformations, and the
  explicit compact shadows derived from the search, for the lemma checks
- shadow: the decision core, compact-shadow search (_Solver) and decide;
  it loads neither blueprint nor compact
- oracle: independent brute-force inhabitant enumeration
- countermodel: 3-valued matrices that refute non-theorems, with a
  checkable countermodel for Empty
- cli: command-line front end
"""

__version__ = "0.1.0"
