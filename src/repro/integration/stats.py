"""Instrumentation of the integration algorithms (§6.3).

The paper's complexity claim is about *pair checks*: the naive algorithm
checks more than O(n²) class pairs while the optimized one averages
O(n).  :class:`IntegrationStats` counts exactly those events so the
benchmarks can regenerate the analysis:

* ``pairs_checked`` — pairs whose assertion lookup was actually
  performed ("really checked during the execution", §6.3 kind 1);
* ``pairs_skipped_labels`` — pairs pruned by the label mechanism
  (§6.3 kind 3);
* ``pairs_skipped_equivalence`` — brother pairs removed after an
  equivalence match (§6.3 kind 2);
* ``dfs_visits`` — nodes visited by ``path_labelling`` calls;
* plus output-side counters (links, merges, rules).
"""

from __future__ import annotations

import dataclasses
from typing import Dict


@dataclasses.dataclass
class IntegrationStats:
    """Counters for one integration run."""

    pairs_enqueued: int = 0
    pairs_checked: int = 0
    pairs_skipped_labels: int = 0
    pairs_skipped_equivalence: int = 0
    pairs_skipped_visited: int = 0
    dfs_calls: int = 0
    dfs_visits: int = 0
    is_a_links_inserted: int = 0
    is_a_links_removed: int = 0
    classes_merged: int = 0
    rules_generated: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)

    def describe(self) -> str:
        lines = ["integration stats:"]
        for key, value in self.as_dict().items():
            lines.append(f"  {key} = {value}")
        return "\n".join(lines)
