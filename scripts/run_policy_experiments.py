#!/usr/bin/env python3
"""End-to-end policy experiments on a synthetic benchmark: ``budgetqa
reproduce``, runnable from a checkout without installing the package.

Generates a benchmark, trains the quality trees and the budget trees on
one half, then reproduces the three experiment shapes on the held-out half:

  1. fixed budgets: random order vs likelihood order per max-rewrite cap N
  2. policy comparison: conjunctive-only vs cost-benefit vs all rewrites
  3. answer-value sweep: cost-benefit at several settings of k

Writes aligned tables to stdout and JSON lines under --out-dir. Takes the
options of ``budgetqa reproduce`` and exits as it does: 1 on a usage error.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from budgetqa.cli import main

if __name__ == "__main__":
    sys.exit(main(["reproduce", *sys.argv[1:]]))
