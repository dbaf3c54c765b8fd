#!/usr/bin/env python3
"""Run one-edit mutants of the source against the tests named to kill them.

Each mutant is data: a file, an old text that must occur in it exactly once,
the new text that replaces it, and the test files expected to fail under the
change. A mutant runs in a temporary copy of the tree, with only its killer
files (``pytest -x``), and prints one row:

- ``killed``: a killer test failed, so the rule the mutant breaks is pinned;
- ``survived``: every killer test passed, so nothing pins that rule;
- ``stale``: the old text is not in the file exactly once (the code moved),
  so the mutant did not run and its entry needs updating;
- ``error N``: pytest exited with status N (not a test failure), or
  ``timeout``.

The exit status is 1 unless every mutant run was killed. With names, only
those mutants run:

    python scripts/mutants.py [NAME ...]
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Sequence

ROOT = Path(__file__).resolve().parent.parent
COPY_IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info", "build", "dist"
)
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the tree's root
    old: str
    new: str
    killers: tuple[str, ...]  # test files, relative to the tree's root


MUTANTS = [
    # Composition and judging.
    Mutant(
        "tiling-tie-break-flipped", "src/budgetqa/compose.py",
        "(rank == best[0] and (ka, kb) < best[1])", "(rank == best[0] and (ka, kb) > best[1])",
        ("tests/test_compose.py",),
    ),
    Mutant(
        "filters-off", "src/budgetqa/compose.py",
        "factor = factor_of(cand.tokens)", "factor = 1.0",
        ("tests/test_compose.py",),
    ),
    Mutant(
        "question-tokens-not-excluded", "src/budgetqa/control.py",
        "exclude=self.question.token_keys)", "exclude=frozenset())",
        ("tests/test_control.py",),
    ),
    Mutant(
        "judge-search-not-fullmatch", "src/budgetqa/evaluation.py",
        "if pattern.fullmatch(trimmed):", "if pattern.search(trimmed):",
        ("tests/test_evaluation.py",),
    ),
    Mutant(
        "dataset-patterns-compiled-late", "src/budgetqa/evaluation.py",
        "    item.patterns  # compiled now, so a bad regex fails here\n", "",
        ("tests/test_evaluation.py",),
    ),
    # The memo maps stay out of a question's and an item's value.
    Mutant(
        "item-verdicts-compared", "src/budgetqa/evaluation.py",
        "verdicts: dict[str | None, Judgment] = field(default_factory=dict, init=False, compare=False, repr=False)",
        "verdicts: dict[str | None, Judgment] = field(default_factory=dict, init=False, repr=False)",
        ("tests/test_evaluation.py",),
    ),
    Mutant(
        "question-compositions-compared", "src/budgetqa/rewrite.py",
        "compositions: dict[tuple[tuple[str, ...], ...], tuple] = field(default_factory=dict, init=False, compare=False,",
        "compositions: dict[tuple[tuple[str, ...], ...], tuple] = field(default_factory=dict, init=False,",
        ("tests/test_rewrite.py",),
    ),
    # The experiments' sequence.
    Mutant(
        "k-sweep-grid-changed", "src/budgetqa/evaluation.py",
        "K_SWEEP = (5.0, 10.0, 15.0, 20.0)", "K_SWEEP = (5.0, 10.0, 15.0, 25.0)",
        ("tests/test_evaluation.py",),
    ),
    # Question heads and JSON-lines files.
    Mutant(
        "how-long-head-dropped", "src/budgetqa/rewrite.py",
        '    ("how", "long"): QuestionType.HOW_LONG,\n', "",
        ("tests/test_rewrite.py",),
    ),
    Mutant(
        "jsonl-line-number-dropped", "src/budgetqa/search.py",
        'raise DatasetParseError(f"bad {what} record: {exc}", line_no) from exc',
        'raise DatasetParseError(f"bad {what} record: {exc}") from exc',
        ("tests/test_search.py",),
    ),
    Mutant(
        "jsonl-decode-outside-the-try", "src/budgetqa/search.py",
        '            try:\n                text = line.decode("utf-8")\n',
        '            text = line.decode("utf-8")\n            try:\n',
        ("tests/test_cli.py",),
    ),
    # Models.
    Mutant(
        "models-budgets-unchecked", "src/budgetqa/models.py",
        "if names != list(TREE_NAMES) or any(", "if not names or any(",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "models-tree-n-type-unchecked", "src/budgetqa/models.py",
        " or any(type(n) is not int for _, n in names):", ":",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "models-header-field-skipped", "src/budgetqa/models.py",
        "for name, value in MODELS_HEADER.items():", "for name, value in list(MODELS_HEADER.items())[:-1]:",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "ensemble-shares-only-identical-trees", "src/budgetqa/models.py",
        "{name: trees[trees.index(tree)] for name, tree", "{name: tree for name, tree",
        ("tests/test_models.py", "tests/test_harness.py"),
    ),
    Mutant(
        "quality-case-kinds-swapped", "src/budgetqa/models.py",
        'return ("conjunctive", 1), conjunctive_features(rewrite)\n    return ("phrasal", 1), phrasal_features',
        'return ("phrasal", 1), conjunctive_features(rewrite)\n    return ("conjunctive", 1), phrasal_features',
        ("tests/test_models.py",),
    ),
    Mutant(
        "quality-order-reversed", "src/budgetqa/models.py",
        "key=self.quality_score, reverse=True)", "key=self.quality_score, reverse=False)",
        ("tests/test_models.py",),
    ),
    Mutant(
        "laplace-smoothing-changed", "src/budgetqa/tree.py",
        "probability=(pos + 1) / (len(cases) + 2)", "probability=(pos + 2) / (len(cases) + 4)",
        ("tests/test_tree.py",),
    ),
    # The run and the cost-benefit policy.
    Mutant(
        "features-read-before-execution", "src/budgetqa/control.py",
        "        answers = self.compose(n)\n"
        "        return extract_run_features(\n"
        "            self.question, list(zip(self.rewrites, self.snippets[:n])), answers\n",
        "        return extract_run_features(\n"
        "            self.question, list(zip(self.rewrites, self.snippets[:n])), self.compose(n)\n",
        ("tests/test_control.py",),
    ),
    Mutant(
        "charge-only-the-rewrites-used", "src/budgetqa/control.py",
        "answers, len(self.snippets), decision,", "answers, min(n, len(self.snippets)), decision,",
        ("tests/test_control.py",),
    ),
    Mutant(
        "answer-from-the-whole-probe", "src/budgetqa/control.py",
        "else max(decision.n, PROBE_SIZE), decision)", "else decision.n, decision)",
        ("tests/test_control.py",),
    ),
    Mutant(
        "composition-key-ignores-order", "src/budgetqa/control.py",
        "key += (rewrite.parts,)", "key = tuple(sorted(key + (rewrite.parts,)))",
        ("tests/test_control.py",),
    ),
    # The budget choice.
    Mutant(
        "net-ties-go-to-the-larger-n", "src/budgetqa/control.py",
        "        if units > best:\n", "        if units >= best:\n",
        ("tests/test_control.py",),
    ),
    Mutant(
        "abstain-on-a-best-net-of-zero", "src/budgetqa/control.py",
        "    if best < 0:\n", "    if best <= 0:\n",
        ("tests/test_control.py",),
    ),
    Mutant(
        "rank-on-nets-scaled-by-c", "src/budgetqa/control.py",
        "nets[n] = (units := p * k - n) * c", "nets[n] = units = p * k * c - n * c",
        ("tests/test_control.py",),
    ),
    Mutant(
        "net-falls-as-k-rises", "src/budgetqa/control.py",
        "nets[n] = (units := p * k - n) * c", "nets[n] = (units := p * (101 - k) - n) * c",
        ("tests/test_evaluation.py",),
    ),
    # The speed-tuned kernels, each against its slow version in tests/oracles.py.
    Mutant(
        "ngrams-bigram-right-edge-unchecked", "src/budgetqa/text.py",
        "        if i + 1 in is_edge:\n", "        if i + 1 < len(keys):\n",
        ("tests/test_search.py",),
    ),
    Mutant(
        "index-first-posting-misplaced", "src/budgetqa/search.py",
        "postings[key] = [ordinal, pos]", "postings[key] = [ordinal, pos + 1]",
        ("tests/test_search.py",),
    ),
    Mutant(
        "snippet-window-start-shifted", "src/budgetqa/search.py",
        "lo = start - DEFAULT_WINDOW", "lo = start - DEFAULT_WINDOW + 1",
        ("tests/test_search.py",),
    ),
    Mutant(
        "phrase-last-key-unchecked", "src/budgetqa/search.py",
        "doc_keys[ordinal][start : start + size] == phrase_keys",
        "doc_keys[ordinal][start : start + size - 1] == phrase_keys[:-1]",
        ("tests/test_search.py",),
    ),
    Mutant(
        "mining-second-form-count-dropped", "src/budgetqa/compose.py",
        "entry[3] = {entry[2]: entry[1] - 1, form: 1}", "entry[3] = {entry[2]: 1, form: 1}",
        ("tests/test_compose.py",),
    ),
    Mutant(
        "tiling-stops-a-merge-early", "src/budgetqa/compose.py",
        "while occurrences > distinct:", "while occurrences > distinct + 1:",
        ("tests/test_compose.py",),
    ),
    Mutant(
        "tiling-membership-tests-last-key", "src/budgetqa/compose.py",
        "kb[0] not in ka", "kb[-1] not in ka",
        ("tests/test_compose.py",),
    ),
    Mutant(
        "scorer-past-form-after-auxiliary-counted", "src/budgetqa/rewrite.py",
        'violations += prev not in (None, "aux")', "violations += prev is not None",
        ("tests/test_rewrite.py",),
    ),
    Mutant(
        "count-stats-capitals-read-last-letter", "src/budgetqa/rewrite.py",
        "if w[:1].isupper()", "if w[-1:].isupper()",
        ("tests/test_rewrite.py",),
    ),
    # Relations the pipeline keeps.
    Mutant(
        "conjunctive-hits-in-corpus-order", "src/budgetqa/search.py",
        "ordered = sorted(matched, key=lambda o: index.docs[o].id)", "ordered = sorted(matched)",
        ("tests/test_evaluation.py",),
    ),
    # The configuration.
    Mutant(
        "config-results-key-unchecked", "src/budgetqa/config.py",
        'for name in ("token", "query_param", "results_key", "summary_key"):',
        'for name in ("token", "query_param", "summary_key"):',
        ("tests/test_cli.py",),
    ),
    # The command line's mode table and options.
    Mutant(
        "random-row-without-seed", "src/budgetqa/cli.py",
        'RandomN(n=n or 1, seed=seed), ("--n", "--seed"), False)', 'RandomN(n=n or 1, seed=seed), ("--n",), False)',
        ("tests/test_cli.py",),
    ),
    Mutant(
        "likelihood-row-without-models", "src/budgetqa/cli.py",
        'LikelihoodN(n=n or 3), ("--n",), True)', 'LikelihoodN(n=n or 3), ("--n",), False)',
        ("tests/test_cli.py",),
    ),
    # The command line's declaration of each command's files.
    Mutant(
        "evaluate-reads-no-models-file", "src/budgetqa/cli.py",
        '"corpus": cfg.corpus, "models file": models_file}', '"corpus": cfg.corpus}',
        ("tests/test_cli.py",),
    ),
    Mutant(
        "reproduce-takes-one-question", "src/budgetqa/cli.py",
        "@_generator_options(min_questions=2, default_questions=400)",
        "@_generator_options(min_questions=1, default_questions=400)",
        ("tests/test_scripts.py",),
    ),
]


def is_stale(mutant: Mutant, root: Path = ROOT) -> bool:
    """Whether the mutant's old text is not in its file exactly once."""
    path = root / mutant.path
    return not path.is_file() or path.read_text(encoding="utf-8").count(mutant.old) != 1


def outcome(mutant: Mutant, root: Path = ROOT) -> str:
    """Apply ``mutant`` in a temporary copy of ``root`` and run its killers."""
    if is_stale(mutant, root):
        return "stale"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(root, tree, ignore=COPY_IGNORE)
        target = tree / mutant.path
        target.write_text(target.read_text(encoding="utf-8").replace(mutant.old, mutant.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}  # as tier-1 runs
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.killers]
        try:
            done = subprocess.run(command, cwd=tree, env=env, capture_output=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timeout"
    return {0: "survived", 1: "killed"}.get(done.returncode, f"error {done.returncode}")


def run(mutants: Sequence[Mutant], root: Path = ROOT) -> list[str]:
    """Each mutant's outcome, printed as a table row as it finishes."""
    width = max(len(m.name) for m in mutants)
    print(f"{'outcome':<9}  {'mutant':<{width}}  killers", flush=True)
    outcomes = []
    for mutant in mutants:
        outcomes.append(outcome(mutant, root))
        print(f"{outcomes[-1]:<9}  {mutant.name:<{width}}  {' '.join(mutant.killers)}", flush=True)
    print(", ".join(f"{outcomes.count(o)} {o}" for o in sorted(set(outcomes))))
    return outcomes


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="Mutants to run (default: all).")
    names = parser.parse_args().names
    if unknown := sorted(set(names) - {m.name for m in MUTANTS}):
        parser.error(f"no such mutant: {', '.join(unknown)}")
    outcomes = run([m for m in MUTANTS if not names or m.name in names])
    sys.exit(0 if all(o == "killed" for o in outcomes) else 1)


if __name__ == "__main__":
    main()
