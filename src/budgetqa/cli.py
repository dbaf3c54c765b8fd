"""Command-line interface.

Subcommands: ask, train, evaluate, gen-bench, reproduce. ``train`` writes
one ``models.json``; ``ask`` and ``evaluate`` load it with ``--models``. Both
sides use the one grammar scorer, ``AdjacencyGrammarScorer``.
All three search one backend, set by ``--corpus`` or ``--config``.
``reproduce`` runs the paper's experiments end to end on a generated
benchmark; ``scripts/run_policy_experiments.py`` is that command.
Exit codes: 0 success or abstain, 1 usage error, 2 data error, 3 backend
error. ``ask`` writes each failed query to stderr and exits 3 when every
query it issued failed. ``evaluate`` counts a failed query against its
question and goes on; after its table it writes to stderr how many
questions had a failed query, and it exits 3 when every query it issued,
over every run of a sweep, failed.

Each command that writes declares its files once, in one ``_check_files``
call after its config loads and before any other work: what it reads (the
dataset, the config file, the corpus and the models file, the last two
also when only the config names them) and what it writes (a file, or a
directory and the names it writes there). An output that resolves to an
input or to another output, that is an existing directory, or whose
directory does not exist and cannot be made, is a usage error. The check
creates nothing; a directory is made only when a file is written in it.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Callable, NamedTuple

import click

from . import bench, evaluation, harness
from .config import Config, load_config
from .control import (
    AllRewrites,
    ConjunctiveOnly,
    CostBenefit,
    LikelihoodN,
    Policy,
    Preferences,
    RandomN,
    run_policy,
)
from .errors import BudgetQAError, ProviderError, RetryableError
from .models import MODELS_FILE, SCORER_NAME, TREE_NAMES, ModelSet
from .rewrite import AdjacencyGrammarScorer
from .search import OfflineProvider, build_index, save_corpus
from .tree import describe_tree

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_BACKEND = 3


@click.group()
def cli():
    """Factoid question answering with budgeted query submission."""


_config_option = click.option("--config", "config_path", type=click.Path(), default=None, help="JSON config file.")


class _Mode(NamedTuple):
    """What a run executes: the policy built from ``--n`` and the configured
    seed (None for a sweep, which runs no ``--policy``), the command-line
    flags it reads, and whether it needs trained models."""

    build: Callable[[int | None, int], Policy] | None
    reads: tuple[str, ...]
    needs_models: bool


#: Each ``--policy`` by name and each sweep by its flag, with the flags it
#: reads: a flag given on the command line that the run's row does not read
#: is a usage error.
_POLICIES = {
    "random": _Mode(lambda n, seed: RandomN(n=n or 1, seed=seed), ("--n", "--seed"), False),
    "likelihood": _Mode(lambda n, seed: LikelihoodN(n=n or 3), ("--n",), True),
    "conjunctive": _Mode(lambda n, seed: ConjunctiveOnly(), (), False),
    "all": _Mode(lambda n, seed: AllRewrites(), (), False),
    "cost-benefit": _Mode(lambda n, seed: CostBenefit(), ("--k", "--c"), True),
}
_SWEEPS = {"--sweep-k": _Mode(None, (), True), "--sweep-n": _Mode(None, ("--seeds",), True)}
#: Every row by the name usage errors give it.
_RUNS = {**{f"--policy {name}": mode for name, mode in _POLICIES.items()}, **_SWEEPS}


class _Preference(click.ParamType):
    """A number that ``Preferences`` accepts as its ``field``, k or c."""

    name = "float"

    def __init__(self, field: str):
        self.field = field

    def convert(self, value, param, ctx):
        value = click.FLOAT.convert(value, param, ctx)
        if problem := Preferences.error(self.field, value):
            self.fail(problem, param, ctx)
        return value


def _options(options: list):
    """A decorator that adds ``options`` to a command, in their help order."""

    def decorate(command):
        for option in reversed(options):
            command = option(command)
        return command

    return decorate


def _serving_options(default_policy: str):
    """The options ``ask`` and ``evaluate`` share, in their help order."""
    return _options([
        _config_option,
        click.option("--policy", type=click.Choice(list(_POLICIES)), default=default_policy),
        click.option("--n", type=click.IntRange(min=1), default=None, help="Budget for random/likelihood policies."),
        click.option("--seed", type=int, default=None),
        click.option("--k", type=_Preference("k"), default=None, help="Answer value as a multiple of query cost."),
        click.option("--corpus", "corpus_path", type=click.Path(), default=None),
        click.option("--models", "models_dir", type=click.Path(), default=None),
    ])


def _generator_options(min_questions: int, default_questions: int):
    """The benchmark generator's options, which ``gen-bench`` and
    ``reproduce`` share; each command sets its own ``--questions`` floor."""
    return _options([
        click.option("--questions", type=click.IntRange(min=min_questions), default=default_questions),
        click.option("--redundancy", type=click.IntRange(min=1, max=bench.MAX_REDUNDANCY), default=3),
        click.option("--distractors", type=click.IntRange(min=0), default=40),
        click.option("--seed", type=int, default=0),
    ])


def _generate(questions: int, redundancy: int, distractors: int, seed: int) -> bench.Benchmark:
    """The benchmark the generator options describe; a usage error for a
    size the generator cannot build."""
    if problem := bench.size_error(questions, distractors):
        raise click.UsageError(problem)
    return bench.generate_benchmark(questions, redundancy=redundancy, distractors=distractors, seed=seed)


def _check_files(reads: dict[str, str | None], writes: list[tuple[str, str, str, str]]) -> None:
    """A usage error for an output that resolves to an input or to another
    output, that is an existing directory, or whose directory does not exist
    and cannot be made; it creates nothing. ``reads`` gives each input's
    path (None for none) by what it is. Each of ``writes`` is what an output
    holds, the option naming it, its path and a name: "" when the path is
    the file, whose directory must exist, else the file's name in the
    directory ``path``, which must exist or be creatable."""
    seen = {os.path.realpath(path): what for what, path in reads.items() if path}
    for what, option, path, name in writes:
        found = path if name else os.path.dirname(path) or "."
        while name and not os.path.lexists(found):
            found = os.path.dirname(found) or "."
        if not os.path.isdir(found):
            problem = f"cannot create {path}: " + ("File exists" if found == path else "Not a directory")
            raise click.BadParameter(problem if name else f"no directory to write {path} in", param_hint=f"'{option}'")
        if name and found != path and not os.access(found, os.W_OK | os.X_OK):
            raise click.BadParameter(f"cannot create {path}: Permission denied", param_hint=f"'{option}'")
        file = os.path.join(path, name) if name else path
        if os.path.isdir(file):
            raise click.BadParameter(f"cannot create {file}: Is a directory", param_hint=f"'{option}'")
        if (real := os.path.realpath(file)) in seen:
            raise click.BadParameter(f"{file} is also the {seen[real]}", param_hint=f"'{option}'")
        seen[real] = what


def _comma_list(item_type: click.ParamType):
    """Option callback: a comma-separated list of at least one ``item_type``."""

    def parse(ctx, param, value):
        if value is None:
            return None
        items = [item_type.convert(v.strip(), param, ctx) for v in value.split(",") if v.strip()]
        if not items:
            raise click.BadParameter("needs at least one value", ctx, param)
        return items

    return parse


def _mode(ran: str, flags: dict[str, object]) -> _Mode:
    """The row of ``ran``, a key of ``_RUNS``; a usage error for any flag
    in ``flags`` (option name to value, None when not given) it never reads."""
    mode = _RUNS[ran]
    for flag, value in flags.items():
        if value is not None and flag not in mode.reads:
            readers = " or ".join(name for name, row in _RUNS.items() if flag in row.reads)
            raise click.UsageError(f"'{flag}' takes effect only with {readers}, not {ran}")
    return mode


def _load_models(cfg: Config, ran: str) -> ModelSet | None:
    """The configured model set; a usage error to give none when ``ran``, a
    key of ``_RUNS``, cannot run without models."""
    if cfg.models_dir:
        return ModelSet.load(cfg.models_dir)
    if _RUNS[ran].needs_models:
        raise click.UsageError(f"{ran} needs trained models: pass --models DIR from `budgetqa train`")
    return None


@cli.command("ask")
@click.argument("question")
@_serving_options(default_policy="all")
@click.option("--c", type=_Preference("c"), default=None, help="Cost per query; scales the printed nets.")
@click.option("--top", type=click.IntRange(min=1), default=5, help="Ranked answers to print.")
def cmd_ask(question, config_path, policy, n, seed, k, corpus_path, models_dir, c, top):
    """Answer one question with the configured policy."""
    ran = f"--policy {policy}"
    mode = _mode(ran, {"--n": n, "--seed": seed, "--k": k, "--c": c})
    cfg = load_config(config_path, corpus=corpus_path, models_dir=models_dir, k=k, c=c, seed=seed)
    models = _load_models(cfg, ran)
    provider = cfg.make_provider()
    result = run_policy(
        mode.build(n, cfg.seed),
        question,
        provider,
        models,
        cfg.preferences,
    )

    if result.decision is not None:
        nets = result.decision.per_threshold_net
        click.echo("threshold  p(correct)  expected value  cost  net")
        for t, p in sorted(result.decision.probabilities.items()):
            cost, net = t * cfg.c, nets[t]
            click.echo(f"{t:>9}  {p:>10.3f}  {net + cost:>14.3f}  {cost:>4g}  {net:>8.3f}")

    if result.abstained:
        click.echo("status: ABSTAINED")
        click.echo(
            "No query budget has positive expected value. "
            "Please try reformulating the question."
        )
        click.echo(f"queries issued: {result.queries_issued}")
    else:
        click.echo(f"status: ANSWERED  queries issued: {result.queries_issued}")
        if result.decision is not None:
            click.echo(f"chosen budget: {result.decision.n} (net {result.decision.expected_net:.3f})")
        for i, cand in enumerate(result.answers[:top], start=1):
            click.echo(f"{i:>2}. {cand.text}  (score {cand.score:g}, support {cand.support})")
        if not result.answers:
            click.echo("no answer candidates")
    # A failed query is one rewrite's loss; only a run whose every query
    # failed is a backend error.
    for error in result.backend_errors:
        click.echo(f"query failed: {error}", err=True)
    if result.backend_errors and len(result.backend_errors) == result.queries_issued:
        raise ProviderError(f"all {result.queries_issued} queries failed")


@cli.command("train")
@click.option("--dataset", "dataset_path", type=click.Path(), required=True)
@_config_option
@click.option("--corpus", "corpus_path", type=click.Path(), default=None)
@click.option("--out", "out_dir", type=click.Path(), required=True, help="Directory for models.json.")
def cmd_train(dataset_path, config_path, corpus_path, out_dir):
    """Train the quality trees and the budget trees on a labelled dataset."""
    cfg = load_config(config_path, corpus=corpus_path)
    _check_files({"dataset": dataset_path, "config": config_path, "corpus": cfg.corpus},
                 [("models file", "--out", out_dir, MODELS_FILE)])
    dataset = evaluation.load_dataset(dataset_path)
    models = harness.train_models(
        dataset, cfg.make_provider(), scorer=AdjacencyGrammarScorer()
    )
    path = models.save(out_dir)
    click.echo(f"trained on {len(dataset)} questions with the {SCORER_NAME} scorer -> {path}")
    for stage, n in TREE_NAMES:
        click.echo(f"-- threshold {n} --" if stage == "budget" else f"-- {stage} quality --")
        click.echo(describe_tree(models.trees[stage, n]))


@cli.command("evaluate")
@click.option("--dataset", "dataset_path", type=click.Path(), required=True)
@_serving_options(default_policy="cost-benefit")
@click.option("--sweep-k", "sweep_k_values", default=None, callback=_comma_list(_Preference("k")),
              help="Comma-separated k values.")
@click.option("--sweep-n", "sweep_n_flag", is_flag=True, help="Random vs likelihood over the threshold set.")
@click.option("--seeds", default=None, callback=_comma_list(click.INT),
              help="Random-order seeds for --sweep-n (default 0,1,2).")
@click.option("--jobs", type=click.IntRange(min=1), default=None,
              help="Parallel questions (default: 1 offline, where search is CPU-bound; "
                   "cpu count capped at max_in_flight for a remote endpoint).")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None, help="Write reports as JSONL.")
def cmd_evaluate(dataset_path, config_path, policy, n, seed, k, corpus_path, models_dir,
                 sweep_k_values, sweep_n_flag, seeds, jobs, out_path):
    """Evaluate a policy (or run a sweep) over a dataset."""
    if sweep_k_values and sweep_n_flag:
        raise click.UsageError("'--sweep-k' and '--sweep-n' are separate runs; give one of them")
    ran = "--sweep-k" if sweep_k_values else "--sweep-n" if sweep_n_flag else f"--policy {policy}"
    mode = _mode(ran, {"--n": n, "--seed": seed, "--k": k, "--seeds": seeds})
    source = click.get_current_context().get_parameter_source("policy")
    # A sweep runs its own policies, so a --policy given with one would be ignored.
    if (sweep_k_values or sweep_n_flag) and source is click.core.ParameterSource.COMMANDLINE:
        raise click.UsageError(f"'--policy' takes effect only without a sweep, not with {ran}")
    cfg = load_config(config_path, corpus=corpus_path, models_dir=models_dir, k=k, seed=seed)
    models_file = cfg.models_dir and os.path.join(cfg.models_dir, MODELS_FILE)
    _check_files({"dataset": dataset_path, "config": config_path, "corpus": cfg.corpus, "models file": models_file},
                 [("report file", "--out", out_path, "")] if out_path else [])
    dataset = evaluation.load_dataset(dataset_path)
    models = _load_models(cfg, ran)
    provider = cfg.make_provider()
    if jobs is None:
        # Offline search holds the GIL, so threads only add overhead there.
        jobs = min(os.cpu_count() or 1, cfg.max_in_flight) if cfg.endpoint else 1

    reports: list[evaluation.Report] = []  # every run's, each in dataset order
    if sweep_k_values:
        results = evaluation.sweep_k(
            dataset, provider, models, sweep_k_values, jobs=jobs
        )
        click.echo(evaluation.render_k_sweep(results))
        reports = [r for _, r in results]
        rows = [r.to_json() for r in reports]
    elif sweep_n_flag:
        rows = evaluation.sweep_n(dataset, provider, models, seeds or [0, 1, 2], jobs=jobs, reports=reports)
        click.echo(evaluation.render_n_sweep(rows))
    else:
        reports = [evaluation.evaluate(
            mode.build(n, cfg.seed), dataset, provider, models, cfg.preferences,
            jobs=jobs,
        )]
        click.echo(evaluation.render_reports(reports))
        rows = [reports[0].to_json()]
    records = [(i, r) for report in reports for i, r in enumerate(report.per_question)]
    issued, failed = sum(r.queries_issued for _, r in records), sum(r.failed for _, r in records)
    if failed:
        click.echo(f"{len({i for i, r in records if r.failed})} of {len(dataset)} questions had a failed query "
                   f"({failed} of {issued} queries)", err=True)
    if out_path:  # one JSON object per line: a report each, or a sweep-n row each
        evaluation.write_jsonl(rows, out_path)
        click.echo(f"wrote {len(rows)} {'row(s)' if sweep_n_flag else 'report(s)'} -> {out_path}")
    if failed and failed == issued:
        raise ProviderError(f"all {issued} queries failed")


@cli.command("gen-bench")
@_generator_options(min_questions=1, default_questions=100)
@click.option("--out-corpus", type=click.Path(dir_okay=False), required=True)
@click.option("--out-dataset", type=click.Path(dir_okay=False), required=True)
def cmd_gen_bench(questions, redundancy, distractors, seed, out_corpus, out_dataset):
    """Generate a synthetic benchmark corpus and dataset."""
    _check_files({}, [("corpus", "--out-corpus", out_corpus, ""), ("dataset", "--out-dataset", out_dataset, "")])
    result = _generate(questions, redundancy, distractors, seed)
    save_corpus(result.corpus, out_corpus)
    evaluation.dump_dataset(result.items, out_dataset)
    click.echo(
        f"{len(result.items)} questions, {len(result.corpus)} documents -> "
        f"{out_dataset}, {out_corpus}"
    )


@cli.command("reproduce")
# Half the questions train and half evaluate, so each half needs one.
@_generator_options(min_questions=2, default_questions=400)
@click.option("--k", type=_Preference("k"), default=10.0, help="Answer value as a multiple of query cost.")
@click.option("--seeds", default="0,1,2,3,4", callback=_comma_list(click.INT),
              help="Random-order seeds for the N sweep (default 0,1,2,3,4).")
@click.option("--out-dir", type=click.Path(), default="results", help="Directory for the JSONL reports.")
def cmd_reproduce(questions, redundancy, distractors, seed, k, seeds, out_dir):
    """Reproduce the paper's experiments on a synthetic benchmark.

    Trains the quality trees and the budget trees on half the
    questions, then runs on the other half the fixed-budget random vs
    likelihood sweep, the policy comparison and the answer-value sweep
    (``evaluation.reproduce``). Prints their tables and writes
    policy_comparison.jsonl and k_sweep.jsonl under --out-dir."""
    names = ("policy_comparison.jsonl", "k_sweep.jsonl")
    _check_files({}, [(name, "--out-dir", out_dir, name) for name in names])
    t0 = time.perf_counter()
    result = _generate(questions, redundancy, distractors, seed)
    half = questions // 2
    train_items, eval_items = result.items[:half], result.items[half:]
    provider = OfflineProvider(build_index(result.corpus))
    click.echo(f"benchmark: {len(result.corpus)} docs, {half} train / {len(eval_items)} eval questions")

    t_train = time.perf_counter()
    models = harness.train_models(train_items, provider, scorer=AdjacencyGrammarScorer())
    click.echo(f"models trained in {time.perf_counter() - t_train:.1f}s")

    # No decision reads the cost per query c, so the tables run at c = 1.
    experiment = evaluation.reproduce(eval_items, provider, models, Preferences(k=k, c=1.0), seeds)
    headings = ("fixed budgets: random vs likelihood order", "policy comparison", "answer-value sweep")
    for heading, table in zip(headings, experiment.tables()):
        click.echo(f"\n== {heading} ==\n{table}")
    os.makedirs(out_dir, exist_ok=True)
    reports = ([r.to_json() for r in experiment.reports], [r.to_json() for _, r in experiment.k_results])
    for name, rows in zip(names, reports):
        evaluation.write_jsonl(rows, os.path.join(out_dir, name))

    click.echo(f"\ndone in {time.perf_counter() - t0:.1f}s; reports under {out_dir}/")


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return EXIT_OK
    except click.exceptions.Abort:
        return EXIT_USAGE
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return EXIT_USAGE
    except (RetryableError, ProviderError) as exc:
        click.echo(f"backend error: {exc}", err=True)
        return EXIT_BACKEND
    except (BudgetQAError, OSError) as exc:
        click.echo(f"data error: {exc}", err=True)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
