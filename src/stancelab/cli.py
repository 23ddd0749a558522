"""Command-line entry points.

The pipeline runs stage by stage against one config file, and every stage
writes its outputs into the configured output directory. `stancelab stage`
runs one stage, which reads the earlier stages' outputs from those files, so
stages can be re-run individually. `stancelab run` executes all of them in
order in one process: it still writes every file, and hands each stage's
outputs to the later stages in memory instead of reading them back.
"""

from __future__ import annotations

import os
import sys
from dataclasses import replace
from pathlib import Path

import click

from . import __version__
from . import corpus as corpus_mod
from .config import SCALARS, PipelineConfig, check_value, load_config
from .pipeline import STAGES, Pipeline, output_lock
from .synth import SynthSpec, generate
from .tsv import StancelabError


def _pipeline(config_path: str, seed) -> Pipeline:
    cfg = load_config(config_path)
    if seed is not None:
        check_value("--seed", seed, SCALARS["rng_seed"])
        cfg = replace(cfg, rng_seed=seed,
                      boost=replace(cfg.boost, rng_seed=seed))
    return Pipeline(cfg)


def _progress(line: str) -> None:
    """Print a progress line. Once the reader has closed stdout (as
    ``| head -n 1`` does), the later lines go to ``os.devnull``, as Python's
    ``signal`` docs advise, and the command runs on."""
    try:
        click.echo(line)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


class _Main(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (StancelabError, OSError) as exc:
            raise click.ClickException(str(exc)) from None


@click.group(cls=_Main)
@click.version_option(version=__version__, prog_name="stancelab")
def main():
    """Stance measurement and turnaround analysis for micro-blogging data."""


@main.command()
@click.argument("stage", type=click.Choice(STAGES))
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True), help="YAML pipeline config.")
@click.option("--seed", type=int, default=None,
              help="Override the configured RNG seed.")
@click.option("--skip-fresh", is_flag=True,
              help="Skip the stage if its outputs match the current config.")
def stage(stage, config_path, seed, skip_fresh):
    """Run one pipeline STAGE."""
    pipe = _pipeline(config_path, seed)
    with output_lock(pipe.out):
        ran = pipe.run_stage(stage, skip_fresh=skip_fresh)
    _progress(f"{stage}: {'done' if ran else 'fresh, skipped'} ({pipe.out})")


@main.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True), help="YAML pipeline config.")
@click.option("--seed", type=int, default=None,
              help="Override the configured RNG seed.")
@click.option("--skip-fresh", is_flag=True,
              help="Skip stages whose outputs match the current config.")
def run(config_path, seed, skip_fresh):
    """Run every pipeline stage in order."""
    pipe = _pipeline(config_path, seed)
    pipe.run_all(skip_fresh, lambda s, ran: _progress(
        f"{s}: {'done' if ran else 'fresh, skipped'}"))
    _progress(f"all stages complete ({pipe.out})")


@main.command()
@click.argument("corpus_path", type=click.Path(exists=True))
@click.option("--terms", default=",".join(PipelineConfig.include_terms),
              help="Comma-separated relevance terms.")
def inspect(corpus_path, terms):
    """Print corpus summary statistics without running the pipeline."""
    corpus = corpus_mod.load_corpus(corpus_path)
    click.echo(f"posts: {corpus.n_posts}")
    click.echo(f"users: {corpus.n_users}")
    term_list = [t.strip() for t in terms.split(",") if t.strip()]
    if term_list:
        relevant = corpus_mod.filter_relevant(corpus, term_list)
        click.echo(f"relevant posts: {relevant.n_posts}")
    graph = corpus_mod.build_interaction_graph(corpus)
    lcc = corpus_mod.largest_connected_component(graph)
    click.echo(f"interaction edges: {len(graph.edges)}")
    click.echo(f"largest component: {len(lcc)} users")


@main.command()
@click.argument("output", type=click.Path())
@click.option("--n-users", type=int, default=500)
@click.option("--seed", type=int, default=0)
def synth(output, n_users, seed):
    """Generate a synthetic two-period corpus with planted effects."""
    spec = SynthSpec(
        n_users=n_users,
        rng_seed=seed,
        turnaround_effects={"gender": {"male": -0.10},
                            "age_cohort": {"18-29": 0.25},
                            "location": {"Chile": -0.15}},
    )
    corpus, _truth = generate(spec)
    Path(output).parent.mkdir(parents=True, exist_ok=True)
    corpus_mod.write_corpus(corpus, output)
    click.echo(f"wrote {corpus.n_posts} posts / {corpus.n_users} users "
               f"to {output}")


if __name__ == "__main__":
    sys.exit(main())
