"""Command-line entry points for the scenario runner and benchmark harness."""

from __future__ import annotations

from pathlib import Path

import click

from .runner import SWEEP_HEADER, compare, load_report, run, sweep_agents
from .scenario import ScenarioParseError
from .twinsync import SyncStateError


class _Group(click.Group):
    """Reports scenario errors and a sync run that diverges as `error:` lines, exit code 2."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except ScenarioParseError as exc:
            for problem in exc.problems:
                click.echo(f"error: {problem}", err=True)
            ctx.exit(2)
        except SyncStateError as exc:
            click.echo(f"error: {exc}", err=True)
            ctx.exit(2)


@click.group(cls=_Group)
def main() -> None:
    """Digital-twin synchronization and prioritized bridge benchmark harness."""


@main.command("run")
@click.argument("scenario_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--seed", type=int, default=None, help="Override the scenario seed.")
@click.option("--out-dir", type=click.Path(file_okay=False), default=None, help="Write CSV artifacts here.")
@click.option("--baseline", is_flag=True, help="FIFO mode: no prioritization or replay.")
def run_cmd(scenario_path: str, seed: int | None, out_dir: str | None, baseline: bool) -> None:
    """Run one scenario and print its summary."""
    report = run(scenario_path, seed=seed, out_dir=out_dir, baseline=baseline)
    for key in sorted(report.summary):
        click.echo(f"{key}: {report.summary[key]}")
    if out_dir:
        click.echo(f"artifacts written to {out_dir}")


@main.command("compare")
@click.argument("dir_a", type=click.Path(exists=True, file_okay=False))
@click.argument("dir_b", type=click.Path(exists=True, file_okay=False))
def compare_cmd(dir_a: str, dir_b: str) -> None:
    """Print per-metric deltas between two run directories (b relative to a)."""
    try:
        rows = compare(load_report(dir_a), load_report(dir_b))
    except OSError as exc:
        click.echo(f"error: cannot read {exc.filename}: {exc.strerror}", err=True)
        raise SystemExit(2)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        raise SystemExit(2)
    click.echo("scope,metric,a,b,delta,relative")
    for row in rows:
        rel = f"{row.relative:.4f}" if abs(row.relative) != float("inf") else "inf"
        click.echo(f"{row.scope},{row.metric},{row.a!r},{row.b!r},{row.delta!r},{rel}")


@main.command("sweep")
@click.argument("scenario_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--counts", default="2,3,5", show_default=True, help="Comma-separated agent counts.")
@click.option("--seed", type=int, default=None)
@click.option("--out-dir", type=click.Path(file_okay=False), default=None)
@click.option("--baseline", is_flag=True)
def sweep_cmd(scenario_path: str, counts: str, seed: int | None, out_dir: str | None, baseline: bool) -> None:
    """Run the scenario across several agent counts and print the scaling table."""
    items = [c.strip() for c in counts.split(",") if c.strip()]
    count_list = [int(c) for c in items if c.isdecimal()]
    if not items or len(count_list) < len(items) or any(a >= b for a, b in zip(count_list, count_list[1:])):
        click.echo(f"error: --counts {counts!r}: expected strictly ascending whole counts, such as 2,3,5", err=True)
        raise SystemExit(2)
    result = sweep_agents(scenario_path, count_list, seed=seed, baseline=baseline)
    click.echo(",".join(SWEEP_HEADER))
    for row in result.rows:
        click.echo(",".join(map(str, row)))
    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        result.write_csv(out / "sweep.csv")
        for count, report in zip(result.counts, result.reports):
            report.write_csvs(out / f"agents_{count}")
        click.echo(f"artifacts written to {out}")


if __name__ == "__main__":
    main()
