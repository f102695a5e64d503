"""`semfuse` command line: every pipeline stage independently runnable over
file-based logs."""

from __future__ import annotations

import functools
import json
import sys

import click

from . import runner
from .evaluation import format_report, write_json_report
from .labelprop import MAP_PROVENANCES
from .labels import InvalidInputError


def _config(path, **overrides) -> runner.RunConfig:
    if path:
        return runner.RunConfig.load(path, **overrides)
    kwargs = {k: v for k, v in overrides.items() if v is not None}
    return runner.RunConfig(**kwargs)


def _reported(command):
    """Run a command's whole body; bad input, config or files print `error: ...`, exit 1."""
    @functools.wraps(command)
    def run(*args, **kwargs):
        try:
            command(*args, **kwargs)
        except (InvalidInputError, OSError) as e:
            click.echo(f"error: {e}", err=True)
            sys.exit(1)
    return run


@click.group()
def main():
    """Multi-modal semantic fusion, mapping, and label propagation."""


@main.command()
@click.option("--scene", required=True, type=click.Path(exists=True),
              help="SceneSpec JSON.")
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--seed", default=0, show_default=True)
@click.option("--scans", "n_scans", type=int, default=None,
              help="Override the scene's scan count.")
@_reported
def synth(scene, out_dir, seed, n_scans):
    """Generate a synthetic sensor log (scans, frames, detections, ground truth)."""
    meta = runner.generate_log(scene, out_dir, seed=seed, n_scans=n_scans)
    click.echo(json.dumps(meta))


@main.command()
@click.option("--config", type=click.Path(exists=True))
@click.option("--output-dir", type=click.Path(), default=None)
@click.option("--camera-only", is_flag=True, default=None,
              help="Uniform LiDAR prior: camera semantics only.")
@click.option("--s-factor", type=float, default=None)
@click.option("--alpha-dyn", type=float, default=None)
@click.option("--alpha-stat", type=float, default=None)
@_reported
def fuse(config, output_dir, camera_only, s_factor, alpha_dyn, alpha_stat):
    """Fuse camera semantics and detections into scans and image masks."""
    cfg = _config(config, output_dir=output_dir, camera_only=camera_only,
                  s_factor=s_factor, alpha_dyn=alpha_dyn, alpha_stat=alpha_stat)
    out = runner.run_fuse(cfg)
    click.echo(json.dumps(out))


@main.command(name="map")
@click.option("--config", type=click.Path(exists=True))
@click.option("--output-dir", type=click.Path(), default=None)
@click.option("--clouds", type=click.Path(exists=True), default=None,
              help="Directory of fused semantic clouds.")
@click.option("--voxel-size", type=float, default=None)
@click.option("--n-horizon", type=int, default=None,
              help="Scans a finite-horizon map keeps (default 10); "
                   "applies with --horizon finite.")
@click.option("--horizon", type=click.Choice(["infinite", "finite"]), default=None)
@click.option("--map-out", type=click.Path(), default=None)
@_reported
def map_cmd(config, output_dir, clouds, voxel_size, n_horizon, horizon, map_out):
    """Integrate fused clouds into a semantic voxel map snapshot."""
    cfg = _config(config, output_dir=output_dir, voxel_size=voxel_size,
                  n_horizon=n_horizon, horizon=horizon)
    out = runner.run_map(cfg, clouds_dir=clouds, map_path=map_out)
    click.echo(json.dumps(out))


@main.command()
@click.option("--config", type=click.Path(exists=True))
@click.option("--map", "map_path", type=click.Path(exists=True), default=None,
              help="Camera-only map snapshot to label from.")
@click.option("--output-dir", type=click.Path(), default=None)
@click.option("--threshold", type=float, default=None)
@click.option("--window", type=int, default=None)
@click.option("--provenance",
              type=click.Choice(MAP_PROVENANCES),
              default=None)
@click.option("--ground-correction", is_flag=True, default=None)
@click.option("--include-intensity", is_flag=True, default=None)
@_reported
def pseudolabel(config, map_path, output_dir, threshold, window, provenance,
                ground_correction, include_intensity):
    """Emit training-ready pseudo-label samples from an aggregated map."""
    cfg = _config(config, output_dir=output_dir, threshold=threshold,
                  window=window, provenance=provenance,
                  ground_correction=ground_correction,
                  include_intensity=include_intensity)
    out = runner.run_pseudolabel(cfg, map_path=map_path)
    click.echo(json.dumps(out))


@main.command(name="eval")
@click.option("--config", type=click.Path(exists=True))
@click.option("--pred", required=True, type=click.Path(exists=True),
              help="Map snapshot or directory of semantic clouds.")
@click.option("--ref", "reference", required=True, type=click.Path(exists=True),
              help="Reference map snapshot.")
@click.option("--camera-fov", is_flag=True, default=False,
              help="Restrict to points inside the camera frustum.")
@click.option("--json", "json_path", type=click.Path(), default=None)
@_reported
def eval_cmd(config, pred, reference, camera_fov, json_path):
    """Per-class and mean IoU against an annotated reference map."""
    result = runner.run_eval(_config(config), pred, reference, camera_fov=camera_fov)
    if json_path:
        write_json_report(result, json_path)
    click.echo(format_report(result))


@main.command()
@click.option("--seed", default=0, show_default=True)
@click.option("--repeats", default=5, show_default=True)
@_reported
def bench(seed, repeats):
    """Throughput of fuse_cloud, integrate_scan, and image smoothing."""
    out = runner.run_bench(seed=seed, repeats=repeats)
    click.echo(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
