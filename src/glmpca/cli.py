"""Command-line interface.

Exit codes: 0 for a converged fit; 2 for a fit that did not converge,
either because the iteration cap was reached or because it stalled (a
sweep still lowered the objective after every step halving), with the
outputs still written and the cause named on stderr; 1 for
configuration or data errors.  All error text goes to stderr.
"""

from __future__ import annotations

import argparse
import sys

from . import io as gio
from .exceptions import ConfigError, GlmPcaError
from .families import KINDS, Family
from .model import build_model
from .optimizer import FitConfig, fit


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; 2 is reserved for
    # non-convergence, so turn parse failures into ConfigError instead
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="glmpca",
                     description="Exponential-family PCA for matrix data")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("fit", help="fit a factorization and write results")
    p.add_argument("--input", dest="input_path", required=True,
                   help="data matrix path")
    p.add_argument("--format", dest="input_format",
                   choices=["matrixmarket", "csv"], default=None,
                   help="input format (default: inferred from extension)")
    p.add_argument("--family", required=True, choices=list(KINDS))
    p.add_argument("--dispersion", type=float, default=None,
                   help="negative binomial shape (required for that family)")
    p.add_argument("--dims", required=True, type=int,
                   help="number of latent dimensions")
    p.add_argument("--obs-covariates", default=None,
                   help="CSV of observation covariates (N rows)")
    p.add_argument("--feat-covariates", default=None,
                   help="CSV of feature covariates (J rows)")
    p.add_argument("--offset", default="none",
                   help="'none', 'auto', or 'file:PATH' (one value per "
                        "observation)")
    p.add_argument("--no-intercept", dest="intercept", action="store_false",
                   help="drop the default all-ones observation covariate")
    p.add_argument("--penalty", type=float, default=1e-4,
                   help="ridge penalty on the latent columns")
    p.add_argument("--max-iters", type=int, default=1000)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--trace-every", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output-dir", default=".")
    return parser


def _load_offset(policy: str, n_obs: int):
    if policy in ("none", "auto"):
        return policy
    if policy.startswith("file:"):
        loaded = gio.read_matrix(policy[len("file:"):], "csv")
        vec = loaded.values.reshape(-1)
        if vec.size != n_obs:
            raise ConfigError(
                f"offset file has {vec.size} values, expected {n_obs}")
        return vec
    raise ConfigError(
        f"--offset must be 'none', 'auto', or 'file:PATH', got {policy!r}")


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.family == "negative_binomial" and args.dispersion is None:
            raise ConfigError(
                "--dispersion is required for --family negative_binomial")
        if args.family != "negative_binomial" and args.dispersion is not None:
            raise ConfigError(
                "--dispersion is only valid for --family negative_binomial")

        loaded = gio.read_matrix(args.input_path, args.input_format)
        family = Family(args.family, dispersion=args.dispersion)

        obs_cov = feat_cov = None
        if args.obs_covariates:
            obs_cov = gio.read_matrix(args.obs_covariates, "csv").values
        if args.feat_covariates:
            feat_cov = gio.read_matrix(args.feat_covariates, "csv").values
        offset = _load_offset(args.offset, loaded.values.shape[1])

        # meta.json echoes every flag, with the input format resolved
        run_config = dict(vars(args), input_format=loaded.format)
        del run_config["command"]

        # build_model validates the data and the offset before any sweep
        state = build_model(
            loaded.values, n_latent=args.dims, family=family,
            obs_covariates=obs_cov, feat_covariates=feat_cov,
            intercept=args.intercept, offset=offset,
            penalty_u=args.penalty, penalty_v=args.penalty, seed=args.seed)
        config = FitConfig(max_iters=args.max_iters, tol=args.tol,
                           trace_every=args.trace_every)
        result = fit(state, config)
        gio.write_result(result, args.output_dir,
                         row_names=loaded.row_names,
                         col_names=loaded.col_names, config=run_config)
    except (GlmPcaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if result.stop_reason == "stalled":
        print(f"stalled at iteration {result.iterations_run}: the sweep "
              f"lowered the objective even after {config.max_halvings} step "
              "halvings (outputs written)", file=sys.stderr)
        return 2
    if not result.converged:
        print(f"did not converge within {args.max_iters} iterations "
              "(outputs written)", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    raise SystemExit(run_cli())


if __name__ == "__main__":
    main()
