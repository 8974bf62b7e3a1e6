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
from . import optimizer
from .exceptions import ConfigError, GlmPcaError
from .families import KINDS, Family
from .model import build_model


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
    p.add_argument("--family", required=True, choices=list(KINDS))
    p.add_argument("--dispersion", type=float, default=None,
                   help="negative binomial shape (required for that family)")
    p.add_argument("--dims", required=True, type=int,
                   help="number of latent dimensions")
    p.add_argument("--obs-covariates", default=None,
                   help="matrix of observation covariates (N rows)")
    p.add_argument("--feat-covariates", default=None,
                   help="matrix of feature covariates (J rows)")
    p.add_argument("--offset", default="none",
                   help="'none', 'auto', or 'file:PATH' (a matrix of one "
                        "row or one column, one value per observation)")
    p.add_argument("--no-intercept", dest="intercept", action="store_false",
                   help="drop the default all-ones observation covariate")
    p.add_argument("--penalty", type=float, default=1e-4,
                   help="one ridge lambda on the latent columns of U and V")
    p.add_argument("--max-iters", type=int, default=1000)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output-dir", default=".")
    return parser


def _load_offset(policy: str, n_obs: int):
    if policy in ("none", "auto"):
        return policy
    if policy.startswith("file:"):
        values = gio.read_matrix(policy[len("file:"):]).values
        if 1 not in values.shape:
            raise ConfigError(
                f"offset file must hold one row or one column of {n_obs} "
                f"values, got {values.shape[0]} x {values.shape[1]}")
        return values.reshape(-1)
    raise ConfigError(
        f"--offset must be 'none', 'auto', or 'file:PATH', got {policy!r}")


def run_cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.family == "negative_binomial" and args.dispersion is None:
            raise ConfigError(
                "--dispersion is required for --family negative_binomial")
        family = Family(args.family, dispersion=args.dispersion)
        config = optimizer.FitConfig(max_iters=args.max_iters, tol=args.tol)

        loaded = gio.read_matrix(args.input_path)

        obs_cov = feat_cov = None
        if args.obs_covariates:
            obs_cov = gio.read_matrix(args.obs_covariates).values
        if args.feat_covariates:
            feat_cov = gio.read_matrix(args.feat_covariates).values
        offset = _load_offset(args.offset, loaded.values.shape[1])

        # meta.json echoes every flag, and the format the input was read as
        run_config = dict(vars(args), input_format=loaded.format)
        del run_config["command"]

        # build_model validates the data and the offset before any sweep
        state = build_model(
            loaded.values, n_latent=args.dims, family=family,
            obs_covariates=obs_cov, feat_covariates=feat_cov,
            intercept=args.intercept, offset=offset,
            penalty=args.penalty, seed=args.seed)
        result = optimizer.fit(state, config)
        gio.write_result(result, args.output_dir,
                         row_names=loaded.row_names,
                         col_names=loaded.col_names, config=run_config)
    except (GlmPcaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if result.stop_reason == "stalled":
        print(f"stalled at iteration {result.iterations_run}: the sweep "
              "lowered the objective even after "
              f"{optimizer.MAX_HALVINGS} step halvings (outputs written)",
              file=sys.stderr)
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
