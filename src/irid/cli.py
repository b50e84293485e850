"""Command-line interface.

    irid validate <model>
    irid solve    <model> --backend exact|gibbs [--seed N] [--burn-in N]
                  [--samples N] [--objective max|min] --out <file>
    irid compare  <model> [sampler flags]
    irid oracle   <model>

The sampler flags (--seed, --burn-in, --samples) apply to the Gibbs backend
only; `solve --backend exact` rejects them.  `--samples` is the number of
draws per cell, and every one is kept; `--burn-in` only advances each
cell's stream past that many draws' uniforms, which has no statistical
effect.  The alternatives of a cell are always ranked on one shared stream
drawn from the seed.

Exit codes: 0 success (for compare: the policies agree, or differ only in
ties: the sampled policies' exact expected value is the exact optimum to
1e-9 relative), 1 usage error (sampler flags out of range or given to the
exact backend, and a solution file that cannot be written, included), 2
model/validation error (a model file that cannot be read included), 3 runtime
error (budget exceeded, impossible conditioning configuration, out of memory,
with the sampler's run length where it samples), 4 compare only: the
policies differ, and the sampled ones fall short of the optimum or are too
large to evaluate by enumeration, 5 internal error: an exception no other
code covers, reported in one line as `internal error: <type>: <message>`.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import oracle as oracle_mod
from .errors import (
    AllZeroSupport,
    BudgetExceeded,
    IncompleteConfig,
    InvalidModel,
    ModelError,
    ModelSyntaxError,
    NoPositiveState,
    SchemaError,
    StageOutOfRange,
    ValueNotInFrame,
    ZeroNormalizer,
)
from .gibbs import SamplerConfig
from .model import IridModel, Policy
from .modelfile import read_model, serialize_solution
from .solver import Solution, SolveOptions, solve

_VALIDATION_ERRORS = (ModelError, ModelSyntaxError, SchemaError, ValueNotInFrame, IncompleteConfig)
_RUNTIME_ERRORS = (BudgetExceeded, NoPositiveState, ZeroNormalizer, AllZeroSupport, StageOutOfRange)

#: relative gap below which a differing policy set counts as a tie
_TIE_TOLERANCE = 1e-9


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2 for validation
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="irid", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model file")
    p.add_argument("model")

    p = sub.add_parser("solve", help="compute optimal policies")
    p.add_argument("model")
    p.add_argument("--backend", required=True, choices=("exact", "gibbs"))
    _sampler_flags(p)
    p.add_argument("--objective", choices=("max", "min"))
    p.add_argument("--out", required=True, help="solution file to write")

    p = sub.add_parser("compare", help="run both backends and compare")
    p.add_argument("model")
    _sampler_flags(p)

    p = sub.add_parser("oracle", help="exhaustive policy search")
    p.add_argument("model")
    return parser


#: (flag, argparse dest); a flag not given stays None, and the sampler takes
#: seed 0 and SamplerConfig's defaults (burn-in 1000, samples 20000)
_SAMPLER_FLAGS = (
    ("--seed", "seed"),
    ("--burn-in", "burn_in"),
    ("--samples", "samples"),
)


def _sampler_flags(p):
    for flag, dest in _SAMPLER_FLAGS:
        p.add_argument(flag, type=int, dest=dest)


def run_cli(argv=None) -> int:
    args = None
    try:
        args = _build_parser().parse_args(argv)
        return _dispatch(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except _VALIDATION_ERRORS as e:
        field = getattr(e, "field", None)
        loc = f" at {field}" if field else ""
        print(f"invalid model{loc}: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"cannot read model: {e}", file=sys.stderr)
        return 2
    except _RUNTIME_ERRORS as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return 3
    except MemoryError:
        print(f"runtime error: out of memory{_run_length(args)}", file=sys.stderr)
        return 3
    except Exception as e:  # a fault of irid itself, not of the input
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 5


def _run_length(args) -> str:
    """The sampler run length of a command that samples, as a message
    suffix; empty for one that does not."""
    command = getattr(args, "command", None)
    if command not in ("solve", "compare") or getattr(args, "backend", "gibbs") != "gibbs":
        return ""
    sampler = _sampler_from(args)
    return (
        f" in a sampler run of {sampler.samples} draws per estimate"
        f" (stream advanced past {sampler.burn_in} draws)"
    )


def main() -> None:
    sys.exit(run_cli())


def _dispatch(args) -> int:
    if args.command == "validate":
        read_model(args.model)
        print("OK")
        return 0
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "oracle":
        return _cmd_oracle(args)
    raise _UsageError(f"unknown command {args.command!r}")  # pragma: no cover


def _sampler_from(args) -> SamplerConfig:
    given = {
        dest: getattr(args, dest)
        for _, dest in _SAMPLER_FLAGS
        if getattr(args, dest) is not None
    }
    try:
        return SamplerConfig(**{"seed": 0, **given})
    except InvalidModel as e:  # a bad flag, not a bad model file
        raise _UsageError(e) from None


def _cmd_solve(args) -> int:
    objective = {"max": "maximize", "min": "minimize", None: None}[args.objective]
    if args.backend == "gibbs":
        options = SolveOptions(
            backend="gibbs", sampler=_sampler_from(args), objective_override=objective
        )
    else:
        given = [flag for flag, dest in _SAMPLER_FLAGS if getattr(args, dest) is not None]
        if given:
            raise _UsageError(f"{', '.join(given)}: only for --backend gibbs")
        options = SolveOptions(backend="exact", objective_override=objective)
    model = read_model(args.model)
    solution = solve(model, options)
    data = serialize_solution(solution)
    # opened only now, so that a failed solve or serialization leaves an
    # existing file alone
    try:
        with open(args.out, "wb") as fh:
            fh.write(data)
    except OSError as e:
        raise _UsageError(f"cannot write solution: {e}") from None
    _print_policies(model, solution.policies)
    se, n = solution.expected_value_std_error, solution.expected_value_n
    if n is None:  # exact
        extra = ""
    elif se is None:  # fewer than two samples
        extra = f"  (std error undefined, n {n})"
    else:
        extra = f"  (std error {se:.2f}, n {n})"
    print(f"expected value: {solution.expected_value:.2f}{extra}")
    print(f"solution written to {args.out}")
    return 0


def _cmd_compare(args) -> int:
    gibbs_options = SolveOptions(backend="gibbs", sampler=_sampler_from(args))
    model = read_model(args.model)
    exact_solution = solve(model, SolveOptions(backend="exact"))
    gibbs_solution = solve(model, gibbs_options)
    exact_by_key = {
        (d.stage, d.decision, d.config, d.alternative): d
        for d in exact_solution.per_cell_diagnostics
    }
    print("per-cell comparison (exact vs. estimate):")
    for d in gibbs_solution.per_cell_diagnostics:
        ex = exact_by_key.get((d.stage, d.decision, d.config, d.alternative))
        cfg = ",".join(f"{v}={lab}" for v, lab in d.config)
        exact_txt = "---" if ex is None or ex.value is None else f"{ex.value:>15.2f}"
        if d.value is None:
            est_txt = "---".rjust(15) + "  (zero-probability cell)"
        else:
            se_txt = "n/a" if d.std_error is None else f"{d.std_error:>12.2f}"
            est_txt = f"{d.value:>15.2f}  se={se_txt}"
        print(
            f"  stage {d.stage} {d.decision}({cfg}) {d.alternative:>8}  "
            f"exact={exact_txt}  estimate={est_txt}"
        )
    differing = {
        dec
        for dec, pol in exact_solution.policies.items()
        if pol.table != gibbs_solution.policies[dec].table
    }
    tie = bool(differing) and _reaches_optimum(model, gibbs_solution, exact_solution)
    for dec in exact_solution.policies:
        verdict = "agrees" if dec not in differing else "agrees (tie)" if tie else "DIFFERS"
        print(f"policy for {dec}: {verdict}")
    print(
        f"expected value: exact={exact_solution.expected_value:.2f} "
        f"gibbs={gibbs_solution.expected_value:.2f}"
    )
    if differing and not tie:
        print("policies differ")
        return 4
    print("policies agree (tie)" if tie else "policies agree")
    return 0


def _reaches_optimum(model: IridModel, gibbs_solution: Solution, exact_solution: Solution) -> bool:
    """Whether the sampled policies' exact expected value, by enumeration,
    is the exact optimum to 1e-9 relative: a tie broken the other way.  An
    enumeration over its budget cannot show it."""
    try:
        value = oracle_mod.exact_expectation(model, gibbs_solution.policies)
    except BudgetExceeded:
        return False
    return math.isclose(value, exact_solution.expected_value, rel_tol=_TIE_TOLERANCE, abs_tol=0.0)


def _cmd_oracle(args) -> int:
    model = read_model(args.model)
    policies, value = oracle_mod.exhaustive_policy_search(model)
    _print_policies(model, policies)
    print(f"optimal expected value: {value:.2f}")
    return 0


def _print_policies(model: IridModel, policies: dict[str, Policy]) -> None:
    for dec, pol in policies.items():
        print(f"policy for {dec}" + (f"  (given {', '.join(pol.scope)})" if pol.scope else ""))
        widths = [
            max(len(v), max((len(cfg[i]) for cfg in pol.table), default=0))
            for i, v in enumerate(pol.scope)
        ]
        header = "  ".join(v.ljust(w) for v, w in zip(pol.scope, widths))
        if header:
            print(f"  {header}  -> choice")
        for cfg, alt in pol.table.items():
            row = "  ".join(lab.ljust(w) for lab, w in zip(cfg, widths))
            print(f"  {row}  -> {alt}")


if __name__ == "__main__":
    main()
