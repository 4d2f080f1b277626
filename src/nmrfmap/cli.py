"""Command-line front end.

One verb per pipeline stage: validate, classify, compile, solve, perfect,
submodular. `compile` writes a binary pairwise model's NMRF pruned under its
enode plan (`compile_pairwise`), any other model's whole. `solve --method
blocks` (the default) solves tractable pairwise blocks by bipartite min cut;
`--method bnb` runs capped branch and bound. An intractable model's refusal
carries the tractability report that the solve itself built, so the model
is classified once.
Machine-readable output (JSON) goes to standard output; diagnostics to
standard error. Exit codes: 0 success, 1 negative verdict (intractable /
not perfect / infeasible / oracle disagreement), 2 input
error (ModelFormatError and any other NmrfmapError not named here, a path
that cannot be read or written, such as a missing file or a directory
(OSError), malformed JSON, KeyError, ValueError), 3 resource cap
exceeded (TooLargeError), 4 internal error (a solver fault:
ObjectiveMismatchError or InconsistentCompletionError; or any other
exception, such as RecursionError or OverflowError), printed as
`internal error: <Type>: <message>` without a traceback, 5 standard output
closed before the output was written (BrokenPipeError, as when piped into
`head`), printing nothing.
`--oracle-check` accepts an objective within `objective_tolerance` plus
the solution's own `slack` of the brute-force optimum, whichever method
solved it. On a model too large to enumerate it still prints the
solution, with `"oracle": {"checked": false, "reason": ...}`, and exits 3,
so the skipped check is not silent.
Each verb imports inside itself the modules only it uses. `validate`,
`classify` and `solve` run on the four that `import nmrfmap` loads (errors,
model, structure, mwss). `compile` and `solve --method bnb` also load
`nmrf`; `perfect` loads `nmrf` and `perfection`; `submodular` loads
`submodular`; `--oracle-check` loads `oracle`.
No verb imports numpy. Only `submodular`, when it runs the order 4-6
feasibility LP, imports scipy, so every other verb runs on the package alone.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .errors import (
    InconsistentCompletionError,
    IntractableTopologyError,
    NmrfmapError,
    ObjectiveMismatchError,
    TooLargeError,
)
from .model import (
    DEFAULT_EPS,
    is_binary_pairwise,
    model_from_json_file,
    objective_tolerance,
)
from .mwss import (
    DEFAULT_BNB_CAP,
    map_solution_to_json,
    solve_map,
    solve_map_bnb,
)
from .structure import classify_model, report_to_json

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_TOO_LARGE = 3
EXIT_INTERNAL = 4
EXIT_OUTPUT_CLOSED = 5


def _emit(doc, out_path):
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _cmd_validate(args) -> int:
    model = model_from_json_file(args.model)
    _emit(
        {
            "valid": True,
            "variables": len(model.variables),
            "potentials": len(model.potentials),
            "binary_pairwise": is_binary_pairwise(model),
        },
        args.out,
    )
    return EXIT_OK


def _cmd_classify(args) -> int:
    model = model_from_json_file(args.model)
    report = classify_model(model, args.eps)
    _emit(report_to_json(report), args.out)
    return EXIT_OK if report.tractable else EXIT_NEGATIVE


def _cmd_compile(args) -> int:
    from .nmrf import build_nmrf, compile_pairwise, nmrf_to_dot, nmrf_to_json

    model = model_from_json_file(args.model)
    if is_binary_pairwise(model):
        nmrf, report = compile_pairwise(model, args.eps)
        if not report.tractable:
            print("warning: intractable topology; default enode forms used", file=sys.stderr)
    else:
        nmrf = build_nmrf(model)
    _emit(nmrf_to_json(nmrf), args.out)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(nmrf_to_dot(nmrf) + "\n")
    return EXIT_OK


def _cmd_solve(args) -> int:
    model = model_from_json_file(args.model)
    try:
        if args.method == "bnb":
            sol = solve_map_bnb(model, args.eps, args.max_nodes)
        else:
            sol = solve_map(model, args.eps)
    except IntractableTopologyError as exc:
        _emit(
            {"solved": False, "reason": "intractable",
             "report": report_to_json(exc.report)},
            args.out,
        )
        print(f"intractable topology; witness cycle {list(exc.witness)}",
              file=sys.stderr)
        return EXIT_NEGATIVE
    doc = map_solution_to_json(sol)
    if args.oracle_check:
        from .oracle import brute_force_map

        try:
            ref = brute_force_map(model)
        except TooLargeError as exc:
            doc["oracle"] = {"checked": False, "reason": str(exc)}
            _emit(doc, args.out)
            print(f"error: oracle check skipped: {exc}", file=sys.stderr)
            return EXIT_TOO_LARGE
        agree = abs(ref.objective - sol.objective) <= objective_tolerance(model) + sol.slack
        doc["oracle"] = {"objective": ref.objective, "agree": agree}
        if not agree:
            _emit(doc, args.out)
            print("oracle disagreement", file=sys.stderr)
            return EXIT_NEGATIVE
    _emit(doc, args.out)
    return EXIT_OK


def _cmd_perfect(args) -> int:
    from .nmrf import nmrf_from_json, prune
    from .perfection import PlainGraph, is_perfect_small

    pruned = prune(nmrf_from_json(_load_json(args.nmrf)), args.eps)
    plain = PlainGraph.from_edges(len(pruned.kept), pruned.edges)
    verdict = is_perfect_small(plain, args.max_nodes)
    doc = {"perfect": verdict.perfect}
    if not verdict.perfect:
        doc["witness_kind"] = verdict.witness_kind
        doc["witness"] = [pruned.kept[i] for i in verdict.witness]  # the file's node ids
    _emit(doc, args.out)
    return EXIT_OK if verdict.perfect else EXIT_NEGATIVE


def _cmd_submodular(args) -> int:
    from .submodular import (
        alpha,
        construct_k3,
        is_supermodular,
        potential_from_json,
        representation_feasible,
        representation_to_json,
    )

    psi = potential_from_json(_load_json(args.potential))
    ok, witness = is_supermodular(psi, args.eps)
    doc = {"order": psi.k, "supermodular": ok, "alpha": alpha(psi)}
    if not ok:
        i, j, rest, value = witness
        doc["witness"] = {
            "pair": [psi.names[i], psi.names[j]],
            "rest": {psi.names[p]: v for p, v in rest.items()},
            "value": value,
        }
        _emit(doc, args.out)
        return EXIT_NEGATIVE
    if psi.k == 3:
        rep = construct_k3(psi, args.eps)
        doc["feasible"] = True
        doc["representation"] = representation_to_json(rep)
        _emit(doc, args.out)
        return EXIT_OK
    verdict = representation_feasible(psi, args.eps)
    doc["feasible"] = verdict.feasible
    if not verdict.feasible:
        doc["reason"] = verdict.reason
    _emit(doc, args.out)
    return EXIT_OK if verdict.feasible else EXIT_NEGATIVE


def _eps(text: str) -> float:
    """An --eps value: a finite number >= 0. NaN compares false with every
    weight, so each `<= eps` test would fail whatever the weight."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, not {text!r}")
    return value


def _nonnegative_int(text: str) -> int:
    """A --max-nodes value: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, not {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmrfmap",
        description="Exact MAP inference via weighted conflict-graph stable sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def verb(name, arg, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument(arg)
        p.add_argument("--eps", type=_eps, default=DEFAULT_EPS)
        p.add_argument("--out", default=None, help="write the report here")
        p.set_defaults(func=func)
        return p

    verb("validate", "model", _cmd_validate, "parse and check a model file")
    verb("classify", "model", _cmd_classify, "block-level tractability report")
    p = verb("compile", "model", _cmd_compile, "model to normalized conflict graph")
    p.add_argument("--dot", default=None, help="also write a DOT rendering here")
    p = verb("solve", "model", _cmd_solve, "exact MAP assignment")
    p.add_argument("--method", default="blocks", choices=("blocks", "bnb"))
    p.add_argument("--max-nodes", type=_nonnegative_int, default=DEFAULT_BNB_CAP)
    p.add_argument("--oracle-check", action="store_true")
    p = verb("perfect", "nmrf", _cmd_perfect, "perfection check of an exported graph")
    p.add_argument("--max-nodes", type=_nonnegative_int, default=24)
    verb("submodular", "potential", _cmd_submodular, "higher-order potential analysis")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed reader shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader of the output went away, as `head` does: exit quietly,
        # and point stdout at the null device so that flushing what is left
        # at interpreter exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OUTPUT_CLOSED
    except TooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except (ObjectiveMismatchError, InconsistentCompletionError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (NmrfmapError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # a fault of the program, never a verdict
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
