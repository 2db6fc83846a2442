"""Command line front end.

Exit codes follow the BSD sysexits convention where sensible:

* 0   the computed object is zero / the verdict is Triangularizable /
      the requested property holds
* 1   the computed object is nonzero / NotTriangularizable / property fails
* 2   the verdict precondition (regularity at sample points) is violated
* 64  usage errors (bad flags, bad dimensions, malformed points)
* 65  data errors (unreadable files, malformed operator documents)
* 141 the reader of stdout went away (128 + SIGPIPE), as in ``| head -1``

All output is deterministic: the same invocation prints the same bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .geometry import OperatorField, load_operator
from .linearizer import (
    cond3_system,
    default_candidates,
    linearized_system,
    search_tensor,
    t_pattern_candidates,
)
from .polyring import format_signed_sum
from .structure import (
    PRECONDITION_VIOLATED,
    TRIANGULARIZABLE,
    image_flag,
    is_integrable,
    verdict,
)
from .torsion import fn_bracket_level, tensor_t, torsion_level

EX_OK = 0
EX_USAGE = 64
EX_DATAERR = 65
EX_BROKEN_PIPE = 128 + 13  # SIGPIPE


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 64
        raise UsageError(f"{self.prog}: {message}")


def _load(path: str) -> OperatorField:
    try:
        return load_operator(path)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise DataError(str(exc)) from exc


def _parse_point(text: str, dim: int) -> tuple[Fraction, ...]:
    parts = text.split(",")
    if len(parts) != dim:
        raise UsageError(f"point {text!r} has {len(parts)} coordinates, expected {dim}")
    try:
        return tuple(Fraction(part.strip()) for part in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"point {text!r}: {exc}") from exc


def _emit_tensor(headline: str, meta: dict, tensor_at, dim: int, args) -> int:
    """Print ``tensor_at(point)``, the point from ``--at`` or None; exit 0 iff zero."""
    point = None if args.at is None else _parse_point(args.at, dim)
    tensor = tensor_at(point)
    components = [
        {"i": i, "j": j, "k": k, "value": str(value)}
        for (i, j, k), value in tensor.nonzero_components()
    ]
    if point is not None:
        meta = dict(meta, point=[str(c) for c in point])
    zero = not components
    if args.json:
        print(json.dumps(dict(meta, zero=zero, components=components), indent=2))
    else:
        where = f" at ({args.at})" if args.at is not None else ""
        if zero:
            print(f"{headline}{where}: zero tensor")
        else:
            print(f"{headline}{where}: {len(components)} nonzero components")
            print(tensor)
    return EX_OK if zero else 1


def _cmd_torsion(args) -> int:
    L = _load(args.file)
    return _emit_tensor(
        f"torsion level {args.level} of {args.file}",
        {"command": "torsion", "file": args.file, "level": args.level},
        lambda at: torsion_level(L, args.level, at=at),
        L.dim,
        args,
    )


def _cmd_fn(args) -> int:
    K = _load(args.file_k)
    L = _load(args.file_l)
    if K.dim != L.dim:
        raise DataError(
            f"{args.file_k} has dim {K.dim} but {args.file_l} has dim {L.dim}"
        )
    return _emit_tensor(
        f"bracket level {args.level} of {args.file_k}, {args.file_l}",
        {
            "command": "fn",
            "files": [args.file_k, args.file_l],
            "level": args.level,
        },
        lambda at: fn_bracket_level(K, L, args.level, at=at),
        L.dim,
        args,
    )


def _cmd_tensor_t(args) -> int:
    L = _load(args.file)
    if L.dim != 4 and not args.force:  # reported before a malformed point
        raise UsageError(
            f"the obstruction tensor targets dimension 4, got dim={L.dim}; "
            "use --force to evaluate the same contraction anyway"
        )
    return _emit_tensor(
        f"obstruction tensor of {args.file}",
        {"command": "tensor-t", "file": args.file, "force": args.force},
        lambda at: tensor_t(L, force=args.force, at=at),
        L.dim,
        args,
    )


def _cmd_verdict(args) -> int:
    L = _load(args.file)
    points = [_parse_point(p, L.dim) for p in args.point]
    try:
        result = verdict(L, points)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.json:
        print(json.dumps(dict(result.to_dict(), file=args.file), indent=2))
    else:
        report = result.report
        print(f"file: {args.file}")
        print(f"dim: {result.dim}")
        print(f"eigenvalue: {report.eigenvalue}")
        for pt, profile in zip(report.points, report.rank_profiles):
            coords = ", ".join(str(c) for c in pt)
            ranks = " ".join(str(r) for r in profile)
            print(f"point ({coords}): ranks {ranks}")
        print(f"expected ranks: {' '.join(str(r) for r in report.expected)}")
        if result.obstruction_zero is None:
            print(f"obstruction ({result.obstruction_name}): not evaluated")
        else:
            state = "zero" if result.obstruction_zero else "nonzero"
            print(f"obstruction ({result.obstruction_name}): {state}")
        for certificate in result.certificates:
            if "component" in certificate:
                print(f"  witness {certificate['component']} = {certificate['value']}")
        print(f"verdict: {result.kind}")
    if result.kind == TRIANGULARIZABLE:
        return EX_OK
    if result.kind == PRECONDITION_VIOLATED:
        return 2
    return 1


def _cmd_integrability(args) -> int:
    L = _load(args.file)
    try:
        distribution = image_flag(L, args.power)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    integrable = is_integrable(distribution)  # image_flag's generators are independent
    if args.json:
        print(
            json.dumps(
                {
                    "command": "integrability",
                    "file": args.file,
                    "power": args.power,
                    "distribution": distribution.to_dict(),
                    "integrable": integrable,
                },
                indent=2,
            )
        )
    else:
        print(
            f"image distribution of the traceless part to the power {args.power}: "
            f"rank {distribution.rank}"
        )
        for index, generator in enumerate(distribution.generators, start=1):
            print(f"generator {index}: {generator}")
        print(f"integrable: {'yes' if integrable else 'no'}")
    return EX_OK if integrable else 1


def _cmd_linearize(args) -> int:
    try:
        system = linearized_system(args.dim, args.tensor, args.eigenvalue)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    conditions = cond3_system(args.dim)
    if system.include_eigenvalue:
        equal = contains = None  # different unknowns; no comparison defined
    else:
        equal = system.rowspace_equal(conditions)
        contains = system.rowspace_contains(conditions)
    if args.json:
        print(
            json.dumps(
                {
                    "command": "linearize",
                    "dim": args.dim,
                    "tensor": args.tensor,
                    "system": system.to_dict(),
                    "conditions_rank": conditions.rank,
                    "rowspace_equal": equal,
                    "rowspace_contains_conditions": contains,
                },
                indent=2,
            )
        )
    else:
        print(f"linearized family in dimension {args.dim}, tensor {args.tensor}")
        print(f"unknowns: {len(system.unknowns)}")
        print(f"system rank: {system.rank} ({system.matrix.nrows} rows)")
        for line in system.equation_strings():
            print(f"  {line}")
        print(f"integrability conditions rank: {conditions.rank}")
        if equal is None:
            print("row spaces: not comparable (eigenvalue unknowns present)")
        else:
            print(f"row spaces equal: {'yes' if equal else 'no'}")
            print(f"system contains the conditions: {'yes' if contains else 'no'}")
    if equal is None:
        return EX_OK
    return EX_OK if equal else 1


def _cmd_search(args) -> int:
    candidates = t_pattern_candidates() if args.family == "t-pattern" else default_candidates()
    try:
        result = search_tensor(args.dim, candidates, seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.json:
        print(json.dumps(dict(result.to_dict(), command="search"), indent=2))
    else:
        labels = [c.label for c in result.candidates]
        print(f"search in dimension {args.dim} over {len(labels)} candidates")
        print(f"candidates: {' '.join(labels)}")
        print(f"solution space dimension: {len(result.coefficient_basis)}")
        for index, (vec, flag) in enumerate(
            zip(result.coefficient_basis, result.basis_equivalent), start=1
        ):
            combo = format_signed_sum(zip(vec, labels))
            print(f"basis {index}: {combo}")
            print(f"  row spaces equal to the conditions: {'yes' if flag else 'no'}")
        if result.random_coefficients is not None:
            combo = format_signed_sum(zip(result.random_coefficients, labels))
            print(f"random combination: {combo}")
            print(
                "  row spaces equal to the conditions: "
                f"{'yes' if result.random_equivalent else 'no'}"
            )
    return EX_OK if result.coefficient_basis else 1


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="haantjes",
        description="Exact torsion calculus and triangularizability tests "
        "for polynomial operator fields.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def add_common(p, at=True):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if at:
            p.add_argument(
                "--at",
                metavar="POINT",
                help="evaluate at a rational point, e.g. 1,1/2,-3",
            )

    p = sub.add_parser("torsion", help="level-m torsion of an operator field")
    p.add_argument("file", help="operator field (JSON)")
    p.add_argument("--level", type=_positive_int, default=1,
                   help="torsion level: 1 Nijenhuis, 2 Haantjes (default 1)")
    add_common(p)
    p.set_defaults(handler=_cmd_torsion)

    p = sub.add_parser("fn", help="level-m bracket of two operator fields")
    p.add_argument("file_k", help="first operator field (JSON)")
    p.add_argument("file_l", help="second operator field (JSON)")
    p.add_argument("--level", type=_positive_int, default=1, help="bracket level (default 1)")
    add_common(p)
    p.set_defaults(handler=_cmd_fn)

    p = sub.add_parser("tensor-t", help="dimension-four obstruction tensor")
    p.add_argument("file", help="operator field (JSON)")
    p.add_argument("--force", action="store_true",
                   help="evaluate the contraction outside dimension four")
    add_common(p)
    p.set_defaults(handler=_cmd_tensor_t)

    p = sub.add_parser("verdict", help="triangularizability decision (dim 3 and 4)")
    p.add_argument("file", help="operator field (JSON)")
    p.add_argument("--point", action="append", default=[], metavar="POINT",
                   help="additional regularity sample point (repeatable)")
    add_common(p, at=False)
    p.set_defaults(handler=_cmd_verdict)

    p = sub.add_parser("integrability", help="Frobenius test for an image distribution")
    p.add_argument("file", help="operator field (JSON)")
    p.add_argument("--power", type=_positive_int, required=True,
                   help="power k of the traceless part whose image is tested")
    add_common(p, at=False)
    p.set_defaults(handler=_cmd_integrability)

    p = sub.add_parser("linearize", help="linear system of a torsion of the linearized family")
    p.add_argument("--dim", type=_positive_int, required=True, help="dimension n")
    p.add_argument("--tensor", default="haantjes", metavar="KIND",
                   help="nijenhuis, haantjes, level:m or t (default haantjes)")
    p.add_argument("--eigenvalue", action="store_true",
                   help="include the scalar eigenvalue unknowns lam_k")
    add_common(p, at=False)
    p.set_defaults(handler=_cmd_linearize)

    p = sub.add_parser("search", help="search tensor combinations matching the conditions")
    p.add_argument("--dim", type=_positive_int, required=True, help="dimension n")
    p.add_argument("--family", choices=["default", "t-pattern"], default="default",
                   help="candidate family (default: both torsions with up to "
                   "two traceless factors)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the random combination check (default 0)")
    add_common(p, at=False)
    p.set_defaults(handler=_cmd_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "handler", None) is None:
            raise UsageError("haantjes: a command is required (see --help)")
        status = args.handler(args)
        sys.stdout.flush()  # a closed pipe shows up here, not at exit
        return status
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EX_USAGE
    except DataError as exc:
        print(str(exc), file=sys.stderr)
        return EX_DATAERR
    except BrokenPipeError:
        # What is still buffered goes to devnull, so the flush at exit cannot raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EX_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
