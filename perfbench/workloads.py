"""Seeded workloads: operations on the public ``haantjes`` API and their checks.

Each workload turns a seed into a list of operations.  An operation's
``run`` calls the library once, looking every function up on the module at
call time (so that the tracer's wrappers are seen); its ``check`` compares
the result with a known answer or with the independent oracle and raises
``Mismatch`` on any difference.  Checks only read plain attributes of the
results and never call back into the library.

Every operator is drawn from a fixed "shape" stream that does not depend on
the seed, and is then moved into a chart picked by the seed: a signed
permutation of the coordinates.  The calculus on a charted operator is the
same computation term for term (tensors transform tensorially), so the seed
changes the inputs, the check points and the order of the mix, but not the
cost of a run; that keeps runs with different seeds comparable.  For the same
reason the work of generating the inputs does not depend on the seed either:
every chart is drawn once and checked once.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracle

COEFFS = (-3, -2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-1, 2))
SCALES = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(3, 2))

TRIANGULARIZABLE = "Triangularizable"
NOT_TRIANGULARIZABLE = "NotTriangularizable"
PRECONDITION_VIOLATED = "PreconditionViolated"


class Mismatch(Exception):
    """A result disagrees with its known answer or with the oracle."""


def expect(condition, message):
    if not condition:
        raise Mismatch(message)


@dataclass
class Op:
    kind: str
    key: str  # canonical description of the inputs, hashed into the digest
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Workload:
    """``build(lib, rng, workdir, operators_dir)`` returns one cycle of ops in
    a fixed order of kinds; a run repeats that cycle, shuffled by the seed, so
    every run measures the same mix.  Set-up warms up the first op of each of
    ``warmup_kinds`` in the unshuffled cycle, the same shapes for every seed."""

    name: str
    build: Callable
    warmup_kinds: tuple[str, ...]
    # Ops of each cycle that lie beyond the tail percentile.  A run holds whole
    # cycles, so the percentile's order statistic falls among the same ops for
    # any number of cycles; k + 0.5 puts it in the middle of the k+1-th slowest.
    tail_beyond: float

    def tail_percentile(self, cycle_length):
        return 100.0 * (1.0 - self.tail_beyond / cycle_length)


# ----- random inputs ---------------------------------------------------------------


def monomials(n, degree, exact=False):
    out = []
    for d in range(degree + 1):
        if exact and d != degree:
            continue
        for combo in itertools.combinations_with_replacement(range(1, n + 1), d):
            exps = {}
            for v in combo:
                exps[v] = exps.get(v, 0) + 1
            out.append(tuple(sorted(exps.items())))
    return out


def rand_terms(rng, pool, count):
    return {m: rng.choice(COEFFS) for m in rng.sample(pool, count)}


def rand_point(rng, n):
    return tuple(
        Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3))) for _ in range(n)
    )


def terms_of(L):
    return [[e.terms for e in row] for row in L.entries]


def sparse_affine(lib, rng, n):
    """A signed, scaled permutation plus one shear entry, and a small shift.

    Conjugating by a sparse Jacobian keeps pushed-forward entries sparse, so
    the cost of an operation does not swing with the change of coordinates.
    """
    while True:
        perm = list(range(n))
        rng.shuffle(perm)
        matrix = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            matrix[i][perm[i]] = rng.choice(SCALES)
        row = rng.randrange(n)
        col = rng.choice([j for j in range(n) if j != perm[row]])
        matrix[row][col] = rng.choice(SCALES)
        if oracle.rank(matrix) == n:
            break
    shift = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
    return lib.AffineChange(matrix, shift)


def operator(lib, n, rows):
    return lib.OperatorField([[lib.Poly(n, t) for t in row] for row in rows], nvars=n)


def dense_operator(lib, rng, n, pool, count):
    return operator(lib, n, [[rand_terms(rng, pool, count) for _ in range(n)] for _ in range(n)])


def heavy_operator(lib, rng):
    """Dimension four, each entry one quadratic monomial plus a constant."""
    quad = monomials(4, 2, exact=True)
    return operator(lib, 4, [
        [{rng.choice(quad): rng.choice(COEFFS), (): rng.choice(COEFFS)} for _ in range(4)]
        for _ in range(4)
    ])


def triangular_born(lib, rng, n, degree):
    """lam(x) Id + strictly upper triangular part with nonzero constant
    superdiagonal, pushed forward by a sparse affine change.  Regular at every
    point and triangular in the original chart, so Triangularizable."""
    pool = monomials(n, degree)
    lam = rand_terms(rng, pool, 2)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if j == i:
                row.append(lam)
            elif j == i + 1:
                row.append({(): rng.choice(COEFFS)})
            elif j > i:
                row.append(rand_terms(rng, pool, 2))
            else:
                row.append({})
        rows.append(row)
    return sparse_affine(lib, rng, n).pushforward_operator(operator(lib, n, rows))


def rank_profile(entries, point):
    """Ranks of (L - trace/n Id)^k, k = 1..n, at a point."""
    n = len(entries)
    A = [[oracle.value_at(entries[i][j], point) for j in range(n)] for i in range(n)]
    N = oracle.traceless(A)
    P = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    ranks = []
    for _ in range(n):
        P = oracle.matmul(P, N)
        ranks.append(oracle.rank(P))
    return tuple(ranks)


def jordan_profile(n):
    return tuple(range(n - 1, -1, -1))


def moved_and_shifted(lib, rng, L, sample_points):
    """An affine pushforward of L plus a scalar shift, regular at the samples."""
    n = L.dim
    pool = monomials(n, 1)
    while True:
        moved = sparse_affine(lib, rng, n).pushforward_operator(L)
        shifted = moved + lib.OperatorField.identity(n) * lib.Poly(n, rand_terms(rng, pool, 2))
        if regular_at(sample_points)(terms_of(shifted)):
            return shifted


def signed_permutation(lib, rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        matrix[i][perm[i]] = Fraction(rng.choice((1, -1)))
    return lib.AffineChange(matrix)


def charted(lib, rng, L, accept=None):
    """L in a seeded signed-permutation chart, or L itself if its entries there
    fail ``accept`` (L must satisfy it): one draw and one test whatever the
    seed, so the cost of set-up does not depend on it."""
    moved = signed_permutation(lib, rng, L.dim).pushforward_operator(L)
    return moved if accept is None or accept(terms_of(moved)) else L


def regular_at(points):
    return lambda entries: all(
        rank_profile(entries, p) == jordan_profile(len(entries)) for p in points)


def key_of(kind, L):
    return kind + "|" + ";".join(str(e) for row in L.entries for e in row)


# ----- checks ------------------------------------------------------------------


def check_tensor_at(expected_at, point):
    """Compare a symbolic tensor result with the oracle at one point."""
    memo = []

    def check(tensor):
        if not memo:
            memo.append(expected_at())
        terms = [[[c.terms for c in col] for col in plane] for plane in tensor.comps]
        expect(oracle.tensor_values(terms, point) == memo[0],
               f"tensor differs from the 1-jet oracle at {point}")

    return check


def check_zero_tensor(T):
    expect(all(not c.terms for plane in T.comps for col in plane for c in col),
           "tensor is not identically zero")


def check_verdict(kind, dim, entries, point):
    def check(v):
        expect(v.kind == kind, f"verdict {v.kind}, expected {kind}")
        if kind == PRECONDITION_VIOLATED:
            own = tuple(rank_profile(entries, p) for p in v.report.points)
            expect(tuple(v.report.rank_profiles) == own, "rank profiles differ from the oracle")
        if kind == NOT_TRIANGULARIZABLE:
            Lp, dLp = oracle.jet(entries, point)
            T = oracle.torsion_level_at(Lp, dLp, 2) if dim == 3 else oracle.tensor_t_at(Lp, dLp)
            expect(v.certificates, "no witness components")
            for cert in v.certificates:
                i, j, k = (int(s) for s in
                           cert["component"][2:].replace("_{", ",").rstrip("}").split(","))
                got = oracle.value_at(oracle.parse_printed(cert["value"], dim), point)
                expect(got == T[i - 1][j - 1][k - 1], f"witness {cert['component']} is wrong")

    return check


# ----- obstruction -------------------------------------------------------------------

OBSTRUCTION_PATTERN = (
    "tensor_t.heavy4", "tensor_t.dense4", "tensor_t.dense4", "level3.dense3", "level3.dense3",
    "verdict.ex1", "verdict.ex2", "verdict.ex5",
    "verdict.triangular3", "verdict.triangular3", "verdict.triangular3",
    "verdict.triangular3", "verdict.triangular3", "verdict.triangular3",
    "verdict.triangular4", "verdict.triangular4",
    "verdict.nonregular4", "verdict.nonregular4", "verdict.nonregular4",
)


def build_obstruction(lib, rng, workdir, operators_dir):
    shape = random.Random("obstruction/shape")
    shipped = {name: lib.load_operator(operators_dir / f"{name}.json")
               for name in ("ex1", "ex2", "ex5")}
    samples = {n: lib.default_sample_points(n) for n in (3, 4)}
    lin4, quad3 = monomials(4, 1), monomials(3, 2)

    def verdict_op(kind, L, expected):
        regular = regular_at(samples[L.dim])
        L = charted(lib, rng, L, regular if expected != PRECONDITION_VIOLATED
                    else lambda entries: not regular(entries))
        entries, point = terms_of(L), rand_point(rng, L.dim)
        return Op(kind, key_of(kind, L), lambda: lib.verdict(L),
                  check_verdict(expected, L.dim, entries, point))

    def tensor_op(kind, L, compute, at):
        L = charted(lib, rng, L)
        entries, point = terms_of(L), rand_point(rng, L.dim)

        def expected():
            return at(*oracle.jet(entries, point))

        return Op(kind, key_of(kind, L), lambda: compute(L),
                  check_tensor_at(expected, point))

    def make(kind):
        if kind == "tensor_t.heavy4":
            return tensor_op(kind, heavy_operator(lib, shape), lambda L: lib.tensor_t(L),
                             oracle.tensor_t_at)
        if kind == "tensor_t.dense4":
            return tensor_op(kind, dense_operator(lib, shape, 4, lin4, 2),
                             lambda L: lib.tensor_t(L), oracle.tensor_t_at)
        if kind == "level3.dense3":
            return tensor_op(kind, dense_operator(lib, shape, 3, quad3, 2),
                             lambda L: lib.torsion_level(L, 3),
                             lambda Lp, dLp: oracle.torsion_level_at(Lp, dLp, 3))
        if kind == "verdict.triangular3":
            return verdict_op(kind, triangular_born(lib, shape, 3, 2), TRIANGULARIZABLE)
        if kind == "verdict.triangular4":
            return verdict_op(kind, triangular_born(lib, shape, 4, 1), TRIANGULARIZABLE)
        if kind == "verdict.nonregular4":
            return verdict_op(kind, dense_operator(lib, shape, 4, lin4, 2),
                              PRECONDITION_VIOLATED)
        name = kind.split(".")[1]
        L = moved_and_shifted(lib, shape, shipped[name], samples[shipped[name].dim])
        return verdict_op(kind, L, NOT_TRIANGULARIZABLE if name == "ex1" else TRIANGULARIZABLE)

    return [make(kind) for kind in OBSTRUCTION_PATTERN]


# ----- brackets ------------------------------------------------------------------------

BRACKETS_PATTERN = (
    "fn.pair3", "torsion.strict3", "fn.pair4", "torsion.strict4",
    "fn.pair3", "fn.pair5", "torsion.strict3", "fn.pair4",
    "torsion.strict5", "fn.pair3", "torsion.strict4", "fn.pair4",
)


def commuting_pair(lib, rng, n):
    """K, L = p1 N + p2 N^2 with one strictly upper triangular N: they commute
    pointwise, so the level n-1 bracket vanishes."""
    lin = monomials(n, 1)
    N = operator(lib, n, [[rand_terms(rng, lin, 1) if j > i else {} for j in range(n)]
                          for i in range(n)])
    N2 = N.compose(N)

    def series():
        return (N * lib.Poly(n, rand_terms(rng, lin, 2))
                + N2 * lib.Poly(n, {(): rng.choice(COEFFS)}))

    return series(), series()


def build_brackets(lib, rng, workdir, operators_dir, mixes=1):
    """``mixes`` brackets mixes, each on operators of its own shapes."""
    shape = random.Random("brackets/shape")

    def make(kind):
        n = int(kind[-1])
        if kind.startswith("fn."):
            chart = signed_permutation(lib, rng, n)
            K, L = (chart.pushforward_operator(A) for A in commuting_pair(lib, shape, n))
            return Op(kind, key_of(kind, K) + key_of(kind, L),
                      lambda: lib.fn_bracket_level(K, L, n - 1), check_zero_tensor)
        quad = monomials(n, 2)
        L = charted(lib, rng, operator(lib, n, [
            [rand_terms(shape, quad, 2) if j > i else {} for j in range(n)] for i in range(n)]))
        return Op(kind, key_of(kind, L), lambda: lib.torsion_level(L, n - 1), check_zero_tensor)

    return [make(kind) for _ in range(mixes) for kind in BRACKETS_PATTERN]


# ----- search ----------------------------------------------------------------------------

KINDS = ("nijenhuis", "haantjes", "level:3", "t")

# Published facts (acceptance criteria 6 and 7): rank of the system and
# whether its row space equals / contains the integrability conditions.
PUBLISHED = {
    (3, "haantjes"): (1, True, True),
    (4, "t"): (4, True, True),
    (4, "haantjes"): (6, False, True),
    (4, "level:3"): (2, None, None),
}


class SearchOracle:
    """Caches oracle rows per candidate; they depend on (n, base, powers) only."""

    def __init__(self):
        self.rows = {}

    def candidate(self, n, cand):
        key = (n, cand.base, tuple(cand.powers))
        if key not in self.rows:
            self.rows[key] = oracle.candidate_rows(n, cand.base, cand.powers)
        return self.rows[key]

    def check_result(self, n, cands, result):
        cand_rows = [self.candidate(n, c) for c in cands]
        conds = oracle.conditions_rows(n)
        basis = [list(v) for v in result.coefficient_basis]
        expect(len(basis) == oracle.admissible_dimension(n, cand_rows),
               "dimension of the admissible space differs from the oracle")
        expect(oracle.rank(basis) == len(basis), "basis vectors are dependent")
        flags = []
        for vec in basis:
            rows = oracle.combined_rows(cand_rows, vec)
            expect(oracle.rowspace_contains(conds, rows), "a basis vector is not admissible")
            flags.append(oracle.same_rowspace(rows, conds))
        expect(tuple(result.basis_equivalent) == tuple(flags), "equivalence flags differ")
        if basis:
            rnd = list(result.random_coefficients)
            expect(oracle.rowspace_contains(basis, [rnd]), "random combination is outside the space")
            expect(result.random_equivalent
                   == oracle.same_rowspace(oracle.combined_rows(cand_rows, rnd), conds),
                   "random combination flag differs")
        return cand_rows, basis


def check_linearized(n, kind, eig):
    memo = []

    def check(system):
        if not memo:
            width = n ** 3 + (n if eig else 0)
            memo.append(oracle.system_rows(oracle.linearized_tensor(n, kind, eig), width))
        labels, rows = memo[0]
        expect(tuple(system.labels) == tuple(labels), "row labels differ from the oracle")
        expect(tuple(system.matrix.rows) == tuple(rows), "rows differ from the oracle")
        if not eig and (n, kind) in PUBLISHED:
            r, equal, contains = PUBLISHED[(n, kind)]
            conds = oracle.conditions_rows(n)
            expect(oracle.rank(rows) == r, f"rank is not the published {r}")
            if equal is not None:
                expect(oracle.same_rowspace(rows, conds) == equal, "row-space equality differs")
                expect(oracle.rowspace_contains(rows, conds) == contains, "containment differs")

    return check


def build_search(lib, rng, workdir, operators_dir):
    shape = random.Random("search/shape")
    so = SearchOracle()
    default = lib.default_candidates()
    t_pattern = lib.t_pattern_candidates()

    def search_op(n, cands, tag):
        def check(result):
            cand_rows, basis = so.check_result(n, cands, result)
            if tag == "t4":  # acceptance criterion 11
                target = [Fraction(1), Fraction(-1), Fraction(1)]
                expect(oracle.rowspace_contains(basis, [target]), "(1, -1, 1) is not admissible")
                expect(oracle.same_rowspace(oracle.combined_rows(cand_rows, target),
                                            oracle.conditions_rows(4)),
                       "(1, -1, 1) is not equivalent to the conditions")

        key = f"search|{n}|" + ",".join(c.label for c in cands)
        seed = rng.randint(0, 999)
        return Op(f"search.{tag}", key + f"|{seed}",
                  lambda: lib.search_tensor(n, cands, seed=seed), check)

    ops = [Op(f"linearized.n{n}", f"linearized|{n}|{kind}|{eig}",
              lambda n=n, kind=kind, eig=eig: lib.linearized_system(n, kind, eig),
              check_linearized(n, kind, eig))
           for n, kind, eig in itertools.product((3, 4, 5), KINDS, (False, True))]
    ops.append(search_op(3, tuple(shape.sample(default, 4)), "n3"))
    ops.append(search_op(3, tuple(shape.sample(default, 4)), "n3"))
    ops.append(search_op(4, tuple(shape.sample(default, 1)), "n4"))
    ops.append(search_op(4, t_pattern, "t4"))
    return ops


# ----- cli --------------------------------------------------------------------------------


def run_cli(lib, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def parse_components(text, as_json, dim, at):
    """{(i, j, k): value} from tensor output; values are numbers with --at,
    term dicts otherwise."""
    if as_json:
        doc = json.loads(text)
        items = [((c["i"], c["j"], c["k"]), c["value"]) for c in doc["components"]]
        expect(doc["zero"] == (not items), "zero flag disagrees with the components")
    else:
        lines = text.splitlines()
        items = []
        for line in lines[1:]:
            comp, _, value = line.partition(" = ")
            i, j, k = (int(s) for s in comp[2:].replace("_{", ",").rstrip("}").split(","))
            items.append(((i, j, k), value))
        expect(lines and lines[0].endswith("zero tensor" if not items
                                           else f"{len(items)} nonzero components"),
               "headline disagrees with the components")
    if at:
        return {ijk: Fraction(v) for ijk, v in items}
    return {ijk: oracle.parse_printed(v, dim) for ijk, v in items}


def check_cli_tensor(as_json, dim, at_point, check_point, expected_at):
    """Printed tensor vs the oracle: exact values with --at, otherwise the
    printed polynomials evaluated at a check point."""
    memo = []

    def check(result):
        code, text, _ = result
        if not memo:
            memo.append(oracle.flat_nonzero(expected_at(at_point or check_point)))
        printed = parse_components(text, as_json, dim, at_point is not None)
        expect(code == (1 if printed else 0), f"exit code {code}")
        if at_point is None:
            values = {ijk: oracle.value_at(t, check_point) for ijk, t in printed.items()}
            printed = {ijk: v for ijk, v in values.items() if v}
        expect(printed == memo[0], "printed tensor differs from the 1-jet oracle")

    return check


def check_exit(expected_code, last_line=None, field=None):
    def check(result):
        code, text, _ = result
        expect(code == expected_code, f"exit code {code}, expected {expected_code}")
        if expected_code in (64, 65):
            expect(text == "", "usage and data errors print nothing on stdout")
        if last_line is not None:
            expect(text.splitlines()[-1] == last_line, f"last line is not {last_line!r}")
        if field is not None:
            name, value = field
            expect(json.loads(text)[name] == value, f"{name} is not {value!r}")

    return check


def fmt_point(point):
    return ",".join(str(c) for c in point)


def build_cli(lib, rng, workdir, operators_dir):
    shape = random.Random("cli/shape")
    workdir.mkdir(parents=True, exist_ok=True)
    loaded = {}

    def shipped(name):
        path = operators_dir / f"{name}.json"
        loaded[str(path)] = lib.load_operator(path)
        return str(path)

    contents = {}

    def write_raw(name, text):
        path = workdir / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        contents[str(path)] = text
        return str(path)

    def write(name, L):
        path = write_raw(name, lib.operator_to_json(L))
        loaded[path] = L
        return path

    lin4 = monomials(4, 1)
    regular4 = regular_at(lib.default_sample_points(4))
    ex1m = moved_and_shifted(lib, shape, lib.load_operator(operators_dir / "ex1.json"),
                             lib.default_sample_points(4))
    files = {
        "tri3": write("tri3", charted(lib, rng, triangular_born(lib, shape, 3, 1))),
        "tri4": write("tri4", charted(lib, rng, triangular_born(lib, shape, 4, 1))),
        "dense4a": write("dense4a", charted(lib, rng, dense_operator(lib, shape, 4, lin4, 2))),
        "dense4b": write("dense4b", charted(lib, rng, dense_operator(lib, shape, 4, lin4, 2))),
        "ex1m": write("ex1m", charted(lib, rng, ex1m, regular4)),
    }
    for name in ("ex1", "ex2", "ex3", "ex4", "ex5", "dim2a", "dim2b"):
        files[name] = shipped(name)
    bad = {
        "badjson": write_raw("badjson", '{"dim": 3, "matrix": [["x1", '),
        "badpoly": write_raw("badpoly", json.dumps({"dim": 2, "matrix": [["x1 +* 2", "0"], ["0", "0"]]})),
        "badvar": write_raw("badvar", json.dumps({"dim": 2, "matrix": [["x5", "0"], ["0", "0"]]})),
        "missing": str(workdir / "missing.json"),
    }
    so = SearchOracle()

    def tensor_op(command, paths, level, as_json, at):
        dim = loaded[paths[0]].dim
        argv = [command, *paths]
        if level > 1:
            argv += ["--level", str(level)]
        if command == "tensor-t" and dim != 4:
            argv.append("--force")
        at_point = rand_point(rng, dim) if at else None
        if at_point is not None:
            argv.append(f"--at={fmt_point(at_point)}")  # a leading '-' would read as a flag
        if as_json:
            argv.append("--json")
        entries = [terms_of(loaded[p]) for p in paths]

        def expected_at(point):
            jets = [oracle.jet(e, point) for e in entries]
            if command == "torsion":
                return oracle.torsion_level_at(*jets[0], level)
            if command == "fn":
                return oracle.fn_level_at(*jets[0], *jets[1], level)
            return oracle.tensor_t_at(*jets[0])

        return argv, check_cli_tensor(as_json, dim, at_point, rand_point(rng, dim), expected_at)

    def verdict_op(name, expected, as_json):
        argv = ["verdict", files[name]] + (["--json"] if as_json else [])
        code = {TRIANGULARIZABLE: 0, NOT_TRIANGULARIZABLE: 1}[expected]
        if as_json:
            return argv, check_exit(code, field=("verdict", expected))
        return argv, check_exit(code, last_line=f"verdict: {expected}")

    def integrability_op(name, power, integrable, as_json):
        argv = ["integrability", files[name], "--power", str(power)] + (["--json"] if as_json else [])
        if as_json:
            return argv, check_exit(0 if integrable else 1, field=("integrable", integrable))
        return argv, check_exit(0 if integrable else 1,
                                last_line=f"integrable: {'yes' if integrable else 'no'}")

    def linearize_op(n, kind, eig, as_json):
        argv = ["linearize", "--dim", str(n), "--tensor", kind]
        argv += (["--eigenvalue"] if eig else []) + (["--json"] if as_json else [])
        memo = []

        def check(result):
            code, text, _ = result
            if not memo:
                width = n ** 3 + (n if eig else 0)
                rows = oracle.system_rows(oracle.linearized_tensor(n, kind, eig), width)[1]
                conds = oracle.conditions_rows(n)
                equal = None if eig else oracle.same_rowspace(rows, conds)
                memo.append((oracle.rank(rows), len(rows), equal))
            r, nrows, equal = memo[0]
            expect(code == (1 if equal is False else 0), f"exit code {code}")
            if as_json:
                doc = json.loads(text)
                expect(doc["system"]["rank"] == r and len(doc["system"]["rows"]) == nrows,
                       "system rank differs from the oracle")
                expect(doc["rowspace_equal"] == equal, "row-space equality differs")
            else:
                expect(f"system rank: {r} ({nrows} rows)" in text.splitlines(),
                       "system rank differs from the oracle")

        return argv, check

    def search_op(family, as_json):
        argv = ["search", "--dim", "3"] + (["--family", "t-pattern"] if family == "t-pattern" else [])
        argv += ["--seed", str(rng.randint(0, 99))] + (["--json"] if as_json else [])
        cands = lib.t_pattern_candidates() if family == "t-pattern" else lib.default_candidates()
        memo = []

        def check(result):
            code, text, _ = result
            if not memo:
                memo.append(oracle.admissible_dimension(3, [so.candidate(3, c) for c in cands]))
            expect(code == (0 if memo[0] else 1), f"exit code {code}")
            if as_json:
                expect(json.loads(text)["solution_dimension"] == memo[0], "solution dimension")
            else:
                expect(f"solution space dimension: {memo[0]}" in text.splitlines(),
                       "solution dimension differs from the oracle")

        return argv, check

    def j():  # text or --json, fixed per op like its shape: the two differ in cost
        return shape.random() < 0.5

    shipped3 = shape.choice(["ex2", "ex3"])
    specs = [
        tensor_op("torsion", [files["dense4a"]], 1, j(), True),
        tensor_op("fn", [files["dense4a"], files["dense4b"]], 1, j(), True),
        tensor_op("tensor-t", [files["dense4b"]], 1, j(), True),
        tensor_op("torsion", [files[shape.choice(["dense4a", "dense4b"])]], 2, j(), True),
        tensor_op("torsion", [files["ex1"]], shape.randint(1, 3), j(), False),
        tensor_op("torsion", [files[shipped3]], shape.randint(1, 2), j(), False),
        tensor_op("torsion", [files["ex4"]], shape.randint(1, 3), j(), shape.random() < 0.5),
        tensor_op("fn", [files["ex1"], files["ex4"]], 1, j(), False),
        tensor_op("fn", [files["tri3"], files[shipped3]], shape.randint(1, 2), j(), True),
        tensor_op("tensor-t", [files["ex1"]], 1, j(), False),
        tensor_op("tensor-t", [files["ex5"]], 1, j(), shape.random() < 0.5),
        tensor_op("tensor-t", [files["ex4"]], 1, j(), False),
        tensor_op("tensor-t", [files["tri4"]], 1, j(), True),
        tensor_op("tensor-t", [files["ex3"]], 1, j(), True),
        verdict_op("ex1", NOT_TRIANGULARIZABLE, j()),
        verdict_op("ex1m", NOT_TRIANGULARIZABLE, j()),
        verdict_op("ex2", TRIANGULARIZABLE, j()),
        verdict_op("ex5", TRIANGULARIZABLE, j()),
        verdict_op("tri3", TRIANGULARIZABLE, j()),
        verdict_op("tri4", TRIANGULARIZABLE, j()),
        integrability_op("ex1", 1, False, j()),
        integrability_op("tri3", shape.randint(1, 2), True, j()),
        integrability_op("tri4", shape.randint(1, 3), True, j()),
        # Not level:3 or t at n = 3: their system has no rows, and the
        # comparison with the conditions raises ValueError at the seed
        # commit (an empty RationalMatrix loses its width, ROADMAP item 5).
        linearize_op(3, shape.choice(KINDS[:2]), shape.random() < 0.5, j()),
        linearize_op(4, shape.choice(KINDS), shape.random() < 0.5, j()),
        linearize_op(4, shape.choice(KINDS), shape.random() < 0.5, j()),
        search_op("t-pattern", j()),
        # inputs with a defined error exit code
        (["torsion", bad["missing"]], check_exit(65)),
        (["verdict", bad[shape.choice(["badjson", "badpoly", "badvar"])]], check_exit(65)),
        (["tensor-t", files["ex2"], "--at", "1,2"], check_exit(64)),
        (["torsion", files["ex1"], "--level", "0"], check_exit(64)),
        (["verdict", files["dim2a"]], check_exit(64)),
        (["fn", files["ex1"], files["ex2"]], check_exit(65)),
        (["tensor-t", files["ex2"]], check_exit(64)),
        search_op("default", j()),
        # Quick queries on the small shipped operators, a few milliseconds
        # each.  They put the workload's median in the middle of the group of
        # dim-3 linearized systems, not at the edge of the gap above them.
        tensor_op("torsion", [files["ex3"]], 1, j(), False),
        tensor_op("torsion", [files["ex3"]], 2, j(), True),
        tensor_op("torsion", [files["ex3"]], 3, j(), True),
        tensor_op("torsion", [files["ex4"]], 2, j(), False),
        tensor_op("torsion", [files["dim2a"]], 1, j(), False),
        tensor_op("torsion", [files["dim2b"]], 2, j(), True),
        tensor_op("fn", [files["dim2a"], files["dim2b"]], 1, j(), False),
        tensor_op("fn", [files["dim2a"], files["dim2b"]], 2, j(), True),
        tensor_op("fn", [files["ex3"], files["ex2"]], 1, j(), False),
        tensor_op("fn", [files["ex4"], files["ex1"]], 2, j(), False),
        tensor_op("tensor-t", [files["ex4"]], 1, j(), True),
        tensor_op("tensor-t", [files["ex3"]], 1, j(), False),
    ]

    def key_of_argv(argv):
        words = [contents.get(a, a.replace(str(workdir), "<work>").replace(
            str(operators_dir), "<operators>")) for a in argv]
        return "cli|" + "|".join(words)

    return [Op("cli." + argv[0], key_of_argv(argv), lambda argv=argv: run_cli(lib, argv), check)
            for argv, check in specs]


def build_symbolic(lib, rng, workdir, operators_dir):
    """One obstruction mix and eight brackets mixes (115 ops)."""
    return (build_obstruction(lib, rng, workdir, operators_dir)
            + build_brackets(lib, rng, workdir, operators_dir, 8))


def build_interactive(lib, rng, workdir, operators_dir):
    """One search mix and one cli mix (75 ops)."""
    return (build_search(lib, rng, workdir, operators_dir)
            + build_cli(lib, rng, workdir, operators_dir))


WORKLOADS = {
    "symbolic": Workload(
        "symbolic", build_symbolic,
        ("fn.pair3", "torsion.strict3", "verdict.triangular3", "verdict.nonregular4"),
        11.5),  # among the dim-5 bracket pairs and the dim-3 triangular verdicts
    "interactive": Workload(
        "interactive", build_interactive, ("linearized.n3", "cli.verdict", "cli.linearize"),
        6.5),  # among the dim-5 linearized systems and the dim-3 searches
}
