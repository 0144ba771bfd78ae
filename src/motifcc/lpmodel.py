"""LP relaxations of the motif clustering objectives.

Three builders produce ``LpProblem`` instances over [0,1]-bounded variables:

* ``build_lp1`` — one variable x_K per k-tuple, constraints
  x_{K3} <= x_{K1} + x_{K2} over the index set Upsilon of tuple triples
  with K1 ∩ K2 nonempty and K3 a distinct k-subset of K1 ∪ K2.
* ``build_lp3`` — adds pair variables z_uv as a pseudometric shared by
  all layers: x_K >= z_uv for pairs inside K, (k-1)·x_K <= Σ z_uv, and all
  3·C(n,3) triangle inequalities on z; a k=2 layer's tuple variable for
  {u,v} is identified with z_uv.
* ``build_lp2`` — the single-layer case of ``build_lp3``.

``build_lp3`` is ``build_lp3_core`` (everything but the triangle rows)
plus ``add_triangle_rows`` over ``all_triangles(n)``.  The pipeline solves
the core instead and adds only the triangle rows that
``separate_triangles`` finds violated at the current LP point, since few of
the 3·C(n,3) rows ever bind; the full build stays for dumps, ``verify``
and the tests.  ``drop_zero_cost_tuples`` also takes out of the solved LP
the tuple columns whose objective coefficient is 0 (w+ = 0.5), whose own
rows the triangle rows imply, and lifts them back from z afterwards.

Every built row is ``<= 0`` over a fixed pattern of columns, and one
emitter (``_emit_rows``) writes the rows of all four families from arrays
of column indices: Upsilon rows, the pair-floor and pair-sum rows of each
tuple, and triangle rows.

The LP2/LP3 set-up works on arrays: O(rows) numpy work, one object per
column, and one pair-column map per fresh column list (an (n+1)² matrix)
that the LPs ``LpProblem.derive`` makes from it (the reduced LP, every
round) reuse.  Row names are formatted only when ``row_names`` is read.

The objective Σ [w+·x + w-·(1-x)] is stored as coefficients (2w+ - 1) plus
an explicit constant ``offset`` (Σ w-), so LP objective values are directly
comparable with ``evaluate_objective`` on integral partitions.

x_K <= 1 caps are carried as variable upper bounds (smaller basis), but the
problem's ``census`` counts them as the structural family "unit_cap" so the
census total matches the closed-form constraint counts.
"""

from __future__ import annotations

import contextlib
import copy
import math
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import combinations
from typing import Callable, Iterable, Iterator

import numpy as np
import scipy.sparse as sp

from .errors import InvalidParameterError, SizeLimitError, as_number
from .graph import KTuple, Partition, canonical_tuple, enumerate_ktuples
from .motifs import MixedWeights, MotifWeights
from . import kernels

LP1_DEFAULT_CONSTRAINT_CAP = 400_000  # count_upsilon(15, 3) = 376_740
LP2_DEFAULT_CONSTRAINT_CAP = 4_000_000

_SENSE_CODE = {"<=": -1, "=": 0, ">=": 1}
_SENSE_TEXT = {-1: "<=", 0: "=", 1: ">="}


@dataclass(frozen=True)
class VarId:
    """Canonical variable identity: a tuple variable x_K or pair variable z_uv."""

    kind: str  # "tuple" | "pair" | "named"
    key: tuple

    @property
    def name(self) -> str:
        if self.kind == "tuple":
            return "x_" + "_".join(map(str, self.key))
        if self.kind == "pair":
            return "z_" + "_".join(map(str, self.key))
        return str(self.key[0])

    @classmethod
    def tuple_var(cls, tup: Iterable[int]) -> "VarId":
        return cls("tuple", canonical_tuple(tup))

    @classmethod
    def pair_var(cls, u: int, v: int) -> "VarId":
        return cls("pair", canonical_tuple((u, v)))

    @classmethod
    def from_name(cls, name: str) -> "VarId":
        head, _, rest = name.partition("_")
        if head in ("x", "z") and rest:
            try:
                key = canonical_tuple(int(p) for p in rest.split("_"))
            except ValueError:
                return cls("named", (name,))
            return cls("tuple" if head == "x" else "pair", key)
        return cls("named", (name,))


@dataclass
class LinearConstraint:
    name: str
    terms: list  # [(VarId, coefficient)]
    sense: str  # "<=", ">=", "="
    rhs: float

    def __post_init__(self):
        if self.sense not in _SENSE_CODE:
            raise InvalidParameterError(f"bad sense {self.sense!r}")
        seen = set()
        for vid, _ in self.terms:
            if vid in seen:
                raise InvalidParameterError(f"duplicate variable {vid.name} in row {self.name}")
            seen.add(vid)


class LpProblem:
    """An immutable minimize-LP over [0,1]-bounded variables.

    Rows are stored sparse (CSR) with senses coded -1/0/+1 for <=/=/>=.
    ``census`` maps structural-constraint family names to their counts; the
    family "unit_cap" is realized as variable bounds rather than rows, and
    "triangle_active" says how many of the "triangle" family are rows.
    ``row_names`` may be a function giving the list, run on first read.
    """

    def __init__(
        self,
        name: str,
        var_ids: list[VarId],
        obj: np.ndarray,
        offset: float,
        rows: sp.csr_matrix,
        senses: np.ndarray,
        rhs: np.ndarray,
        row_names: list[str] | Callable[[], list[str]],
        census: dict[str, int] | None = None,
        lb: np.ndarray | None = None,
        ub: np.ndarray | None = None,
    ):
        self.name = name
        self.var_ids = list(var_ids)
        if len(set(self.var_ids)) != len(self.var_ids):
            raise InvalidParameterError("duplicate variable ids")
        self.obj = np.asarray(obj, dtype=float)
        self.offset = float(offset)
        self.A = rows.tocsr()
        self.senses = np.asarray(senses, dtype=np.int8)
        self.rhs = np.asarray(rhs, dtype=float)
        self.census = dict(census or {})
        n = len(self.var_ids)
        self.lb = np.zeros(n) if lb is None else np.asarray(lb, dtype=float)
        self.ub = np.ones(n) if ub is None else np.asarray(ub, dtype=float)
        if self.A.shape != (len(self.rhs), n):
            raise InvalidParameterError(
                f"matrix shape {self.A.shape} inconsistent with {len(self.rhs)} rows, {n} vars"
            )
        self._row_names = row_names if callable(row_names) else self._checked_names(row_names)

    def _checked_names(self, names) -> list[str]:
        names = list(names)
        if len(names) != self.num_rows:
            raise InvalidParameterError(f"{len(names)} row names for {self.num_rows} rows")
        return names

    @property
    def row_names(self) -> list[str]:
        if callable(self._row_names):
            self._row_names = self._checked_names(self._row_names())
        return self._row_names

    @cached_property
    def col_index(self) -> dict[VarId, int]:
        return {vid: j for j, vid in enumerate(self.var_ids)}

    @cached_property
    def pair_columns(self) -> np.ndarray | None:
        return _pair_column_matrix(self.var_ids)

    def derive(self, rows, senses, rhs, row_names, census, keep: np.ndarray | None = None) -> "LpProblem":
        """This LP's columns, or the subset ``keep`` (indices, in order), under
        new rows; the column list is not checked again."""
        lp = copy.copy(self)
        lp.A, lp.senses, lp.rhs, lp._row_names, lp.census = rows, senses, rhs, row_names, dict(census)
        if keep is not None:
            lp.var_ids = [self.var_ids[j] for j in keep.tolist()]
            lp.obj, lp.lb, lp.ub = self.obj[keep], self.lb[keep], self.ub[keep]
            lp.__dict__.pop("col_index", None)  # it indexed the parent's columns
            at = np.full(self.num_vars + 1, -1, dtype=np.int64)  # at[-1] maps "no column" to itself
            at[keep] = np.arange(len(keep))
            lp.pair_columns = None if self.pair_columns is None else at[self.pair_columns]
        return lp

    @property
    def num_vars(self) -> int:
        return len(self.var_ids)

    @property
    def num_rows(self) -> int:
        return self.A.shape[0]

    @property
    def structural_constraint_count(self) -> int:
        """Census total, including cap families carried as bounds and
        triangle rows left out of the matrix ("triangle_active" counts the
        triangle rows present, a part of "triangle", so it is not added)."""
        return sum(v for family, v in self.census.items() if family != "triangle_active")

    def index_of(self, vid: VarId) -> int:
        return self.col_index[vid]

    def iter_constraints(self) -> Iterator[LinearConstraint]:
        A = self.A
        for i in range(self.num_rows):
            lo, hi = A.indptr[i], A.indptr[i + 1]
            terms = [(self.var_ids[j], float(c)) for j, c in zip(A.indices[lo:hi], A.data[lo:hi])]
            yield LinearConstraint(self.row_names[i], terms, _SENSE_TEXT[self.senses[i]], float(self.rhs[i]))

    # ------------------------------------------------------------ text dump

    def to_text(self, fh) -> None:
        """Plain-text dump: objective, one constraint per line, bounds."""
        with _text_file(fh, "w") as fh:
            fh.write(f"# lp {self.name}\n")
            fh.write("minimize\n")
            terms = " ".join(
                f"{c:+.17g}*{vid.name}" for vid, c in zip(self.var_ids, self.obj) if c != 0.0
            )
            fh.write(f"obj: {terms} offset {self.offset:.17g}\n")
            fh.write("subject to\n")
            for row in self.iter_constraints():
                t = " ".join(f"{c:+.17g}*{vid.name}" for vid, c in row.terms)
                fh.write(f"{row.name}: {t} {row.sense} {row.rhs:.17g}\n")
            fh.write("bounds\n")
            for vid, lo, hi in zip(self.var_ids, self.lb, self.ub):
                fh.write(f"{lo:.17g} <= {vid.name} <= {hi:.17g}\n")
            fh.write("end\n")

    @classmethod
    def from_text(cls, fh, name: str = "dump") -> "LpProblem":
        """Inverse of ``to_text``.  A malformed line raises
        InvalidParameterError naming its line number."""
        with _text_file(fh, "r") as fh:
            lines = list(fh)
        parsed: dict[str, list] = {"minimize": [], "subject to": [], "bounds": []}
        section = None
        for lineno, raw in enumerate(lines, start=1):
            ln = raw.strip()
            if not ln or ln.startswith("#"):
                continue
            if ln.lower() in ("minimize", "subject to", "bounds", "end"):
                section = ln.lower()
            elif section in parsed:
                try:
                    parsed[section].append(_parse_dump_line(section, ln))
                except (ValueError, IndexError, StopIteration) as exc:
                    raise InvalidParameterError(
                        f"line {lineno}: malformed {section} line {ln!r}"
                    ) from exc
        var_ids: list[VarId] = []
        col: dict[str, int] = {}

        def col_of(vname: str) -> int:
            if vname not in col:
                col[vname] = len(var_ids)
                var_ids.append(VarId.from_name(vname))
            return col[vname]

        # to_text lists every variable in the bounds section, which pins
        # the original column order
        bounds = parsed["bounds"]
        for vname, _, _ in bounds:
            col_of(vname)
        obj_terms, offset = parsed["minimize"][-1] if parsed["minimize"] else ([], 0.0)
        obj_cols = [(col_of(v), c) for v, c in obj_terms]
        rows = parsed["subject to"]
        row_cols = [[(col_of(v), c) for v, c in terms] for _, terms, _, _ in rows]
        nv = len(var_ids)
        obj = np.zeros(nv)
        for j, c in obj_cols:
            obj[j] = c
        lb = np.zeros(nv)
        ub = np.ones(nv)
        for vname, lo, hi in bounds:
            lb[col[vname]], ub[col[vname]] = lo, hi
        A = sp.csr_matrix(
            (
                np.array([c for terms in row_cols for _, c in terms], dtype=float),
                np.array([j for terms in row_cols for j, _ in terms], dtype=np.int32),
                np.cumsum([0] + [len(terms) for terms in row_cols], dtype=np.int32),
            ),
            shape=(len(rows), nv),
        )
        senses = np.array([sense for _, _, sense, _ in rows], dtype=np.int8)
        rhs = np.array([b for _, _, _, b in rows], dtype=float)
        row_names = [rname for rname, _, _, _ in rows]
        return cls(name, var_ids, obj, offset, A, senses, rhs, row_names, lb=lb, ub=ub)


def _text_file(fh, mode: str):
    """``fh`` itself, or the file at path ``fh`` opened in ``mode``."""
    if isinstance(fh, (str, bytes)):
        return open(fh, mode, encoding="utf-8")
    return contextlib.nullcontext(fh)


def _dump_terms(tokens: list[str]) -> list[tuple[str, float]]:
    out = []
    for tok in tokens:
        coeff, _, vname = tok.partition("*")
        if not vname:
            raise ValueError(f"bad term {tok!r}")
        out.append((vname, float(coeff)))
    return out


def _parse_dump_line(section: str, ln: str) -> tuple:
    """One line of a ``to_text`` section, with variables still named.
    Malformed lines raise ValueError, IndexError or StopIteration."""
    if section == "bounds":
        lo, le, vname, le2, hi = ln.split()  # "lo <= name <= hi"
        if (le, le2) != ("<=", "<="):
            raise ValueError(f"bad bounds line {ln!r}")
        return vname, float(lo), float(hi)
    label, _, rest = ln.partition(":")
    toks = rest.split()
    if section == "minimize":  # "obj: terms offset c"
        if "offset" not in toks:
            return _dump_terms(toks), 0.0
        at = toks.index("offset")
        return _dump_terms(toks[:at]), float(toks[at + 1])
    at = next(i for i, t in enumerate(toks) if t in _SENSE_CODE)
    sense, rhs = toks[at:]
    return label.strip(), _dump_terms(toks[:at]), _SENSE_CODE[sense], float(rhs)


@dataclass
class FractionalSolution:
    """Variable values aligned with an LpProblem's column order."""

    var_ids: list[VarId]
    values: np.ndarray
    objective_value: float
    status: str  # optimal | infeasible | unbounded | feasible

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)

    @cached_property
    def _index(self) -> dict[VarId, int]:
        return {vid: j for j, vid in enumerate(self.var_ids)}

    def value(self, vid: VarId) -> float:
        return float(self.values[self._index[vid]])

    def __getitem__(self, key) -> float:
        if isinstance(key, VarId):
            return self.value(key)
        t = canonical_tuple(key)
        if VarId("tuple", t) in self._index:
            return self.value(VarId("tuple", t))
        return self.value(VarId("pair", t))

    def tuple_values(self, k: int) -> dict[KTuple, float]:
        return {
            vid.key: float(v)
            for vid, v in zip(self.var_ids, self.values)
            if vid.kind == "tuple" and len(vid.key) == k
        }

    def pair_values(self) -> dict[KTuple, float]:
        return {
            vid.key: float(v)
            for vid, v in zip(self.var_ids, self.values)
            if vid.kind == "pair"
        }

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "objective_value": self.objective_value,
            "values": {vid.name: float(v) for vid, v in zip(self.var_ids, self.values)},
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "FractionalSolution":
        if not isinstance(d, dict):
            raise InvalidParameterError(f"solution JSON must be an object, got {type(d).__name__}")
        missing = [key for key in ("values", "objective_value", "status") if key not in d]
        if missing:
            raise InvalidParameterError(f"solution JSON lacks {', '.join(missing)}")
        values = d["values"]
        if not isinstance(values, dict):
            raise InvalidParameterError(f"solution JSON 'values' must be an object, got {type(values).__name__}")
        return cls(
            [VarId.from_name(nm) for nm in values],
            np.array([as_number(x, f"solution value {nm!r}") for nm, x in values.items()], dtype=float),
            as_number(d["objective_value"], "solution 'objective_value'"),
            str(d["status"]),
        )


# --------------------------------------------------------------- row emitter


def _emit_rows(num_vars: int, groups) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """CSR matrix, senses and rhs of the ``<= 0`` rows of ``groups``.

    A group is (cols, coeffs, widths): ``cols`` an (m, W) array of column
    indices, ``coeffs`` the W coefficients and ``widths`` the lengths of
    the rows (summing to W) that each of its m entries writes over its own
    columns, in order.  Groups follow one another."""
    groups = [(np.asarray(c, dtype=np.int64).reshape(-1, len(w)), w, r) for c, w, r in groups]
    lengths = np.concatenate([[0], *(np.tile(r, len(c)) for c, _, r in groups)]).astype(np.int64)
    data = np.concatenate([[], *(np.tile(np.asarray(w, dtype=float), len(c)) for c, w, _ in groups)])
    indices = np.concatenate([np.empty(0, dtype=np.int64), *(c.ravel() for c, _, _ in groups)])
    m = len(lengths) - 1
    A = sp.csr_matrix((data, indices, np.cumsum(lengths)), shape=(m, num_vars))
    return A, np.full(m, _SENSE_CODE["<="], dtype=np.int8), np.zeros(m)


def count_upsilon(n: int, k: int) -> int:
    """Closed-form |Upsilon|: Σ_{i=k+1}^{2k-1} C(n,i)·[C(i,k)·C(k,2k-i)/2]·[C(i,k)-2]."""
    if k < 2:
        raise InvalidParameterError(f"tuple size must be >= 2, got {k}")
    total = 0
    for i in range(k + 1, 2 * k):
        pairs = math.comb(i, k) * math.comb(k, 2 * k - i) // 2
        total += math.comb(n, i) * pairs * (math.comb(i, k) - 2)
    return total


def _check_weights_n(weights: MotifWeights, n: int) -> None:
    if n < weights.k:
        raise InvalidParameterError(f"n={n} below tuple size k={weights.k}")
    if weights.graph.n != n:
        raise InvalidParameterError(
            f"weights are bound to a graph with n={weights.graph.n}, LP requested n={n}"
        )


def build_lp1(
    weights: MotifWeights, n: int, *, max_constraints: int | None = None
) -> LpProblem:
    """LP over tuple variables only, with the Upsilon family
    x_{K3} <= x_{K1} + x_{K2}.  Grows Θ(n^{2k-1}); capped by default."""
    _check_weights_n(weights, n)
    k = weights.k
    cap = LP1_DEFAULT_CONSTRAINT_CAP if max_constraints is None else max_constraints
    est = count_upsilon(n, k)
    if est > cap:
        raise SizeLimitError(
            f"LP1 would need {est} constraints (cap {cap}); pass max_constraints to override"
        )
    tuples = list(map(tuple, weights.tuple_table().tuples.tolist()))
    var_ids = [VarId("tuple", t) for t in tuples]
    col = {t: j for j, t in enumerate(tuples)}
    wplus = weights.tuple_table().wplus
    obj = 2.0 * wplus - 1.0
    offset = float((1.0 - wplus).sum())
    tsets = [frozenset(t) for t in tuples]
    triples = []  # (x_K3, x_K1, x_K2) columns per Upsilon row
    for i in range(len(tuples)):
        si = tsets[i]
        for j in range(i + 1, len(tuples)):
            if not (si & tsets[j]):
                continue
            union = sorted(si | tsets[j])
            for k3 in combinations(union, k):
                if k3 == tuples[i] or k3 == tuples[j]:
                    continue
                triples.append((col[k3], i, j))
    A, senses, rhs = _emit_rows(len(var_ids), [(triples, (1.0, -1.0, -1.0), (3,))])
    m = len(triples)  # the row-name function keeps the count, not the triples
    return LpProblem(
        f"lp1_n{n}_k{k}", var_ids, obj, offset, A, senses, rhs,
        lambda: [f"ups{i}" for i in range(m)], census={"upsilon": m},
    )


def _emit_pair_rows(tuples: np.ndarray, base: int, zc: np.ndarray) -> tuple:
    """Row group of the per-tuple families: z_uv <= x_K for each pair uv
    of K, then (k-1)·x_K <= Σ z_uv.  ``tuples`` is an (m, k) array, the
    variable x_K of ``tuples[i]`` is column ``base + i`` and ``zc`` maps a
    vertex pair to its z column."""
    m, k = tuples.shape
    ij = list(combinations(range(k), 2))
    a, b = np.array(ij).T
    z = zc[tuples[:, a], tuples[:, b]]  # (m, C(k,2))
    x = np.arange(base, base + m)[:, None]
    floors = np.stack([z, np.broadcast_to(x, z.shape)], axis=2).reshape(m, -1)
    return (
        np.hstack([floors, x, z]),
        (1.0, -1.0) * len(ij) + (float(k - 1),) + (-1.0,) * len(ij),
        (2,) * len(ij) + (len(ij) + 1,),
    )


def _pair_row_names(tables: list[np.ndarray]) -> list[str]:
    """Names of the rows ``_emit_pair_rows`` writes for each of ``tables``."""
    names = []
    for tuples in tables:
        ij = list(combinations(range(tuples.shape[1]), 2))
        for t in tuples.tolist():
            tn = "_".join(map(str, t))
            names += [f"pf_{tn}_{t[i]}_{t[j]}" for i, j in ij]
            names.append(f"ps_{tn}")
    return names


def _names(source, rows: np.ndarray | None = None, triangles=()) -> list[str]:
    """Row names from a list or the function formatting them, at ``rows``, then ``triangles``' rows."""
    names = source() if callable(source) else source
    names = names if rows is None else [names[i] for i in rows.tolist()]
    return names + [f"tri_{a}_{b}_{c}_a{x}" for a, b, c, x in np.asarray(triangles).tolist()]


def _triples(n: int) -> np.ndarray:
    """The C(n,3) triples a < b < c of 1..n as rows, in lexicographic order."""
    v = np.arange(n)
    return np.argwhere((v[:, None, None] < v[:, None]) & (v[:, None] < v)) + 1


def all_triangles(n: int) -> np.ndarray:
    """Every triangle row of the metric on 1..n as (a, b, c, apex) rows,
    a < b < c, in canonical order: triples lexicographic, then apex a, b, c."""
    abc = _triples(n)
    return np.column_stack([np.repeat(abc, 3, axis=0), abc.ravel()])


def _pair_column_matrix(var_ids: list[VarId]) -> np.ndarray | None:
    """Symmetric (n+1)x(n+1) matrix of z-column indices (-1 where there is
    no z variable), or None for columns without pair variables."""
    pairs = [(vid.key, j) for j, vid in enumerate(var_ids) if vid.kind == "pair"]
    if not pairs:
        return None
    n = max(key[1] for key, _ in pairs)
    zc = np.full((n + 1, n + 1), -1, dtype=np.int64)
    for (u, v), j in pairs:
        zc[u, v] = zc[v, u] = j
    return zc


def add_triangle_rows(core: LpProblem, triangles: np.ndarray) -> LpProblem:
    """``core`` with one metric row z_qr <= z_pq + z_pr appended per
    (a, b, c, apex p) row of ``triangles``, in the given order; q < r are
    the two other vertices.  The census's ``triangle_active`` counts them.

    This is the only place triangle rows are written: ``build_lp3`` passes
    ``all_triangles(n)``, the pipeline the rows separation found violated.
    """
    tri = np.asarray(triangles, dtype=np.int64).reshape(-1, 4)
    m = len(tri)
    if not m:
        return core
    zc = core.pair_columns
    if zc is None:
        raise InvalidParameterError(f"LP {core.name} has no pair variables for triangle rows")
    abc, p = tri[:, :3], tri[:, 3]
    others = abc[abc != p[:, None]].reshape(m, 2)
    q, r = others[:, 0], others[:, 1]
    cols = np.column_stack([zc[q, r], zc[p, q], zc[p, r]])
    block, senses, rhs = _emit_rows(core.num_vars, [(cols, (1.0, -1.0, -1.0), (3,))])
    census = dict(core.census, triangle_active=core.census.get("triangle_active", 0) + m)
    return core.derive(
        sp.vstack([core.A, block], format="csr"),
        np.concatenate([core.senses, senses]),
        np.concatenate([core.rhs, rhs]),
        partial(_names, core._row_names, triangles=tri),
        census,
    )


def separate_triangles(problem: LpProblem, values: np.ndarray, tol: float) -> np.ndarray:
    """The triangle rows z_qr <= z_pq + z_pr that the point ``values``
    violates by more than ``tol``, as (a, b, c, apex) rows in canonical
    order (see ``all_triangles``); rows already in ``problem`` included.

    The violation is evaluated as (z_qr - z_pq) - z_pr, the order in which
    a row's sparse product sums its terms, so the result equals the set of
    rows with ``A_tri @ x - rhs > tol``.  Work and memory are O(C(n,3)):
    three checks per triple, at once.  An LP without pair variables has no
    triangle rows to violate.
    """
    zc = problem.pair_columns
    if zc is None:
        return np.empty((0, 4), dtype=np.int64)
    Z = np.where(zc >= 0, np.asarray(values, dtype=float)[zc], 0.0)
    abc = _triples(zc.shape[0] - 1)
    a, b, c = abc.T
    ab, ac, bc = Z[a, b], Z[a, c], Z[b, c]
    # apex a: z_bc <= z_ab + z_ac; apex b: z_ac <= z_ab + z_bc; apex c: z_ab <= z_ac + z_bc
    viol = np.column_stack([(bc - ab) - ac, (ac - ab) - bc, (ab - ac) - bc]) > tol
    t, apex = np.nonzero(viol)
    return np.column_stack([abc[t], abc[t, apex]])


class TupleLift:
    """Maps a point of the LP that ``drop_zero_cost_tuples`` returned back
    onto the LP it was given: every left-out x_K becomes max over the pairs
    uv of K of z_uv, every other value is kept."""

    def __init__(self, var_ids: list[VarId], kept: np.ndarray, dropped: np.ndarray, zc: np.ndarray | None):
        self.var_ids = var_ids
        self.kept = kept  # full-LP columns of the reduced LP, in its order
        self.dropped = dropped  # full-LP columns left out
        self._groups = []  # (tuple columns, their pair columns) per tuple size
        keys = [var_ids[j].key for j in dropped.tolist()]
        for k in sorted({len(key) for key in keys}):
            cols = np.array([j for j, key in zip(dropped.tolist(), keys) if len(key) == k], dtype=np.int64)
            tup = np.array([key for key in keys if len(key) == k], dtype=np.int64).reshape(-1, k)
            i, j = np.array(list(combinations(range(k), 2))).T
            self._groups.append((cols, zc[tup[:, i], tup[:, j]]))

    def __call__(self, solution: FractionalSolution) -> FractionalSolution:
        values = np.zeros(len(self.var_ids))
        values[self.kept] = solution.values
        for cols, pair_cols in self._groups:
            values[cols] = values[pair_cols].max(axis=1)
        return FractionalSolution(self.var_ids, values, solution.objective_value, solution.status)


def drop_zero_cost_tuples(core: LpProblem) -> tuple[LpProblem, TupleLift]:
    """``core`` (from ``build_lp3_core`` or ``build_lp3``) without its
    tuple columns of objective coefficient exactly 0.0 and without the rows
    that touch them, plus the ``TupleLift`` back onto ``core``.

    In these builders the rows of x_K are K's own: z_uv <= x_K for each of
    its C(k,2) pairs and (k-1)·x_K <= Σ_{uv ⊂ K} z_uv, with 0 <= x_K <= 1.
    A column of cost 0 only asks that some x_K fit in
    [max z_uv, Σ z_uv/(k-1)], and max z_uv = z_ab <= 1 fits exactly when
    (k-1)·z_ab <= Σ z_uv.  The triangle rows on K's vertices imply that:
    z_ab <= z_aw + z_bw for each of the k-2 other vertices w of K, summed
    and added to z_ab, gives (k-1)·z_ab <= z_ab + Σ_w (z_aw + z_bw), which
    is at most Σ z_uv because the pairs among the w are >= 0 (k = 3 is the
    triangle row itself; k >= 4 adds those pairs).  So the LP returned here
    plus every triangle row is the projection of ``core`` plus every
    triangle row onto the kept columns, both LPs have the same optimum, and
    x_K = max z_uv lifts an optimal point of the first to one of the
    second; a point within tol of the triangle rows lifts to one within
    (k-2)·tol of the (k-1)·x_K row.

    Nothing is dropped (``core`` itself and an identity lift come back)
    when no tuple column costs 0, or when the LP has no pair columns: LP1's
    rows tie tuple columns to each other, so the argument does not hold.
    """
    zc = core.pair_columns
    drop = np.array([v.kind == "tuple" and zc is not None for v in core.var_ids], dtype=bool) & (core.obj == 0.0)
    kept, dropped = np.nonzero(~drop)[0], np.nonzero(drop)[0]
    lift = TupleLift(core.var_ids, kept, dropped, zc)
    if not len(dropped):
        return core, lift
    A = core.A
    rows = np.nonzero(A[:, dropped].getnnz(axis=1) == 0)[0]
    names = partial(_names, core._row_names, rows)
    reduced = core.derive(A[rows][:, kept], core.senses[rows], core.rhs[rows], names, core.census, keep=kept)
    return reduced, lift


def build_lp2(
    weights: MotifWeights, n: int, *, max_constraints: int | None = None
) -> LpProblem:
    """Tuple variables tied to a pair pseudometric z: the LP3 of the single
    layer ``weights``.  Polynomial row count Θ(C(n,k)·C(k,2) + C(n,3))."""
    return build_lp3(MixedWeights.single(weights), n, max_constraints=max_constraints)


def build_lp3(
    mixed: MixedWeights, n: int, *, max_constraints: int | None = None
) -> LpProblem:
    """Multi-layer LP: per-layer tuple variables (k >= 3) over one shared
    pair metric; a k=2 layer contributes objective terms on z directly.
    Every one of the 3·C(n,3) triangle rows is materialized."""
    return add_triangle_rows(build_lp3_core(mixed, n, max_constraints=max_constraints), all_triangles(n))


def build_lp3_core(
    mixed: MixedWeights, n: int, *, max_constraints: int | None = None
) -> LpProblem:
    """``build_lp3`` without its triangle rows: the variables, objective and
    tuple-row families.  The census keeps the closed-form "triangle" count;
    ``add_triangle_rows`` appends the rows a solve needs."""
    for layer in mixed:
        _check_weights_n(layer.weights, n)
    cap = LP2_DEFAULT_CONSTRAINT_CAP if max_constraints is None else max_constraints
    est = 3 * math.comb(n, 3) + sum(
        math.comb(n, l.k) * (math.comb(l.k, 2) + 1) for l in mixed if l.k >= 3
    )
    if est > cap:
        raise SizeLimitError(
            f"LP3 would need {est} rows (cap {cap}); pass max_constraints to override"
        )
    pairs = list(enumerate_ktuples(range(1, n + 1), 2))
    var_ids: list[VarId] = []
    base: dict[int, int] = {}  # layer k -> column of its first variable
    for layer in mixed:
        if layer.k < 3:
            continue
        base[layer.k] = len(var_ids)
        var_ids.extend(VarId("tuple", tuple(t)) for t in layer.weights.tuple_table().tuples.tolist())
    zbase = len(var_ids)
    var_ids.extend(VarId("pair", p) for p in pairs)
    obj = np.zeros(len(var_ids))
    offset = 0.0
    for layer in mixed:
        # a k=2 layer's table lists the pairs in z-column order
        wplus = layer.weights.tuple_table().wplus
        lo = base.get(layer.k, zbase)
        obj[lo : lo + len(wplus)] += layer.lam * (2.0 * wplus - 1.0)
        offset += layer.lam * float((1.0 - wplus).sum())
    zc = _pair_column_matrix(var_ids)
    groups, tables = [], []
    census: dict[str, int] = {"pair_floor": 0, "pair_sum_cap": 0, "unit_cap": 0}
    for layer in mixed:
        if layer.k < 3:
            continue
        tuples = layer.weights.tuple_table().tuples
        groups.append(_emit_pair_rows(tuples, base[layer.k], zc))
        tables.append(tuples)
        census["pair_floor"] += len(tuples) * math.comb(layer.k, 2)
        census["pair_sum_cap"] += len(tuples)
        census["unit_cap"] += len(tuples)
    census["triangle"] = 3 * math.comb(n, 3)
    if not any(l.k >= 3 for l in mixed):
        census = {"triangle": census["triangle"]}
    census["triangle_active"] = 0
    A, senses, rhs = _emit_rows(len(var_ids), groups)
    ks = "-".join(str(l.k) for l in mixed)
    names = partial(_pair_row_names, tables)
    core = LpProblem(f"lp3_n{n}_k{ks}", var_ids, obj, offset, A, senses, rhs, names, census=census)
    core.pair_columns = zc  # built above from the same columns
    return core


# ------------------------------------------------------- points & objective


def induced_point(partition: Partition, problem: LpProblem) -> FractionalSolution:
    """The integral feasible point of a partition: x_K = [K split],
    z_uv = [u, v in different clusters]."""
    values = np.empty(problem.num_vars)
    for j, vid in enumerate(problem.var_ids):
        if vid.kind == "named":
            raise InvalidParameterError(f"cannot induce a value for free variable {vid.name}")
        values[j] = 1.0 if partition.is_split(vid.key) else 0.0
    objective = float(problem.obj @ values) + problem.offset
    return FractionalSolution(problem.var_ids, values, objective, "feasible")


def _labels(partition: Partition, mixed: MixedWeights) -> np.ndarray:
    """Cluster index per vertex (slot 0 unused), for the tuple kernels."""
    _check_n(partition.n, mixed)
    return np.array([0, *partition.labels_array()], dtype=np.int64)


def _check_n(n: int, mixed: MixedWeights) -> None:
    if mixed.graph.n != n:
        raise InvalidParameterError(
            f"partition n={n} disagrees with weights' graph n={mixed.graph.n}"
        )


def _labels_cost(labels: np.ndarray, mixed: MixedWeights) -> float:
    """The objective of the partition whose vertex v carries ``labels[v]``
    (slot 0 unused; labels need not be dense, only equality counts)."""
    _check_n(len(labels) - 1, mixed)
    total = 0.0
    for layer in mixed:
        table = layer.weights.tuple_table()
        total += layer.lam * kernels.partition_cost(table.tuples, table.wplus, labels)
    return float(total)


def evaluate_objective(partition: Partition, mixed: MixedWeights) -> float:
    """Σ_t λ_t [Σ_{K split} w+_K + Σ_{K contained} w-_K] over all k_t-tuples."""
    return _labels_cost(_labels(partition, mixed), mixed)


def per_class_breakdown(partition: Partition, mixed: MixedWeights) -> dict:
    """Error cost grouped by (layer k, motif class): split positives pay w+,
    contained tuples pay w-.  Sums to evaluate_objective."""
    labels = _labels(partition, mixed)
    out: dict[str, dict[str, float]] = {}
    for layer in mixed:
        table = layer.weights.tuple_table()
        split = kernels.split_mask(table.tuples, labels)
        cost = layer.lam * np.where(split, table.wplus, 1.0 - table.wplus)
        # bincount adds in tuple order, as a per-tuple loop would
        sums = np.bincount(table.class_idx, weights=cost, minlength=len(table.classes))
        out[f"k{layer.k}"] = dict(zip(table.classes, sums.tolist()))
    return out
