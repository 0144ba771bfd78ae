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
plus ``add_triangle_rows`` over ``all_triangles(n)``, and ``build_lp1`` is
``build_lp1_core`` (the columns and objective) plus every Upsilon row.
The pipeline solves the cores instead and adds only the rows that
``separate_triangles`` or ``separate_upsilon`` finds violated at the
current LP point, since few of the 3·C(n,3) triangle rows or the
Θ(n^{2k-1}) Upsilon rows ever bind; the full builds stay for dumps,
``verify`` and the tests.  ``_upsilon_rows`` enumerates the Upsilon rows
in ``build_lp1``'s order a block of tuple pairs at a time, and serves
both ``build_lp1`` and ``separate_upsilon``.  The solved LP2/LP3 core
also leaves out the tuple columns whose objective coefficient is 0
(w+ = 0.5), whose own rows the triangle rows imply: ``build_lp3_core``
with ``drop_zero_cost`` never builds them, which equals
``drop_zero_cost_tuples`` of the full core, and its ``TupleLift`` lifts
them back from z afterwards and gives their rows at the lifted point
without building them (``left_out_rows``).

Every built row is ``<= 0`` over a fixed pattern of columns, and one
emitter (``_emit_rows``) writes the rows of all four families from arrays
of column indices: Upsilon rows, the pair-floor and pair-sum rows of each
tuple, and triangle rows.

The rows are held as plain CSR arrays (``data``, ``indices``, ``indptr``),
decided here and handed to HiGHS as they are, so no run imports scipy's
sparse module: ``LpProblem.row_activity`` sums each row in index order as
scipy's CSR product does, and ``LpProblem.A``, the scipy matrix the tests
and the benchmark's tracer read, is built on first read.

The columns are arrays too, and only arrays: ``Columns`` holds blocks of
keys, an (m, k) array of k-tuples per layer and the (p, 2) array of
pairs, so a solve makes no ``VarId``.  Columns given as VarIds (a dump, a
solution file, an LP built by hand) become one block per run of one kind
and key length, names other than x_.../z_... an (m, 1) "named" block;
VarIds are made from the blocks only for dumps, solution JSON and tests.
The LP2/LP3 set-up is O(rows) numpy work, with one pair-column map and
one C(n,3) triple list per fresh column list, which the LPs
``LpProblem.derive`` makes from it (every round) reuse.
Row names are formatted only when ``row_names`` is read.

The objective Σ [w+·x + w-·(1-x)] is stored as coefficients (2w+ - 1) plus
an explicit constant ``offset`` (Σ w-), so LP objective values are directly
comparable with ``evaluate_objective`` on integral partitions.

x_K <= 1 caps are carried as variable upper bounds (smaller basis), but the
problem's ``census`` counts them as the structural family "unit_cap" so the
census total matches the closed-form constraint counts.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import combinations
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import InvalidParameterError, InvalidVertexError, SizeLimitError, as_number
from .graph import KTuple, Partition, canonical_tuple, open_text
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


class Columns:
    """An LP's column identities in column order, as blocks of keys: an
    (m, k) int array of k-tuples (kind "tuple", one x_K per row), an
    (m, 2) array of vertex pairs (kind "pair", one z_uv per row) or an
    (m, 1) object array of other names (kind "named").  Indexing and
    iterating give VarIds, made from the blocks on first read; ``groups``
    gives the keys as arrays without them."""

    def __init__(self, blocks: list[tuple[str, np.ndarray]]):
        self.blocks = blocks
        self._len = sum(len(keys) for _, keys in blocks)

    @classmethod
    def of(cls, columns) -> "Columns":
        """``columns`` itself, or the Columns of a VarId sequence: one block
        per run of VarIds of one kind and key length."""
        if isinstance(columns, Columns):
            return columns
        runs: list = []
        for vid in columns:
            if not runs or runs[-1][0] != (vid.kind, len(vid.key)):
                runs.append(((vid.kind, len(vid.key)), []))
            runs[-1][1].append(vid.key)
        return cls([(kind, np.array(keys, dtype=object if kind == "named" else np.int64)) for (kind, _), keys in runs])

    @cached_property
    def var_ids(self) -> list[VarId]:
        return [VarId(kind, key) for kind, keys in self.blocks for key in map(tuple, keys.tolist())]

    @cached_property
    def col_index(self) -> dict[VarId, int]:
        return {vid: j for j, vid in enumerate(self.var_ids)}

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, j):
        return self.var_ids[j]

    def __eq__(self, other) -> bool:
        return self.var_ids == list(other) if isinstance(other, (Columns, list)) else NotImplemented

    @cached_property
    def groups(self) -> dict[tuple[str, int], tuple[np.ndarray, np.ndarray]]:
        """Per (kind, key length): the columns of that kind in increasing
        order, and their keys as rows."""
        found: dict = {}
        start = 0
        for kind, keys in self.blocks:
            found.setdefault((kind, keys.shape[1]), []).append((np.arange(start, start + len(keys)), keys))
            start += len(keys)
        return {g: tuple(np.concatenate(a) for a in zip(*parts)) for g, parts in found.items()}

    def check_distinct(self) -> None:
        """Raise InvalidParameterError if two columns have one identity."""
        for (kind, _), (_, keys) in self.groups.items():
            if (len(set(keys[:, 0].tolist())) if kind == "named" else len(first_rows(keys))) != len(keys):
                raise InvalidParameterError("duplicate variable ids")

    def take(self, keep: np.ndarray) -> "Columns":
        """The columns at the increasing indices ``keep``."""
        blocks, start = [], 0
        for kind, keys in self.blocks:
            blocks.append((kind, keys[keep[(keep >= start) & (keep < start + len(keys))] - start]))
            start += len(keys)
        return Columns(blocks)


def first_rows(rows: np.ndarray) -> np.ndarray:
    """``np.unique(rows, axis=0, return_index=True)[1]`` of an (m, w) int
    array: the index of the first of each distinct row, in the rows'
    lexicographic order.  Each row is read as one number in base
    (max - min + 1), first column highest, when that fits in an int64."""
    lo, width = rows.min(initial=0), rows.shape[1]
    base = int(rows.max(initial=0)) - int(lo) + 1
    if base**width >= 2**63:
        return np.unique(rows, axis=0, return_index=True)[1]
    return np.unique((rows - lo) @ base ** np.arange(width - 1, -1, -1, dtype=np.int64), return_index=True)[1]


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

    ``columns`` (``Columns``; the constructor takes a VarId list too)
    names the columns, and ``var_ids`` and ``col_index`` are made from it
    on first read.
    The rows are a CSR triple of arrays: row i holds the coefficients
    ``data[indptr[i]:indptr[i+1]]`` at the columns ``indices[...]`` of the
    same slice.  ``rows`` is that triple (data, indices, indptr) or any
    scipy sparse matrix.  Senses are coded -1/0/+1 for <=/=/>=.
    ``row_activity`` sums each row from 0.0 in index order, the order of
    scipy's CSR product.  ``A`` is a scipy CSR view of the rows, built on
    first read (importing scipy's sparse module then); assigning a scipy
    matrix to it replaces the arrays.
    ``census`` maps structural-constraint family names to their counts; the
    family "unit_cap" is realized as variable bounds rather than rows, and
    "triangle_active" says how many of the "triangle" family are rows.
    ``row_names`` may be a function giving the list, run on first read.
    ``lift`` is the ``TupleLift`` of an LP built without its zero-cost
    tuple columns (``build_lp3_core``), else None; ``derive`` keeps it.
    """

    def __init__(
        self,
        name: str,
        var_ids: list[VarId],
        obj: np.ndarray,
        offset: float,
        rows,
        senses: np.ndarray,
        rhs: np.ndarray,
        row_names: list[str] | Callable[[], list[str]],
        census: dict[str, int] | None = None,
        lb: np.ndarray | None = None,
        ub: np.ndarray | None = None,
    ):
        self.name = name
        self.columns = Columns.of(var_ids)
        self.columns.check_distinct()
        self.obj = np.asarray(obj, dtype=float)
        self.offset = float(offset)
        self.senses = np.asarray(senses, dtype=np.int8)
        self.rhs = np.asarray(rhs, dtype=float)
        self.census = dict(census or {})
        n = len(self.columns)
        self.lb = np.zeros(n) if lb is None else np.asarray(lb, dtype=float)
        self.ub = np.ones(n) if ub is None else np.asarray(ub, dtype=float)
        self.A = rows
        self._row_names = row_names if callable(row_names) else self._checked_names(row_names)
        self._triples: list[np.ndarray] = []  # a list the LPs derive makes share
        self.lift: TupleLift | None = None

    def _checked_names(self, names) -> list[str]:
        names = list(names)
        if len(names) != self.num_rows:
            raise InvalidParameterError(f"{len(names)} row names for {self.num_rows} rows")
        return names

    @property
    def A(self):
        """The rows as a scipy ``csr_matrix``, built on first read; its
        index dtypes are the ones scipy's constructor picks."""
        if self._A is None:
            import scipy.sparse as sp

            self._A = sp.csr_matrix((self.data, self.indices, self.indptr), shape=(self.num_rows, self.num_vars))
        return self._A

    @A.setter
    def A(self, rows) -> None:
        n = self.num_vars
        if hasattr(rows, "tocsr"):  # any scipy sparse matrix
            rows = rows.tocsr()
            shape, rows = rows.shape, (rows.data, rows.indices, rows.indptr)
        else:
            cols = np.asarray(rows[1])
            if len(cols) and not 0 <= cols.min() <= cols.max() < n:
                raise InvalidParameterError(f"column index out of range for {n} vars")
            shape = (len(rows[2]) - 1, n)
        if shape != (len(self.rhs), n):
            raise InvalidParameterError(f"matrix shape {shape} inconsistent with {len(self.rhs)} rows, {n} vars")
        self.data, self.indices, self.indptr = np.asarray(rows[0], dtype=float), np.asarray(rows[1]), np.asarray(rows[2])
        self._A = None

    def _entry_rows(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.num_rows), np.diff(self.indptr))

    def row_activity(self, x) -> np.ndarray:
        """The row values ``A @ x``, bit for bit: each row is summed from
        0.0 over its own entries in index order, as scipy's CSR product
        sums it, so a NaN or inf in ``x`` reaches only the rows that hold
        its column."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.num_vars,):
            raise InvalidParameterError(f"point of shape {x.shape} for {self.num_vars} vars")
        with np.errstate(invalid="ignore", over="ignore"):  # 0 * inf is NaN, silently, as in scipy
            products = self.data * x[self.indices]
        return np.bincount(self._entry_rows(), weights=products, minlength=self.num_rows)

    def colwise(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows column by column, (start, row index, value), as
        ``A.tocsc()`` lists them: a stable sort by column keeps each
        column's entries in row order."""
        order = np.argsort(self.indices, kind="stable")
        start = np.concatenate([[0], np.cumsum(np.bincount(self.indices, minlength=self.num_vars))])
        return start, self._entry_rows()[order], self.data[order]

    @property
    def row_names(self) -> list[str]:
        if callable(self._row_names):
            self._row_names = self._checked_names(self._row_names())
        return self._row_names

    @property
    def var_ids(self) -> list[VarId]:
        return self.columns.var_ids

    @property
    def col_index(self) -> dict[VarId, int]:
        return self.columns.col_index

    @cached_property
    def pair_columns(self) -> np.ndarray | None:
        return _pair_column_matrix(self.columns)

    @property
    def triples(self) -> np.ndarray:
        """``_triples`` of the pair columns' vertices, enumerated once for
        this LP and every LP ``derive`` makes from it (the vertices stay),
        beside the flat indices of each triple's pairs ab, ac, bc in an
        (n+1)x(n+1) matrix, as a (3, T) array (``_triples[1]``)."""
        if not self._triples:
            abc = _triples(self.pair_columns.shape[0] - 1)
            self._triples += [abc, len(self.pair_columns) * abc[:, [0, 0, 1]].T + abc[:, [1, 2, 2]].T]
        return self._triples[0]

    def derive(self, rows, senses, rhs, row_names, census, keep: np.ndarray | None = None) -> "LpProblem":
        """This LP's columns, or the subset ``keep`` (increasing indices), under
        new rows, a CSR triple over those columns; neither the column list
        nor the rows are checked again."""
        lp = copy.copy(self)
        (lp.data, lp.indices, lp.indptr), lp._A = rows, None
        lp.senses, lp.rhs, lp._row_names, lp.census = senses, rhs, row_names, dict(census)
        if keep is not None:
            lp.columns = self.columns.take(keep)
            lp.obj, lp.lb, lp.ub = self.obj[keep], self.lb[keep], self.ub[keep]
            at = np.full(self.num_vars + 1, -1, dtype=np.int64)  # at[-1] maps "no column" to itself
            at[keep] = np.arange(len(keep))
            lp.pair_columns = None if self.pair_columns is None else at[self.pair_columns]
        return lp

    @property
    def num_vars(self) -> int:
        return len(self.columns)

    @property
    def num_rows(self) -> int:
        return len(self.indptr) - 1

    @property
    def structural_constraint_count(self) -> int:
        """Census total, including cap families carried as bounds and
        triangle or Upsilon rows left out of the matrix ("triangle_active"
        and "upsilon_active" count the rows present, a part of "triangle"
        and "upsilon", so they are not added)."""
        return sum(v for family, v in self.census.items() if not family.endswith("_active"))

    def index_of(self, vid: VarId) -> int:
        return self.col_index[vid]

    def iter_constraints(self) -> Iterator[LinearConstraint]:
        for i in range(self.num_rows):
            lo, hi = self.indptr[i], self.indptr[i + 1]
            terms = [(self.var_ids[j], float(c)) for j, c in zip(self.indices[lo:hi], self.data[lo:hi])]
            yield LinearConstraint(self.row_names[i], terms, _SENSE_TEXT[self.senses[i]], float(self.rhs[i]))

    # ------------------------------------------------------------ text dump

    def to_text(self, file) -> None:
        """Plain-text dump to ``file``, a path or an open handle: objective,
        one constraint per line, bounds."""
        with open_text(file, "w") as fh:
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
    def from_text(cls, file, name: str = "dump") -> "LpProblem":
        """Inverse of ``to_text``.  A malformed line raises
        InvalidParameterError naming its line number."""
        with open_text(file) as fh:
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
        csr = (
            np.array([c for terms in row_cols for _, c in terms], dtype=float),
            np.array([j for terms in row_cols for j, _ in terms], dtype=np.int64),
            np.cumsum([0] + [len(terms) for terms in row_cols], dtype=np.int64),
        )
        senses = np.array([sense for _, _, sense, _ in rows], dtype=np.int8)
        rhs = np.array([b for _, _, _, b in rows], dtype=float)
        row_names = [rname for rname, _, _, _ in rows]
        return cls(name, var_ids, obj, offset, csr, senses, rhs, row_names, lb=lb, ub=ub)


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
    """Variable values aligned with an LpProblem's column order.
    ``columns`` is the LP's ``Columns`` (a VarId list is taken too), so a
    solver's point carries the column blocks, and ``var_ids`` is made from
    them only when read."""

    columns: Columns
    values: np.ndarray
    objective_value: float
    status: str  # optimal | infeasible | unbounded | feasible

    def __post_init__(self):
        self.columns = Columns.of(self.columns)
        self.values = np.asarray(self.values, dtype=float)

    @property
    def var_ids(self) -> list[VarId]:
        return self.columns.var_ids

    def value(self, vid: VarId) -> float:
        return float(self.values[self.columns.col_index[vid]])

    def __getitem__(self, key) -> float:
        if isinstance(key, VarId):
            return self.value(key)
        t = canonical_tuple(key)
        if VarId("tuple", t) in self.columns.col_index:
            return self.value(VarId("tuple", t))
        return self.value(VarId("pair", t))

    def keyed(self, kind: str, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The keys (an (m, k) array) and values of the ``kind`` columns
        with k-vertex keys, in column order."""
        none = (np.empty(0, dtype=np.int64), np.empty((0, k), dtype=np.int64))
        cols, keys = self.columns.groups.get((kind, k), none)
        return keys, self.values[cols]

    def tuple_values(self, k: int) -> dict[KTuple, float]:
        keys, values = self.keyed("tuple", k)
        return dict(zip(map(tuple, keys.tolist()), values.tolist()))

    def pair_values(self) -> dict[KTuple, float]:
        keys, values = self.keyed("pair", 2)
        return dict(zip(map(tuple, keys.tolist()), values.tolist()))

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


def _emit_rows(groups) -> tuple[tuple, np.ndarray, np.ndarray]:
    """CSR triple (data, indices, indptr), senses and rhs of the ``<= 0``
    rows of ``groups``.

    A group is (cols, coeffs, widths): ``cols`` an (m, W) array of column
    indices, ``coeffs`` the W coefficients and ``widths`` the lengths of
    the rows (summing to W) that each of its m entries writes over its own
    columns, in order.  Groups follow one another."""
    groups = [(np.asarray(c, dtype=np.int64).reshape(-1, len(w)), w, r) for c, w, r in groups]
    lengths = np.concatenate([[0], *(np.tile(r, len(c)) for c, _, r in groups)]).astype(np.int64)
    data = np.concatenate([[], *(np.tile(np.asarray(w, dtype=float), len(c)) for c, w, _ in groups)])
    indices = np.concatenate([np.empty(0, dtype=np.int64), *(c.ravel() for c, _, _ in groups)])
    m = len(lengths) - 1
    return (data, indices, np.cumsum(lengths)), np.full(m, _SENSE_CODE["<="], dtype=np.int8), np.zeros(m)


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


def build_lp1_core(weights: MotifWeights, n: int) -> LpProblem:
    """``build_lp1`` without its Upsilon rows: the tuple columns and the
    objective.  The census keeps the closed-form "upsilon" count;
    ``add_upsilon_rows`` appends the rows a solve needs.  That count is
    capped at ``LP1_DEFAULT_CONSTRAINT_CAP``."""
    _check_weights_n(weights, n)
    k = weights.k
    est = count_upsilon(n, k)
    if est > LP1_DEFAULT_CONSTRAINT_CAP:
        raise SizeLimitError(f"LP1 would need {est} constraints (cap {LP1_DEFAULT_CONSTRAINT_CAP})")
    table = weights.tuple_table()
    return LpProblem(
        f"lp1_n{n}_k{k}", Columns([("tuple", table.tuples)]), 2.0 * table.wplus - 1.0, float((1.0 - table.wplus).sum()),
        (np.empty(0), np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64)), np.empty(0, dtype=np.int8),
        np.empty(0), [],
        census={"upsilon": est, "upsilon_active": 0},
    )


def build_lp1(weights: MotifWeights, n: int) -> LpProblem:
    """LP over tuple variables only, with the Upsilon family
    x_{K3} <= x_{K1} + x_{K2}.  Grows Θ(n^{2k-1}); capped (``build_lp1_core``)."""
    core = build_lp1_core(weights, n)
    cols = np.concatenate([block for _, block in _upsilon_rows(n, weights.k)])
    rows, senses, rhs = _emit_rows([(cols, (1.0, -1.0, -1.0), (3,))])
    m = len(cols)  # the row-name function keeps the count, not the rows
    return core.derive(rows, senses, rhs, lambda: [upsilon_row_name(i) for i in range(m)], {"upsilon": m})


def upsilon_row_name(i: int, *cols: int) -> str:
    """Row name of the Upsilon row at index ``i`` of ``build_lp1`` (its
    columns ``cols``, as ``separate_upsilon`` lists them, do not enter)."""
    return f"ups{i}"


_UPSILON_BLOCK = 1 << 14  # tuple pairs (K1, K2) examined per block


def _upsilon_rows(n: int, k: int, keep=None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The Upsilon rows over the k-subsets of 1..n in ``build_lp1``'s
    order, a block at a time: (the rows' indices in ``build_lp1``, an
    (m, 3) array of their columns of x_K3, x_K1, x_K2).  A column is its
    tuple's lexicographic rank.

    The rows come from the pairs K1 < K2 that share a vertex, in order;
    each pair gives one row per k-subset K3 of K1 ∪ K2 other than K1 and
    K2, in lexicographic order.  ``keep(K1, K2)``, given the column arrays
    of a block's pairs, masks the pairs whose rows are wanted (default:
    all).  A block holds the pairs of a run of K1 (about
    ``_UPSILON_BLOCK`` candidate pairs), handled at once per overlap size,
    so the full row list is never held.
    """
    T = math.comb(n, k)
    member = np.zeros((T, n + 1))  # member[t, v] = 1 if vertex v is in tuple t
    np.put_along_axis(member, np.array(list(combinations(range(1, n + 1), k))).reshape(T, k), 1.0, axis=1)
    inside = member > 0
    # lexicographic rank = C(n,k) - 1 - sum over positions c of C(n - v_c, k - c)
    binom = np.array([[math.comb(a, b) for b in range(k + 1)] for a in range(n + 1)], dtype=float)
    term = binom[n - np.arange(n + 1)[:, None], k - np.arange(k)]  # (vertex, position)
    pick_terms, width = {}, np.zeros(k, dtype=np.int64)  # per overlap s = |K1 ∩ K2|
    for s in range(1, k):
        # the k-subsets of the 2k-s union as a 0/1 matrix that sums their terms
        subsets = list(combinations(range(2 * k - s), k))
        sel = np.zeros((2 * k - s, k, len(subsets)))
        for r, positions in enumerate(subsets):
            sel[positions, range(k), r] = 1.0
        pick_terms[s] = sel.reshape(-1, len(subsets))
        width[s] = len(subsets) - 2  # K1 and K2 are among them
    first = 0
    step = max(1, _UPSILON_BLOCK // T)
    for lo in range(0, T, step):
        shared = np.triu(member[lo : lo + step] @ member.T, lo + 1)  # K2 after K1 only
        i, j = np.nonzero(shared)
        s = shared[i, j].astype(np.int64)
        i += lo
        counts = width[s]
        ids = first + np.cumsum(counts) - counts  # of each pair's first row
        first += int(counts.sum())
        if keep is not None:
            wanted = keep(i, j)
            i, j, s, counts, ids = i[wanted], j[wanted], s[wanted], counts[wanted], ids[wanted]
        starts = np.cumsum(counts) - counts
        ids = np.repeat(ids - starts, counts) + np.arange(int(counts.sum()))
        cols = np.empty((len(ids), 3), dtype=np.int64)
        for overlap, sel in pick_terms.items():
            pick = np.nonzero(s == overlap)[0]
            K1, K2 = i[pick], j[pick]
            union = np.flatnonzero(inside[K1] | inside[K2]) % (n + 1)  # each pair's, ascending
            terms = np.take(term, union, axis=0).reshape(len(pick), len(sel))
            rank = (binom[n, k] - 1 - terms @ sel).astype(np.int64)
            at = (starts[pick, None] + np.arange(width[overlap])).ravel()
            cols[at, 0] = rank[(rank != K1[:, None]) & (rank != K2[:, None])]
            cols[at, 1] = np.repeat(K1, width[overlap])
            cols[at, 2] = np.repeat(K2, width[overlap])
        yield ids, cols


def separate_upsilon(problem: LpProblem, values: np.ndarray, tol: float) -> np.ndarray:
    """The Upsilon rows x_K3 <= x_K1 + x_K2 that the point ``values``
    violates by more than ``tol``, as (i, K3, K1, K2) rows: the row's index
    in ``build_lp1`` and its three columns, in that order; rows already in
    ``problem`` included.

    The violation is evaluated as (x_K3 - x_K1) - x_K2, the order in which
    a row's sparse product sums its terms, so the result equals the set of
    rows with ``A_ups @ x - rhs > tol``.  Only the pairs (K1, K2) with
    (max x - x_K1) - x_K2 > tol can have such a row (rounding is monotone,
    so this holds in floating point too), and only their rows are
    enumerated (``_upsilon_rows``).  An LP whose census has no "upsilon"
    family has no Upsilon rows to violate.
    """
    if "upsilon" not in problem.census:
        return np.empty((0, 4), dtype=np.int64)
    ((_, tuples),) = problem.columns.groups.values()  # LP1's columns: the k-tuples of 1..n in order
    x = np.asarray(values, dtype=float)
    top = x.max()
    found = [np.empty((0, 4), dtype=np.int64)]
    for ids, cols in _upsilon_rows(int(tuples[-1, -1]), tuples.shape[1], lambda K1, K2: (top - x[K1]) - x[K2] > tol):
        hit = np.nonzero((x[cols[:, 0]] - x[cols[:, 1]]) - x[cols[:, 2]] > tol)[0]
        found.append(np.column_stack([ids[hit], cols[hit]]))
    return np.concatenate(found)


def add_upsilon_rows(core: LpProblem, rows: np.ndarray) -> LpProblem:
    """``core`` with the Upsilon rows ``rows`` appended in the given order,
    each an (i, K3, K1, K2) row as ``separate_upsilon`` lists it and named
    as row i of ``build_lp1``.  The census's ``upsilon_active`` counts them."""
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, 4)
    return _append_rows(core, rows[:, 1:], "upsilon_active", rows, upsilon_row_name)


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


def _names(source, rows: np.ndarray | None = None, added=(), name=None) -> list[str]:
    """Row names from a list or the function formatting them, at ``rows``,
    then ``name(a)`` for each ``a`` of ``added``."""
    names = source() if callable(source) else source
    names = names if rows is None else [names[i] for i in rows.tolist()]
    return names + [name(*a) for a in np.asarray(added).tolist()]


def triangle_row_name(a: int, b: int, c: int, apex: int) -> str:
    """Row name of the triangle row (a, b, c, apex), as ``all_triangles`` and ``separate_triangles`` list it."""
    return f"tri_{a}_{b}_{c}_a{apex}"


def _triples(n: int) -> np.ndarray:
    """The C(n,3) triples a < b < c of 1..n as rows, in lexicographic order."""
    v = np.arange(n)
    return np.argwhere((v[:, None, None] < v[:, None]) & (v[:, None] < v)) + 1


def all_triangles(n: int) -> np.ndarray:
    """Every triangle row of the metric on 1..n as (a, b, c, apex) rows,
    a < b < c, in canonical order: triples lexicographic, then apex a, b, c."""
    abc = _triples(n)
    return np.column_stack([np.repeat(abc, 3, axis=0), abc.ravel()])


def _pair_column_matrix(columns) -> np.ndarray | None:
    """Symmetric (n+1)x(n+1) matrix of z-column indices (-1 where there is
    no z variable), or None for columns without pair variables.
    ``columns`` is a ``Columns`` or a VarId list."""
    cols, pairs = Columns.of(columns).groups.get(("pair", 2), ((), None))
    if not len(cols):
        return None
    n = int(pairs.max())
    zc = np.full((n + 1, n + 1), -1, dtype=np.int64)
    zc[pairs[:, 0], pairs[:, 1]] = zc[pairs[:, 1], pairs[:, 0]] = cols
    return zc


def _append_rows(core: LpProblem, cols: np.ndarray, active: str, labels: np.ndarray, name) -> LpProblem:
    """``core`` with one row x_a <= x_b + x_c appended per (a, b, c) row of
    column indices ``cols``, the row of ``labels[i]`` named
    ``name(*labels[i])``; the census family ``active`` counts them."""
    if not len(cols):
        return core
    (data, indices, indptr), senses, rhs = _emit_rows([(cols, (1.0, -1.0, -1.0), (3,))])
    return core.derive(
        (
            np.concatenate([core.data, data]),
            np.concatenate([core.indices, indices]),
            np.concatenate([core.indptr, core.indptr[-1] + indptr[1:]]),
        ),
        np.concatenate([core.senses, senses]),
        np.concatenate([core.rhs, rhs]),
        partial(_names, core._row_names, added=labels, name=name),
        dict(core.census, **{active: core.census.get(active, 0) + len(cols)}),
    )


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
    return _append_rows(core, cols, "triangle_active", tri, triangle_row_name)


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
    abc = problem.triples
    ab, ac, bc = Z.ravel()[problem._triples[1]]
    # apex a: z_bc <= z_ab + z_ac; apex b: z_ac <= z_ab + z_bc; apex c: z_ab <= z_ac + z_bc
    viol = np.column_stack([(bc - ab) - ac, (ac - ab) - bc, (ab - ac) - bc]) > tol
    t, apex = np.nonzero(viol)
    return np.column_stack([abc[t], abc[t, apex]])


class TupleLift:
    """Maps a point of an LP built without its zero-cost tuple columns
    (``drop_zero_cost_tuples``, ``build_lp3_core``) back onto the full
    LP's ``columns``: every left-out x_K becomes max over the pairs uv of K
    of z_uv, every other value is kept."""

    def __init__(self, columns: Columns, kept: np.ndarray, dropped: np.ndarray, zc: np.ndarray | None):
        self.columns = columns
        self.kept = kept  # full-LP columns of the reduced LP, in its order
        self.dropped = dropped  # full-LP columns left out
        self._groups = []  # (tuple columns, their pair columns) per tuple size
        self._keys = []  # the left-out tuples per tuple size
        left = np.zeros(len(columns), dtype=bool)
        left[dropped] = True
        for (kind, k), (cols, tup) in sorted(columns.groups.items()):
            if kind == "tuple" and left[cols].any():
                cols, tup = cols[left[cols]], tup[left[cols]]
                i, j = np.array(list(combinations(range(k), 2))).T
                self._groups.append((cols, zc[tup[:, i], tup[:, j]]))
                self._keys.append(tup)

    def left_out_rows(self, values: np.ndarray) -> tuple[np.ndarray, Callable[[], list[str]]]:
        """The left-out columns' own rows at ``values``, a point of
        ``columns``, in the full LP's order, without building them: each
        row's activity (every row is ``<= 0``) summed in the order of its
        product, z_uv - x_K per pair uv of K, then ((k-1)·x_K - z_uv) - ...,
        and a function listing the rows' names."""
        gaps = [np.empty(0)]
        for (cols, pair_cols), tup in zip(self._groups, self._keys):
            x, z = values[cols], values[pair_cols]
            total = (tup.shape[1] - 1) * x
            for col in z.T:
                total = total - col
            gaps.append(np.column_stack([z - x[:, None], total]).ravel())
        return np.concatenate(gaps), partial(_pair_row_names, self._keys)

    def __call__(self, solution: FractionalSolution) -> FractionalSolution:
        values = np.zeros(len(self.columns))
        values[self.kept] = solution.values
        for cols, pair_cols in self._groups:
            values[cols] = values[pair_cols].max(axis=1)
        return FractionalSolution(self.columns, values, solution.objective_value, solution.status)


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
    drop = np.zeros(core.num_vars, dtype=bool)
    for (kind, _), (cols, _) in core.columns.groups.items():
        drop[cols] = kind == "tuple" and zc is not None
    drop &= core.obj == 0.0
    kept, dropped = np.nonzero(~drop)[0], np.nonzero(drop)[0]
    lift = TupleLift(core.columns, kept, dropped, zc)
    if not len(dropped):
        return core, lift
    entry_rows = core._entry_rows()
    touched = np.bincount(entry_rows[drop[core.indices]], minlength=core.num_rows) > 0
    rows, entries = np.nonzero(~touched)[0], ~touched[entry_rows]
    sub = (
        core.data[entries],
        (np.cumsum(~drop) - 1)[core.indices[entries]],  # kept column j becomes its rank among the kept
        np.concatenate([[0], np.cumsum(np.diff(core.indptr)[rows])]),
    )
    names = partial(_names, core._row_names, rows)
    reduced = core.derive(sub, core.senses[rows], core.rhs[rows], names, core.census, keep=kept)
    return reduced, lift


def build_lp2(weights: MotifWeights, n: int) -> LpProblem:
    """Tuple variables tied to a pair pseudometric z: the LP3 of the single
    layer ``weights``.  Polynomial row count Θ(C(n,k)·C(k,2) + C(n,3))."""
    return build_lp3(MixedWeights.single(weights), n)


def build_lp3(mixed: MixedWeights, n: int) -> LpProblem:
    """Multi-layer LP: per-layer tuple variables (k >= 3) over one shared
    pair metric; a k=2 layer contributes objective terms on z directly.
    Every one of the 3·C(n,3) triangle rows is materialized."""
    return add_triangle_rows(build_lp3_core(mixed, n), all_triangles(n))


def build_lp3_core(mixed: MixedWeights, n: int, *, drop_zero_cost: bool = False) -> LpProblem:
    """``build_lp3`` without its triangle rows: the variables, objective and
    tuple-row families.  The census keeps the closed-form "triangle" count;
    ``add_triangle_rows`` appends the rows a solve needs.

    With ``drop_zero_cost`` the tuple columns of objective coefficient 0
    and their rows are never built: the LP is ``drop_zero_cost_tuples`` of
    the core, column for column and row for row, and its ``lift`` is that
    function's ``TupleLift``.  The full LP's row count is capped at
    ``LP2_DEFAULT_CONSTRAINT_CAP``."""
    for layer in mixed:
        _check_weights_n(layer.weights, n)
    est = 3 * math.comb(n, 3) + sum(
        math.comb(n, l.k) * (math.comb(l.k, 2) + 1) for l in mixed if l.k >= 3
    )
    if est > LP2_DEFAULT_CONSTRAINT_CAP:
        raise SizeLimitError(f"LP3 would need {est} rows (cap {LP2_DEFAULT_CONSTRAINT_CAP})")
    tuples, costs, offset = {}, {}, 0.0  # per layer size, k = 2 for the pairs
    for layer in mixed:
        table = layer.weights.tuple_table()  # a k=2 layer's table lists the pairs in z-column order
        tuples[layer.k], costs[layer.k] = table.tuples, layer.lam * (2.0 * table.wplus - 1.0)
        offset += layer.lam * float((1.0 - table.wplus).sum())
    tuples[2] = np.argwhere(np.triu(np.ones((n, n), dtype=bool), 1)) + 1  # u < v, lexicographic
    costs.setdefault(2, np.zeros(len(tuples[2])))
    sizes = sorted(tuples, key=lambda k: (k == 2, k))  # tuple columns layer by layer, then the pairs
    keep = {k: (costs[k] != 0.0) | (k == 2 or not drop_zero_cost) for k in sizes}
    columns = Columns([("pair" if k == 2 else "tuple", tuples[k][keep[k]]) for k in sizes])
    obj = 0.0 + np.concatenate([costs[k][keep[k]] for k in sizes])  # 0.0 + c: a cost of -0.0 reads 0.0
    zc = _pair_column_matrix(columns)
    base = np.cumsum([0] + [len(keys) for _, keys in columns.blocks])
    tables = [keys for _, keys in columns.blocks[:-1]]
    rows, senses, rhs = _emit_rows([_emit_pair_rows(t, start, zc) for t, start in zip(tables, base.tolist()) if len(t)])
    census: dict[str, int] = {
        "pair_floor": sum(len(tuples[k]) * math.comb(k, 2) for k in sizes[:-1]),
        "pair_sum_cap": sum(len(tuples[k]) for k in sizes[:-1]),
        "unit_cap": sum(len(tuples[k]) for k in sizes[:-1]),
    }
    census = {**(census if len(sizes) > 1 else {}), "triangle": 3 * math.comb(n, 3), "triangle_active": 0}
    ks = "-".join(str(l.k) for l in mixed)
    names = partial(_pair_row_names, tables)
    core = LpProblem(f"lp3_n{n}_k{ks}", columns, obj, offset, rows, senses, rhs, names, census=census)
    core.pair_columns = zc  # built above from the same columns
    if drop_zero_cost:
        left = ~np.concatenate([keep[k] for k in sizes])
        full = Columns([("pair" if k == 2 else "tuple", tuples[k]) for k in sizes])
        core.lift = TupleLift(full, np.nonzero(~left)[0], np.nonzero(left)[0], np.where(zc >= 0, zc + left.sum(), -1))
    return core


# ------------------------------------------------------- points & objective


def induced_point(partition: Partition, problem: LpProblem) -> FractionalSolution:
    """The integral feasible point of a partition: x_K = [K split],
    z_uv = [u, v in different clusters]."""
    labels = np.array([0, *partition.labels_array()], dtype=np.int64)
    values = np.empty(problem.num_vars)
    for (kind, _), (cols, keys) in problem.columns.groups.items():
        if kind == "named":
            raise InvalidParameterError(f"cannot induce a value for free variable {keys[0, 0]}")
        if ((keys < 1) | (keys > partition.n)).any():
            raise InvalidVertexError(f"column key outside [1..{partition.n}]")
        values[cols] = kernels.split_mask(keys, labels)
    objective = float(problem.obj @ values) + problem.offset
    return FractionalSolution(problem.columns, values, objective, "feasible")


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
