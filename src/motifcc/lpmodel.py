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

The objective Σ [w+·x + w-·(1-x)] is stored as coefficients (2w+ - 1) plus
an explicit constant ``offset`` (Σ w-), so LP objective values are directly
comparable with ``evaluate_objective`` on integral partitions.

x_K <= 1 caps are carried as variable upper bounds (smaller basis), but the
problem's ``census`` counts them as the structural family "unit_cap" so the
census total matches the closed-form constraint counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator

import numpy as np
import scipy.sparse as sp

from .errors import InvalidParameterError, SizeLimitError
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
    family "unit_cap" is realized as variable bounds rather than rows.
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
        row_names: list[str],
        census: dict[str, int] | None = None,
        lb: np.ndarray | None = None,
        ub: np.ndarray | None = None,
    ):
        self.name = name
        self.var_ids = list(var_ids)
        self.col_index = {vid: j for j, vid in enumerate(self.var_ids)}
        if len(self.col_index) != len(self.var_ids):
            raise InvalidParameterError("duplicate variable ids")
        self.obj = np.asarray(obj, dtype=float)
        self.offset = float(offset)
        self.A = rows.tocsr()
        self.senses = np.asarray(senses, dtype=np.int8)
        self.rhs = np.asarray(rhs, dtype=float)
        self.row_names = list(row_names)
        self.census = dict(census or {})
        n = len(self.var_ids)
        self.lb = np.zeros(n) if lb is None else np.asarray(lb, dtype=float)
        self.ub = np.ones(n) if ub is None else np.asarray(ub, dtype=float)
        if self.A.shape != (len(self.rhs), n):
            raise InvalidParameterError(
                f"matrix shape {self.A.shape} inconsistent with {len(self.rhs)} rows, {n} vars"
            )

    @property
    def num_vars(self) -> int:
        return len(self.var_ids)

    @property
    def num_rows(self) -> int:
        return self.A.shape[0]

    @property
    def structural_constraint_count(self) -> int:
        """Census total, including cap families carried as bounds."""
        return sum(self.census.values())

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
        close = False
        if isinstance(fh, (str, bytes)):
            fh = open(fh, "w", encoding="utf-8")
            close = True
        try:
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
        finally:
            if close:
                fh.close()

    @classmethod
    def from_text(cls, fh, name: str = "dump") -> "LpProblem":
        """Inverse of ``to_text``.  A malformed line raises
        InvalidParameterError naming its line number."""
        close = False
        if isinstance(fh, (str, bytes)):
            fh = open(fh, encoding="utf-8")
            close = True
        try:
            lines = list(fh)
        finally:
            if close:
                fh.close()
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
        self._index = {vid: j for j, vid in enumerate(self.var_ids)}

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
        names = list(d["values"])
        return cls(
            [VarId.from_name(nm) for nm in names],
            np.array([d["values"][nm] for nm in names], dtype=float),
            float(d["objective_value"]),
            str(d["status"]),
        )


# --------------------------------------------------------------- row builder


class _RowBuilder:
    def __init__(self, num_vars: int):
        self.num_vars = num_vars
        self.indices: list[int] = []
        self.data: list[float] = []
        self.indptr: list[int] = [0]
        self.senses: list[int] = []
        self.rhs: list[float] = []
        self.names: list[str] = []

    def add(self, name: str, cols: Iterable[int], coeffs: Iterable[float], sense: str, rhs: float):
        self.indices.extend(cols)
        self.data.extend(coeffs)
        self.indptr.append(len(self.indices))
        self.senses.append(_SENSE_CODE[sense])
        self.rhs.append(rhs)
        self.names.append(name)

    def build(self) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray, list[str]]:
        A = sp.csr_matrix(
            (
                np.array(self.data, dtype=float),
                np.array(self.indices, dtype=np.int64),
                np.array(self.indptr, dtype=np.int64),
            ),
            shape=(len(self.rhs), self.num_vars),
        )
        return A, np.array(self.senses, dtype=np.int8), np.array(self.rhs, dtype=float), self.names


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


def _tuple_list(weights: MotifWeights) -> list[KTuple]:
    return list(map(tuple, weights.tuple_table().tuples.tolist()))


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
    tuples = _tuple_list(weights)
    var_ids = [VarId("tuple", t) for t in tuples]
    col = {t: j for j, t in enumerate(tuples)}
    wplus = weights.tuple_table().wplus
    obj = 2.0 * wplus - 1.0
    offset = float((1.0 - wplus).sum())
    rows = _RowBuilder(len(var_ids))
    tsets = [frozenset(t) for t in tuples]
    count = 0
    for i in range(len(tuples)):
        si = tsets[i]
        for j in range(i + 1, len(tuples)):
            if not (si & tsets[j]):
                continue
            union = sorted(si | tsets[j])
            for k3 in combinations(union, k):
                if k3 == tuples[i] or k3 == tuples[j]:
                    continue
                rows.add(
                    f"ups{count}",
                    (col[k3], col[tuples[i]], col[tuples[j]]),
                    (1.0, -1.0, -1.0),
                    "<=",
                    0.0,
                )
                count += 1
    A, senses, rhs, names = rows.build()
    return LpProblem(
        f"lp1_n{n}_k{k}", var_ids, obj, offset, A, senses, rhs, names, census={"upsilon": count}
    )


def _emit_pair_rows(
    rows: _RowBuilder, tuples: list[KTuple], base: int, zcol: dict[KTuple, int], k: int
) -> None:
    """Per-tuple families: z_uv <= x_K for each pair, (k-1)x_K <= Σ z_uv;
    the variable x_K of ``tuples[i]`` is column ``base + i``."""
    for xj, t in enumerate(tuples, start=base):
        pair_cols = [zcol[p] for p in combinations(t, 2)]
        tn = "_".join(map(str, t))
        for p, zj in zip(combinations(t, 2), pair_cols):
            rows.add(f"pf_{tn}_{p[0]}_{p[1]}", (zj, xj), (1.0, -1.0), "<=", 0.0)
        rows.add(
            f"ps_{tn}",
            (xj, *pair_cols),
            (float(k - 1), *([-1.0] * len(pair_cols))),
            "<=",
            0.0,
        )


def _emit_triangle_rows(rows: _RowBuilder, n: int, zcol: dict[KTuple, int]) -> None:
    """All 3·C(n,3) metric rows: z_{bc} <= z_{ab} + z_{ac} for each apex."""
    for a, b, c in combinations(range(1, n + 1), 3):
        ab, ac, bc = zcol[(a, b)], zcol[(a, c)], zcol[(b, c)]
        rows.add(f"tri_{a}_{b}_{c}_a{a}", (bc, ab, ac), (1.0, -1.0, -1.0), "<=", 0.0)
        rows.add(f"tri_{a}_{b}_{c}_a{b}", (ac, ab, bc), (1.0, -1.0, -1.0), "<=", 0.0)
        rows.add(f"tri_{a}_{b}_{c}_a{c}", (ab, ac, bc), (1.0, -1.0, -1.0), "<=", 0.0)


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
    pair metric; a k=2 layer contributes objective terms on z directly."""
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
    layer_tuples: dict[int, list[KTuple]] = {}
    for layer in mixed:
        if layer.k < 3:
            continue
        base[layer.k] = len(var_ids)
        layer_tuples[layer.k] = _tuple_list(layer.weights)
        var_ids.extend(VarId("tuple", t) for t in layer_tuples[layer.k])
    zbase = len(var_ids)
    zcol = {p: zbase + j for j, p in enumerate(pairs)}
    var_ids.extend(VarId("pair", p) for p in pairs)
    obj = np.zeros(len(var_ids))
    offset = 0.0
    for layer in mixed:
        # a k=2 layer's table lists the pairs in z-column order
        wplus = layer.weights.tuple_table().wplus
        lo = base.get(layer.k, zbase)
        obj[lo : lo + len(wplus)] += layer.lam * (2.0 * wplus - 1.0)
        offset += layer.lam * float((1.0 - wplus).sum())
    rows = _RowBuilder(len(var_ids))
    census: dict[str, int] = {"pair_floor": 0, "pair_sum_cap": 0, "unit_cap": 0}
    for layer in mixed:
        if layer.k < 3:
            continue
        _emit_pair_rows(rows, layer_tuples[layer.k], base[layer.k], zcol, layer.k)
        census["pair_floor"] += len(layer_tuples[layer.k]) * math.comb(layer.k, 2)
        census["pair_sum_cap"] += len(layer_tuples[layer.k])
        census["unit_cap"] += len(layer_tuples[layer.k])
    _emit_triangle_rows(rows, n, zcol)
    census["triangle"] = 3 * math.comb(n, 3)
    if not any(l.k >= 3 for l in mixed):
        census = {"triangle": census["triangle"]}
    A, senses, rhs, names = rows.build()
    ks = "-".join(str(l.k) for l in mixed)
    return LpProblem(f"lp3_n{n}_k{ks}", var_ids, obj, offset, A, senses, rhs, names, census=census)


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
    n = partition.n
    if mixed.graph.n != n:
        raise InvalidParameterError(
            f"partition n={n} disagrees with weights' graph n={mixed.graph.n}"
        )
    labels = np.zeros(n + 1, dtype=np.int64)
    for v, c in partition.assignment.items():
        labels[v] = c
    return labels


def evaluate_objective(partition: Partition, mixed: MixedWeights) -> float:
    """Σ_t λ_t [Σ_{K split} w+_K + Σ_{K contained} w-_K] over all k_t-tuples."""
    labels = _labels(partition, mixed)
    total = 0.0
    for layer in mixed:
        table = layer.weights.tuple_table()
        total += layer.lam * kernels.partition_cost(table.tuples, table.wplus, labels)
    return float(total)


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
