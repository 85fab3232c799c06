"""Geometry of unsafe regions: point, ball, hyperrectangle, and polytope.

All sets are closed (the boundary counts as unsafe) and live in an
n-dimensional workspace. Each set type answers membership and Euclidean
distance queries, can be translated, and serializes to a compact payload:

    point           -> [c0, c1, ...]
    ball            -> [[c0, c1, ...], radius]
    hyperrectangle  -> [[lo0, ...], [hi0, ...]]
    polytope        -> [[[a00, ...], [a10, ...], ...], [b0, b1, ...]]

The payload layout is a wire contract shared with the trace format and must
stay stable. Every operation here is a pure function of its inputs.

Distance is closed-form for point, ball and hyperrectangle. For a polytope
it is the distance to the nearest point, which `Polytope.project` finds
exactly at every size with one nonnegative least-squares solve per point
outside, and one KKT solve per set of active rows; a payload with no
feasible point raises GeometryError there.

Each set also gives its `reference()` point, the one `moved_to` places, and
`entry_time(pos, vel)`, the first time a straight-line course enters it, in
closed form; evaluation's time to collision reads both. A point or ball
solves a quadratic (`ball_entry_time`); a hyperrectangle, as its 2 * dim
faces, and a polytope intersect their half-space times in one slab function.

Axis-aligned boxes (the reach boxes of ReachRta) are tested against every
set kind by `box_intersects`. It is exact in closed form for point, ball and
hyperrectangle. For a polytope it first tries two exact shortcuts (a row
whose minimum over the box exceeds its offset; the box centre inside) and
otherwise decides with a linear feasibility program. `box_distance` gives
the box gap in closed form and has none for a polytope.

scipy is imported inside `Polytope._feasible` (the emptiness and box LPs)
and `Polytope.project` only, so a process whose sets hold no polytope never
loads it; importing scipy.optimize costs about half a second.

Membership and the box test take one query or a stack of them: `contains`
takes a point (dim,) or points (n, dim) and answers whether the set holds
any of them; `box_intersects` takes corners (dim,) or (n, dim) and answers
whether the set touches any of the boxes. One point is a stack of one, so
an RTA logic tests a whole predicted horizon against a set in one call.
`distance` and `entry_time` take one point (one course) and answer with a
float, or a stack (n, dim) and answer with an (n,) array, row k for query
k; so evaluation measures a whole trace against a set in one call.
`Polytope.project` takes one point and answers with its nearest point
(dim,), or a stack and answers with an (n, dim) stack. Each row rounds as
the same query alone does (see `row_dots`). `box_distance` takes one box.

Row-aligned stacks: `moved_to` (and `update_relative`) also take an (n, dim)
stack of references and return one set of n rows, row k moved to reference
k: a ball whose centre is an (n, dim) stack, a point or box whose
coordinates or corners are, a polytope whose offsets `b` are an (n, rows)
stack. `contains` and `box_intersects` test such a set against exactly n
points or boxes, row k against row k, and answer "any k". So an anchored set
is tested against a predicted horizon in one call, each predicted step
against the set where the anchor is predicted at that step. `distance` and
`entry_time` measure it against exactly n queries, row k against row k.
`Polytope.project` projects query row k onto set row k. `stack_sets`
stacks n parsed definitions the same way, from their own arrays (a ball's
radius then has one entry per row), so evaluation measures a set whose
payload changes along a trace in one call. `parse_column` builds the same
stacks from a column of payloads, one array per field over the runs of
equal payloads, and `repeat_rows` repeats a stack's rows so that several
agents are measured against it in one call. A stacked set is not a wire
payload: `payload` and another `moved_to` take one set and raise
GeometryError on a stack, and so do `distance`, `entry_time` and
`project` of one (dim,) query.
"""
from __future__ import annotations

import math
import reprlib
from itertools import chain, compress, islice
from operator import ne, sub

import numpy as np

SET_KINDS = ("point", "ball", "hyperrectangle", "polytope")


class GeometryError(ValueError):
    """Invalid set definition or malformed query."""


class DimensionMismatch(GeometryError):
    """Query point dimension does not match the set dimension."""

    def __init__(self, set_dim: int, point_dim: int):
        super().__init__(
            f"dimension mismatch: set has dimension {set_dim}, "
            f"point has dimension {point_dim}"
        )
        self.set_dim = set_dim
        self.point_dim = point_dim


def _not_numbers(what: str, x) -> GeometryError:
    """The error for a ragged or non-numeric query, which numpy would
    report without naming it."""
    return GeometryError(
        f"{what} must be numbers in a rectangular array, got {reprlib.repr(x)}"
    )


_PLAIN_NUMBERS = frozenset((float, int))


def plain_finite(values) -> bool:
    """Whether every entry of the sequence is exactly a float or an int (so
    not a bool) and finite as a float: one type test of the whole sequence
    and one finiteness test of its sum, which is finite only if every entry
    is. False for finite numbers whose sum overflows, so a caller falls
    back to a test per entry."""
    try:
        return _PLAIN_NUMBERS.issuperset(map(type, values)) and math.isfinite(sum(values))
    except OverflowError:  # an int too large for a float
        return False


def _vector(x, what: str = "vector") -> np.ndarray:
    if type(x) is list and x and plain_finite(x):  # a wire payload's: no numpy dispatch
        return np.array(x, dtype=float)
    try:
        v = np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise _not_numbers(what, x) from exc
    if v.ndim != 1 or v.size == 0:
        raise GeometryError(f"{what} must be a nonempty 1-D vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise GeometryError(f"{what} must be finite")
    return v


def _points(x, dim: int, what: str) -> np.ndarray:
    """`x` as one vector (dim,) or a stack (n, dim), whichever it is."""
    try:
        v = np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise _not_numbers(what, x) from exc
    if v.ndim not in (1, 2) or v.size == 0:
        raise GeometryError(
            f"{what} must be a nonempty vector or (n, dim) stack, got shape {v.shape}"
        )
    if v.shape[-1] != dim:
        raise DimensionMismatch(dim, v.shape[-1])
    if not np.isfinite(v).all():
        raise GeometryError(f"{what} must be finite")
    return v


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row k is a[k] @ b[k] for stacks (n, dim), rounded as that one
    product is: matmul of 1 x dim by dim x 1 blocks runs the same BLAS dot
    for each row, where (a * b).sum(axis=1) and einsum round differently."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def row_norms(d: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of d (n, dim); row k equals
    np.linalg.norm(d[k]) bit for bit."""
    return np.sqrt(row_dots(d, d))


def ball_entry_time(rel_pos: np.ndarray, rel_vel: np.ndarray, radius) -> np.ndarray:
    """Per row k of the stacks (n, dim), the smallest tau >= 0 with
    ||rel_pos[k] + rel_vel[k]*tau|| <= radius (one radius, or one per row);
    inf where the course never comes that close. Row k rounds as the
    scalar quadratic on that row alone."""
    c = row_dots(rel_pos, rel_pos) - radius * radius
    a = row_dots(rel_vel, rel_vel)
    b = 2.0 * row_dots(rel_pos, rel_vel)
    disc = b * b - 4.0 * a * c
    # Grazing contact can dip just below zero in floats.
    tolerance = -1e-12 * np.maximum(np.maximum(b * b, np.abs(4.0 * a * c)), 1.0)
    grazing = (disc < 0.0) & (disc > tolerance)
    missed = (disc < 0.0) & ~grazing
    # Rows where a == 0 or the course misses divide by zero or take a root
    # of a negative number; `never` drops them.
    with np.errstate(divide="ignore", invalid="ignore"):
        sq = np.sqrt(np.where(grazing, 0.0, disc))
        q = -0.5 * (b - sq)
        lo, hi = c / q, q / a
    first, second = np.where(hi < lo, hi, lo), np.where(hi < lo, lo, hi)
    root = np.where(first >= -1e-12, first, np.where(second >= -1e-12, second, np.inf))
    # b >= 0: both roots <= 0, the approaching times are in the past.
    never = (a == 0.0) | missed | (b >= 0.0)
    return np.where(c <= 0.0, 0.0, np.where(never, np.inf, np.where(root < 0.0, 0.0, root)))


def _slab_entry_time(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Per row k of the stacks (n, faces), the smallest tau >= 0 with
    h[k] * tau <= g[k] on every face; inf where there is none. For the
    course P + V tau against {x : Ax <= b}, g = b - A P and h = A V: each
    face bounds tau from one side, and the bounds are intersected
    (Cyrus and Beck, 1978). A face the course runs parallel to (h == 0)
    holds for every tau or none."""
    with np.errstate(divide="ignore", invalid="ignore"):  # h == 0 faces are masked
        tau = g / h
    t_lo = np.where(h < 0.0, tau, -np.inf).max(axis=1)
    t_lo = np.where(t_lo > 0.0, t_lo, 0.0)  # the floor: a -0.0 bound gives 0.0
    t_hi = np.where(h > 0.0, tau, np.inf).min(axis=1)
    blocked = ((h == 0.0) & (g < 0.0)).any(axis=1)
    return np.where(blocked | ~(t_lo <= t_hi), np.inf, t_lo)


def _one_or_rows(values: np.ndarray, one: bool):
    """A float for a query of one row, else the (n,) array."""
    return float(values[0]) if one else values


class SetDef:
    """Base class for unsafe-set definitions."""

    kind: str = "abstract"
    dim: int = 0
    rows: int | None = None  # n for a row-aligned stack of n sets (see module docstring)
    _row_fields: tuple[str, ...] = ()  # the arrays a stack holds one row of per set

    def contains(self, points) -> bool:
        """True iff the closed set holds the point (dim,), or any point of
        the stack (n, dim); a stack of n sets tests point k against set k."""
        raise NotImplementedError

    def distance(self, points):
        """Euclidean distance from the point (dim,) to the set (0 if
        inside); for points (n, dim), the array of their n distances, point
        k against set k of a stack."""
        raise NotImplementedError

    def moved_to(self, reference) -> "SetDef":
        """Translate the set so its reference point sits at `reference`
        (dim,); an (n, dim) stack of references gives a stack of n sets."""
        raise NotImplementedError

    def reference(self) -> np.ndarray:
        """The set's reference point (dim,), whose motion is the set's; for
        a stack of n sets, the (n, dim) stack of their points."""
        raise NotImplementedError

    def entry_time(self, pos, vel):
        """Smallest tau >= 0 with pos + vel * tau in the set, for one course
        (dim,); math.inf if the straight line never enters it. For courses
        (n, dim), the array of their n times, course k against set k of a
        stack."""
        raise NotImplementedError

    def _stacks_with(self, other: "SetDef") -> bool:
        """Whether `other`, of this kind, can be a row of one stack with
        this set."""
        return other.dim == self.dim

    def _box_gaps(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Gap between the set and each box of the stacks (n, dim); negative
        where a box reaches inside a ball."""
        raise GeometryError(f"box_distance has no closed form for a {self.kind}; "
                            f"use box_intersects")

    def _meets_boxes(self, lo: np.ndarray, hi: np.ndarray) -> bool:
        return bool(self._box_gaps(lo, hi).min() <= 0.0)

    def payload(self):
        """Serializable definition payload (see module docstring)."""
        self._one("a payload")
        return self._payload()

    def _payload(self):
        raise NotImplementedError

    def _one(self, what: str) -> None:
        if self.rows is not None:
            raise GeometryError(
                f"{what} takes one {self.kind}, got a stack of {self.rows}"
            )

    def _measured(self, points, what: str) -> tuple[np.ndarray, bool]:
        """`points` as an (n, dim) stack (see `_queries`), and whether it
        was one point (dim,), which only one set takes."""
        P = _points(points, self.dim, "point")
        if P.ndim == 1:
            self._one(what)
            return P[None, :], True
        return self._row_aligned(P, "point"), False

    def _courses(self, pos, vel) -> tuple[np.ndarray, np.ndarray, bool]:
        """Positions and velocities as (n, dim) stacks, and whether they
        were one course (dim,)."""
        P, one = self._measured(pos, "an entry time")
        V = self._queries(vel, "velocity")
        if V.shape != P.shape:
            raise GeometryError(f"got {P.shape[0]} positions but {V.shape[0]} velocities")
        return P, V, one

    def _queries(self, x, what: str) -> np.ndarray:
        """`x` as an (n, dim) stack, row-aligned with this set if it is one;
        one vector (dim,) is a stack of one."""
        q = _points(x, self.dim, what)
        return self._row_aligned(q[None, :] if q.ndim == 1 else q, what)

    def _row_aligned(self, q: np.ndarray, what: str) -> np.ndarray:
        if self.rows is not None and q.shape[0] != self.rows:
            raise GeometryError(
                f"{what} stack of {q.shape[0]} against a stack of {self.rows} sets"
            )
        return q

    def _destination(self, reference) -> np.ndarray:
        self._one("moved_to")
        return _points(reference, self.dim, "reference")

    def _moved(self, ref: np.ndarray, **fields: np.ndarray) -> "SetDef":
        """This set with the arrays that depend on its position replaced; a
        stack of n sets if `ref` is an (n, dim) stack of references."""
        for name, value in fields.items():
            if value is not ref and not np.isfinite(value).all():  # `ref` is checked
                raise GeometryError(f"moved {self.kind} {name} must be finite")
        return self._with(ref.shape[0] if ref.ndim == 2 else None, **fields)

    def _with(self, rows: int | None, **fields) -> "SetDef":
        """This set with some of its arrays replaced, as `rows` sets."""
        out = object.__new__(type(self))
        out.__dict__.update(self.__dict__, **fields)
        out.rows = rows
        return out


class PointSet(SetDef):
    """A single unsafe point. Its reference point is itself."""

    kind = "point"
    _row_fields = ("coords",)

    def __init__(self, coords):
        self.coords = _vector(coords, "point coordinates")
        self.dim = self.coords.shape[0]

    def contains(self, points) -> bool:
        P = self._queries(points, "point")
        return bool((P == self.coords).all(axis=1).any())

    def distance(self, points):
        P, one = self._measured(points, "a distance")
        return _one_or_rows(row_norms(P - self.coords), one)

    def moved_to(self, reference) -> "PointSet":
        ref = self._destination(reference)
        return self._moved(ref, coords=ref)

    def reference(self) -> np.ndarray:
        return self.coords

    def entry_time(self, pos, vel):
        P, V, one = self._courses(pos, vel)
        return _one_or_rows(ball_entry_time(P - self.coords, V, 0.0), one)

    def _box_gaps(self, lo, hi):
        c = self.coords
        return row_norms(c - np.minimum(np.maximum(c, lo), hi))

    def _payload(self):
        return [float(c) for c in self.coords]

    def __repr__(self):
        return f"PointSet({self.coords.tolist()})"


class Ball(SetDef):
    """Closed Euclidean ball. Its reference point is the center."""

    kind = "ball"
    _row_fields = ("center", "radius")  # a stack's radius is a scalar or one per row

    def __init__(self, center, radius):
        self.center = _vector(center, "ball center")
        self.radius = float(radius)
        if not 0 <= self.radius < math.inf:
            raise GeometryError(f"ball radius must be finite and >= 0, got {self.radius}")
        self.dim = self.center.shape[0]

    def contains(self, points) -> bool:
        P = self._queries(points, "point")
        return bool((row_norms(P - self.center) <= self.radius).any())

    def distance(self, points):
        P, one = self._measured(points, "a distance")
        gap = row_norms(P - self.center) - self.radius
        return _one_or_rows(np.where(gap > 0.0, gap, 0.0), one)

    def moved_to(self, reference) -> "Ball":
        ref = self._destination(reference)
        return self._moved(ref, center=ref)

    def reference(self) -> np.ndarray:
        return self.center

    def entry_time(self, pos, vel):
        P, V, one = self._courses(pos, vel)
        return _one_or_rows(ball_entry_time(P - self.center, V, self.radius), one)

    def _box_gaps(self, lo, hi):
        c = self.center
        return row_norms(c - np.minimum(np.maximum(c, lo), hi)) - self.radius

    def _payload(self):
        return [[float(c) for c in self.center], self.radius]

    def __repr__(self):
        return f"Ball(center={self.center.tolist()}, radius={self.radius})"


class Hyperrectangle(SetDef):
    """Axis-aligned box given by its lower and upper corners.

    Its reference point is the midpoint, so translation preserves the
    per-axis widths.
    """

    kind = "hyperrectangle"
    _row_fields = ("lower", "upper")

    def __init__(self, lower, upper):
        self.lower = _vector(lower, "lower corner")
        self.upper = _vector(upper, "upper corner")
        if self.lower.shape != self.upper.shape:
            raise GeometryError(f"lower corner has {self.lower.shape[0]} coordinates "
                                f"but upper corner has {self.upper.shape[0]}")
        if (self.lower > self.upper).any():
            raise GeometryError(
                f"lower corner must not exceed upper corner: "
                f"{self.lower.tolist()} vs {self.upper.tolist()}"
            )
        self.dim = self.lower.shape[0]

    def contains(self, points) -> bool:
        P = self._queries(points, "point")
        return bool(((P >= self.lower) & (P <= self.upper)).all(axis=1).any())

    def distance(self, points):
        P, one = self._measured(points, "a distance")
        return _one_or_rows(row_norms(P - np.clip(P, self.lower, self.upper)), one)

    def moved_to(self, reference) -> "Hyperrectangle":
        ref = self._destination(reference)
        half = (self.upper - self.lower) / 2.0
        return self._moved(ref, lower=ref - half, upper=ref + half)

    def reference(self) -> np.ndarray:
        return (self.lower + self.upper) / 2.0

    def entry_time(self, pos, vel):
        """The slab times of the 2 * dim faces x <= upper and -x <= -lower."""
        P, V, one = self._courses(pos, vel)
        g = np.concatenate((self.upper - P, P - self.lower), axis=1)
        return _one_or_rows(_slab_entry_time(g, np.concatenate((V, -V), axis=1)), one)

    def _box_gaps(self, lo, hi):
        return row_norms(np.maximum(0.0, np.maximum(self.lower - hi, lo - self.upper)))

    def _payload(self):
        return [[float(c) for c in self.lower], [float(c) for c in self.upper]]

    def __repr__(self):
        return f"Hyperrectangle({self.lower.tolist()}, {self.upper.tolist()})"


class Polytope(SetDef):
    """Convex polytope {x : Ax <= b} in half-space form.

    The base definition is interpreted in the anchor frame: translating by t
    maps b to b + A t. Nonemptiness is checked at construction with a linear
    feasibility program.

    Payloads read back from traces skip that check, so `project` checks its
    answer: a point that violates Ax <= b beyond 1e-9 * (1 + max|b|)
    raises GeometryError.
    """

    kind = "polytope"
    _row_fields = ("b",)  # a stack's rows share A

    def __init__(self, A, b, check_feasible: bool = True):
        self.A = np.asarray(A, dtype=float)
        if self.A.ndim != 2 or self.A.shape[0] < 1 or self.A.shape[1] < 1:
            raise GeometryError(
                f"constraint matrix must be 2-D with >= 1 row, got shape {self.A.shape}"
            )
        self.b = _vector(b, "offset vector")
        if self.b.shape[0] != self.A.shape[0]:
            raise GeometryError(
                f"constraint matrix has {self.A.shape[0]} rows "
                f"but offset vector has length {self.b.shape[0]}"
            )
        if not np.isfinite(self.A).all():
            raise GeometryError("constraint matrix must be finite")
        self.dim = self.A.shape[1]
        if check_feasible and not self._feasible():
            raise GeometryError("polytope is empty: Ax <= b has no solution")

    def _feasible(self, bounds=None) -> bool:
        """Whether some x with Ax <= b lies within the per-axis bounds
        (default: unbounded), by a HiGHS linear feasibility program."""
        from scipy.optimize import linprog

        res = linprog(
            c=np.zeros(self.dim),
            A_ub=self.A,
            b_ub=self.b,
            bounds=bounds if bounds is not None else [(None, None)] * self.dim,
            method="highs",
        )
        if res.status not in (0, 2):  # neither feasible nor infeasible
            raise GeometryError(f"polytope feasibility program failed: {res.message}")
        return res.status == 0

    def contains(self, points) -> bool:
        P = self._queries(points, "point")
        return bool((P @ self.A.T <= self.b).all(axis=1).any())

    def project(self, points) -> np.ndarray:
        """Nearest point of the polytope to the point (dim,), or to each
        point of a stack (n, dim), point k onto set k of a stack. Row k
        rounds as that point alone does: every product with the points is
        a matmul of per-row blocks (see `entry_time`).

        Least-distance programming (Lawson and Hanson, 1974, ch. 23): the
        nonnegative least-squares problem min ||E u - e_{n+1}||, u >= 0, with
        E = [-A^T; (A p - b)^T] has its positive multipliers on the rows
        active at the nearest point. The point is then the projection of p
        onto those rows' hyperplanes, from the KKT system of the rows, solved
        once for all points with the same active rows.
        """
        from scipy.optimize import nnls

        P, one = self._measured(points, "a projection")
        A = self.A
        b = np.broadcast_to(self.b, (len(P), len(A)))  # row k's offsets
        X = P.copy()
        out = np.flatnonzero(~(np.matmul(P[:, None, :], A.T)[:, 0, :] <= b).all(axis=1))
        if out.size:
            Q, b = P[out], b[out]
            E = np.empty((len(out), self.dim + 1, len(A)))  # each point's own matrix
            E[:, :-1] = -A.T
            E[:, -1] = np.matmul(A, Q[:, :, None])[:, :, 0] - b
            f = np.zeros(self.dim + 1)
            f[-1] = 1.0
            groups: dict[bytes, list[int]] = {}  # the points of each active set
            for k, Ek in enumerate(E):
                groups.setdefault((nnls(Ek, f)[0] > 0).tobytes(), []).append(k)
            for key, ks in groups.items():
                active = np.frombuffer(key, dtype=bool)
                rows = A[active]
                gram = rows @ rows.T
                rhs = np.matmul(rows, Q[ks][:, :, None]) - b[ks][:, active, None]
                try:
                    lam = np.linalg.solve(np.broadcast_to(gram, (len(ks),) + gram.shape), rhs)
                except np.linalg.LinAlgError:  # dependent rows: more than `dim` faces meet there
                    lam = np.array([np.linalg.lstsq(gram, r[:, 0])[0] for r in rhs])[:, :, None]
                X[out[ks]] = Q[ks] - np.matmul(rows.T, lam)[:, :, 0]
            tol = 1e-9 * (1.0 + np.abs(b).max(axis=1))
            if not (np.matmul(A, X[out][:, :, None])[:, :, 0] <= b + tol[:, None]).all():
                raise GeometryError("polytope projection found no feasible point; "
                                    "Ax <= b may have no solution")
        return X[0] if one else X

    def _stacks_with(self, other) -> bool:
        return np.array_equal(other.A, self.A)

    def distance(self, points):
        """The norm of each point's offset from its projection."""
        P, one = self._measured(points, "a distance")
        return _one_or_rows(row_norms(P - self.project(P)), one)

    def moved_to(self, reference) -> "Polytope":
        ref = self._destination(reference)
        # Translation of a nonempty polytope stays nonempty; no LP. A @ ref is
        # summed elementwise, not by a matrix product, so row k of a stack
        # rounds exactly as the set moved to reference k alone.
        return self._moved(ref, b=self.b + (self.A * ref[..., None, :]).sum(axis=-1))

    def reference(self) -> np.ndarray:
        """The translation t with A t nearest b, in the least-squares sense:
        `moved_to(r)` moves it by r when A has full column rank. A stack
        solves once per run of equal offset rows, each as that set alone:
        one solve over several offset rows rounds differently."""
        if self.rows is None:
            return np.linalg.lstsq(self.A, self.b, rcond=None)[0]
        b = self.b
        starts = np.flatnonzero(np.r_[True, (b[1:] != b[:-1]).any(axis=1)])
        refs = [np.linalg.lstsq(self.A, b[k], rcond=None)[0] for k in starts]
        return np.repeat(refs, np.diff(np.r_[starts, len(b)]), axis=0)

    def entry_time(self, pos, vel):
        """The slab times of the rows: row i holds while
        (A vel)_i tau <= (b - A pos)_i. matmul of A by (dim, 1) blocks
        rounds row k as A @ pos[k] alone, where pos @ A.T does not."""
        P, V, one = self._courses(pos, vel)
        g = self.b - np.matmul(self.A, P[:, :, None])[:, :, 0]
        return _one_or_rows(_slab_entry_time(g, np.matmul(self.A, V[:, :, None])[:, :, 0]), one)

    def _meets_boxes(self, lo, hi) -> bool:
        A = self.A
        # A row whose minimum over a box exceeds its offset separates the two.
        row_min = (A * np.where(A > 0, lo[:, None, :], hi[:, None, :])).sum(axis=2)
        b = np.broadcast_to(self.b, row_min.shape)  # row k's offsets
        live = ~(row_min > b).any(axis=1)
        lo, hi, b = lo[live], hi[live], b[live]
        if (((lo + hi) / 2.0) @ A.T <= b).all(axis=1).any():
            return True
        # Box k's program runs on row k's offsets, which a stack of sets varies.
        return any(Polytope(A, bk, check_feasible=False)._feasible(list(zip(l, h)))
                   for l, h, bk in zip(lo, hi, b))

    def _payload(self):
        return [
            [[float(c) for c in row] for row in self.A],
            [float(c) for c in self.b],
        ]

    def __repr__(self):
        return f"Polytope(A={self.A.tolist()}, b={self.b.tolist()})"


class RelativeSetSpec:
    """An unsafe set anchored to a moving agent.

    The base set is re-resolved every step so its reference point sits at
    `anchor position + offset`.
    """

    def __init__(self, set_id: str, base: SetDef, offset, anchor_id: str):
        if not set_id:
            raise GeometryError("set id must be nonempty")
        if not anchor_id:
            raise GeometryError("anchor agent id must be nonempty")
        if not isinstance(base, SetDef):
            raise GeometryError(f"base must be a SetDef, got {type(base).__name__}")
        self.set_id = set_id
        self.base = base
        self.offset = _vector(offset, "offset")
        if self.offset.shape[0] != base.dim:
            raise DimensionMismatch(base.dim, self.offset.shape[0])
        self.anchor_id = anchor_id

    def __repr__(self):
        return (
            f"RelativeSetSpec({self.set_id!r}, {self.base!r}, "
            f"offset={self.offset.tolist()}, anchor={self.anchor_id!r})"
        )


def update_relative(spec: RelativeSetSpec, anchor_position) -> SetDef:
    """Resolve a relative set against the anchor's position (dim,), or
    against an (n, dim) stack of positions as a row-aligned stack of n sets."""
    pos = _points(anchor_position, spec.offset.shape[0], "anchor position")
    return spec.base.moved_to(pos + spec.offset)


def stack_sets(defs: list[SetDef]) -> list[tuple[int, SetDef]]:
    """Definitions of one kind as row-aligned stacks, in order, each with
    the number of definitions it holds: definition k of a stack is its row
    k, the definitions' own arrays stacked. Definitions that are all one
    object give that set unstacked, for all of them: points (n, dim) measure
    against one set. A stack ends where a definition cannot share it: a
    changed dimension or polytope constraint matrix."""
    first = defs[0]
    if all(d is first for d in defs):
        return [(len(defs), first)]
    stacks, start = [], 0
    for k in range(1, len(defs) + 1):
        if k == len(defs) or not defs[start]._stacks_with(defs[k]):
            run = defs[start:k]
            fields = {f: np.array([getattr(d, f) for d in run]) for f in first._row_fields}
            stacks.append((len(run), run[0]._with(len(run), **fields)))
            start = k
    return stacks


_SET_CLASSES = {cls.kind: cls for cls in (PointSet, Ball, Hyperrectangle, Polytope)}


def repeat_rows(set_def: SetDef, m: int) -> SetDef:
    """A stack of n sets as a stack of m * n, row j * n + k set k, so that
    m queries per set are measured in one call; one set stays itself. A row
    field that is one value for the whole stack (a moved ball's radius)
    stays one value."""
    if set_def.rows is None:
        return set_def
    fields = {}
    for name in set_def._row_fields:
        value = getattr(set_def, name)
        if np.ndim(value):
            fields[name] = np.tile(value, (m,) + (1,) * (value.ndim - 1))
    return set_def._with(set_def.rows * m, **fields)


def parse_column(kind: str, payloads: list) -> list[tuple[int, SetDef]]:
    """The sets of a nonempty column of payloads, one per sample, as the
    row-aligned stacks that `stack_sets` makes of one `set_from_payload`
    per run of equal payloads; a column of one run gives that set
    unstacked. One pass over the runs' first payloads builds each field
    with one array and runs the constructors' checks on the arrays. A
    column that pass cannot take (a ragged or nested payload, an entry not
    exactly a float or an int, a value a constructor rejects) is parsed
    run by run, so it gives the same sets, or raises the same error."""
    stacks = _column_stacks(kind, payloads)
    if stacks is not None:
        return stacks
    defs, last = [], None
    for payload in payloads:
        if not defs or payload != last:
            set_def, last = set_from_payload(kind, payload), payload
        defs.append(set_def)
    return stack_sets(defs)


_LIST = frozenset((list,))
# The fields each kind's payload lists, and how deep each nests its numbers.
_PAYLOAD_FIELDS = {
    "point": (("coords", 1),),
    "ball": (("center", 1), ("radius", 0)),
    "hyperrectangle": (("lower", 1), ("upper", 1)),
    "polytope": (("A", 2), ("b", 1)),
}


def _plain_array(values: list, depth: int) -> np.ndarray | None:
    """The values as one float array (len(values), ...) if each is a
    rectangular list nested `depth` deep (a number at depth 0) of exactly
    floats and ints, not bools, all finite as floats; else None."""
    shape = [len(values)]
    for _ in range(depth):
        if not _LIST.issuperset(map(type, values)) or len(lengths := set(map(len, values))) != 1:
            return None
        shape.append(lengths.pop())
        values = list(chain.from_iterable(values))
    if not plain_finite(values):
        return None
    try:
        return np.array(values, dtype=float).reshape(shape)
    except OverflowError:  # ints too large for a float, whose sum is not
        return None


def _column_stacks(kind: str, payloads: list) -> list[tuple[int, SetDef]] | None:
    """`parse_column`'s one pass, or None for a column it cannot take."""
    layout = _PAYLOAD_FIELDS.get(kind)
    if layout is None:
        return None
    starts = [0, *compress(range(1, len(payloads)), map(ne, islice(payloads, 1, None), payloads))]
    heads = [payloads[k] for k in starts]
    if len(layout) == 1:
        parts = [heads]
    elif _LIST.issuperset(map(type, heads)) and set(map(len, heads)) == {2}:
        parts = list(zip(*heads))
    else:
        return None
    arrays = [_plain_array(part, depth) for part, (_, depth) in zip(parts, layout)]
    if any(a is None for a in arrays):
        return None
    fields = dict(zip((name for name, _ in layout), arrays))
    dim = arrays[0].shape[-1]
    if dim < 1:
        return None
    if kind == "polytope" and fields["b"].shape[1] != fields["A"].shape[1]:
        return None
    if kind == "ball" and (fields["radius"] < 0.0).any():
        return None
    if kind == "hyperrectangle" and (fields["lower"].shape != fields["upper"].shape
                                     or (fields["lower"] > fields["upper"]).any()):
        return None
    cls = _SET_CLASSES[kind]

    def one(i: int) -> SetDef:
        """The set of run i, as `set_from_payload` builds it."""
        out = object.__new__(cls)
        out.__dict__.update({name: a[i] for name, a in fields.items()}, dim=dim)
        if kind == "ball":
            out.radius = float(out.radius)
        return out

    if len(starts) == 1:
        return [(len(payloads), one(0))]
    # A stack's rows share the dimension (the arrays are rectangular) and,
    # for a polytope, the constraint matrix: a run whose matrix differs from
    # the one before begins a new stack.
    breaks = []
    if kind == "polytope":
        A = fields["A"]
        breaks = (np.flatnonzero((A[1:] != A[:-1]).any(axis=(1, 2))) + 1).tolist()
    bounds = [*starts, len(payloads)]  # run k covers samples bounds[k] to bounds[k + 1]
    stacks = []
    for i, j in zip([0, *breaks], [*breaks, len(starts)]):
        counts = list(map(sub, bounds[i + 1:j + 1], bounds[i:j]))
        rows = {name: np.repeat(fields[name][i:j], counts, axis=0) for name in cls._row_fields}
        n = bounds[j] - bounds[i]
        stacks.append((n, one(i)._with(n, **rows)))
    return stacks


def set_from_payload(kind: str, payload) -> SetDef:
    """Rebuild a SetDef from its wire payload."""
    try:
        if kind == "point":
            return PointSet(payload)
        if kind == "ball":
            center, radius = payload
            return Ball(center, radius)
        if kind == "hyperrectangle":
            lower, upper = payload
            return Hyperrectangle(lower, upper)
        if kind == "polytope":
            A, b = payload
            # No emptiness LP: a trace payload was checked when its set was
            # built, and a config caller (config._build_unsafe) runs the check.
            return Polytope(A, b, check_feasible=False)
    except GeometryError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise GeometryError(f"malformed {kind} payload: {exc}") from exc
    raise GeometryError(
        f"unknown set type {kind!r}; expected one of {', '.join(SET_KINDS)}"
    )


def _box_corners(set_def: SetDef, lower, upper) -> tuple[np.ndarray, np.ndarray]:
    """Corner stacks (n, dim) of one box or of n boxes, row-aligned with a
    stack of sets."""
    lo = set_def._queries(lower, "box lower corner")
    hi = set_def._queries(upper, "box upper corner")
    if lo.shape != hi.shape:
        raise GeometryError(
            f"got {lo.shape[0]} lower corners but {hi.shape[0]} upper corners"
        )
    if (lo > hi).any():
        raise GeometryError("box lower corner must not exceed upper corner")
    return lo, hi


def box_distance(set_def: SetDef, lower, upper) -> float:
    """Euclidean distance between a point, ball or hyperrectangle and one
    axis-aligned box, in closed form. Zero means the two intersect.

    A polytope has no closed form and raises GeometryError; test it with
    `box_intersects`.
    """
    lo, hi = _box_corners(set_def, lower, upper)
    if lo.shape[0] != 1:
        raise GeometryError(f"box_distance takes one box, got {lo.shape[0]}")
    return max(0.0, float(set_def._box_gaps(lo, hi)[0]))


def box_intersects(set_def: SetDef, lower, upper) -> bool:
    """Whether a set touches the closed axis-aligned box [lower, upper], or
    any box of the stacks lower, upper (n, dim).

    Point, ball and hyperrectangle: the closed-form gap of `box_distance`
    is exactly zero. Polytope {Ax <= b}: disjoint if some row's minimum over
    the box, sum_i a_i * (lo_i if a_i > 0 else hi_i), exceeds b; touching if
    the box centre satisfies Ax <= b; otherwise a linear feasibility program
    (HiGHS) over Ax <= b with lo <= x <= hi decides, within the solver's
    feasibility tolerance. On a stack the centre test runs on every box not
    ruled out before any program does, so a stack never needs more programs
    than testing its boxes one by one.
    """
    lo, hi = _box_corners(set_def, lower, upper)
    return set_def._meets_boxes(lo, hi)
