"""Geometry of unsafe regions: point, ball, hyperrectangle, and polytope.

All sets are closed (the boundary counts as unsafe) and live in an
n-dimensional workspace. Each set type answers membership and Euclidean
distance queries, can be translated, and serializes to a compact payload:

    point           -> [c0, c1, ...]
    ball            -> [[c0, c1, ...], radius]
    hyperrectangle  -> [[lo0, ...], [hi0, ...]]
    polytope        -> [[[a00, ...], [a10, ...], ...], [b0, b1, ...]]

Each class's `_fields` is its row of this table: the payload's fields in
order, named as its constructor's leading parameters, each with how deep its
numbers nest (0 a number, 1 a list, 2 a list of lists); a payload of one
field is that field bare. `payload`, `row_payloads` (of a stack),
`set_from_payload` and `parse_column` read the layout there. It is a wire
contract shared with the trace format and must stay stable. Every operation
here is a pure function of its inputs.

Distance is closed-form for point, ball and hyperrectangle. For a polytope
it is the distance to the nearest point, which `Polytope.project` finds
exactly at every size. One solver answers every polytope question: the dual
active-set method of Goldfarb and Idnani (`_nearest_points`), batched over
the points that share a set of active faces, finds the nearest point of
{Ax <= b} to each query, and whether the program is feasible, within one
tolerance, 1e-9 * (1 + max|b|). A polytope's emptiness check, its
projection and its box test are three uses of it, so a payload with no
feasible point raises GeometryError in `project`.

Each set also gives its `reference()` point, the one `moved_to` places, and
`entry_time(pos, vel)`, the first time a straight-line course enters it, in
closed form; evaluation's time to collision reads both. A point or ball
solves a quadratic (`ball_entry_time`); a hyperrectangle, as its 2 * dim
faces, and a polytope intersect their half-space times in one slab function.

Axis-aligned boxes (the reach boxes of ReachRta) are tested against every
set kind by `box_intersects`. It is exact in closed form for point, ball and
hyperrectangle. For a polytope it first tries two exact shortcuts (a row
whose minimum over the box exceeds its offset; the box centre inside) and
otherwise projects the box centre onto the polytope cut by the box: the box
meets the polytope if that program is feasible. `box_distance` gives the
box gap in closed form and has none for a polytope.

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
`Polytope.project` projects query row k onto set row k. `parse_column`
builds such stacks from a column of payloads, one row per sample (a ball's
radius then has one entry per row) and one array per field over the runs
of equal payloads, so evaluation measures a set whose payload changes
along a trace in one call; a column has one dimension. `repeat_rows`
repeats a stack's rows so that several agents are measured against it in
one call. A stacked set is not a wire
payload: `payload` and another `moved_to` take one set and raise
GeometryError on a stack, and so do `distance`, `entry_time` and
`project` of one (dim,) query.
"""
from __future__ import annotations

import math
import reprlib
from itertools import compress, islice
from operator import ne

import numpy as np


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


def _vector(x, what: str = "vector") -> np.ndarray:
    try:
        v = np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise _not_numbers(what, x) from exc
    if v.ndim != 1 or v.size == 0:
        raise GeometryError(f"{what} must be a nonempty 1-D vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise GeometryError(f"{what} must be finite")
    return v


def _points(x, dim: int, what: str, finite: bool = True) -> np.ndarray:
    """`x` as one vector (dim,) or a stack (n, dim), whichever it is; with
    `finite` set, every entry finite."""
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
    if finite and not np.isfinite(v).all():
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
    bb, ac4 = b * b, 4.0 * a * c
    disc = bb - ac4
    # Grazing contact can dip just below zero in floats; a NaN (overflowed)
    # discriminant meets nothing. b >= 0: the course does not approach.
    tolerance = -1e-12 * np.maximum(np.maximum(bb, np.abs(ac4)), 1.0)
    meets = (disc > tolerance) & (b < 0.0) & (a != 0.0)
    # A course that starts outside (c > 0), approaches and meets the sphere
    # has two positive roots, c/q and q/a. Rows it drops may divide by zero.
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (b - np.sqrt(np.maximum(disc, 0.0)))
        root = np.minimum(c / q, q / a)
    return np.where(c <= 0.0, 0.0, np.where(meets, root, np.inf))


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
    _fields: tuple[tuple[str, int], ...] = ()  # (name, nesting depth) per payload field
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
        self._one("moved_to")
        ref = _points(reference, self.dim, "reference")
        with np.errstate(over="ignore", invalid="ignore"):  # `_at` names a field that overflows
            return self._at(ref)

    def _at(self, ref: np.ndarray) -> "SetDef":
        """`moved_to` a reference (dim,) or stack (n, dim) already checked
        finite and of this set's dimension; a field derived from it that
        is not finite raises GeometryError (see `_moved`)."""
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
        return self.row_payloads()[0]

    def row_payloads(self) -> list:
        """The payload of each set of a stack (one set: a list of one). A
        field the rows share (a polytope's A) is one object in every row."""
        n = 1 if self.rows is None else self.rows
        columns = []
        for name, depth in self._fields:
            value = getattr(self, name)
            shared = np.ndim(value) == depth  # not one entry per row
            columns.append([value.tolist() if depth else value] * n if shared else value.tolist())
        return columns[0] if len(columns) == 1 else list(map(list, zip(*columns)))

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
    _fields = (("coords", 1),)
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

    def _at(self, ref) -> "PointSet":
        return self._moved(ref, coords=ref)

    def reference(self) -> np.ndarray:
        return self.coords

    def entry_time(self, pos, vel):
        P, V, one = self._courses(pos, vel)
        return _one_or_rows(ball_entry_time(P - self.coords, V, 0.0), one)

    def _box_gaps(self, lo, hi):
        c = self.coords
        return row_norms(c - np.minimum(np.maximum(c, lo), hi))

    def __repr__(self):
        return f"PointSet({self.coords.tolist()})"


class Ball(SetDef):
    """Closed Euclidean ball. Its reference point is the center."""

    kind = "ball"
    _fields = (("center", 1), ("radius", 0))
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

    def _at(self, ref) -> "Ball":
        return self._moved(ref, center=ref)

    def reference(self) -> np.ndarray:
        return self.center

    def entry_time(self, pos, vel):
        P, V, one = self._courses(pos, vel)
        return _one_or_rows(ball_entry_time(P - self.center, V, self.radius), one)

    def _box_gaps(self, lo, hi):
        c = self.center
        return row_norms(c - np.minimum(np.maximum(c, lo), hi)) - self.radius

    def __repr__(self):
        return f"Ball(center={self.center.tolist()}, radius={self.radius})"


class Hyperrectangle(SetDef):
    """Axis-aligned box given by its lower and upper corners.

    Its reference point is the midpoint, so translation preserves the
    per-axis widths.
    """

    kind = "hyperrectangle"
    _fields = (("lower", 1), ("upper", 1))
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

    def _at(self, ref) -> "Hyperrectangle":
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

    def __repr__(self):
        return f"Hyperrectangle({self.lower.tolist()}, {self.upper.tolist()})"


def _kkt_points(A: np.ndarray, face: np.ndarray, Q: np.ndarray, b: np.ndarray):
    """The projections x (n, dim) of the points Q (n, dim) onto the
    hyperplanes of the independent faces `face` (a mask over the rows of
    A), row k onto offsets b[k], and their multipliers (n, faces): one
    solve of the faces' KKT system over all n points."""
    rows = A[face]
    gram = rows @ rows.T
    rhs = np.matmul(rows, Q[:, :, None]) - b[:, face, None]
    lam = np.linalg.solve(np.broadcast_to(gram, (len(Q),) + gram.shape), rhs)
    return Q - np.matmul(rows.T, lam)[:, :, 0], lam[:, :, 0]


def _nearest_points(A: np.ndarray, Q: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nearest point of {x : A x <= b[k]} to each point Q[k] (n, dim),
    and whether row k's program is feasible, by the dual method of
    Goldfarb and Idnani (1983) batched over the rows that share a set of
    active faces.

    Row k starts from its unconstrained minimum Q[k]: inside, it is done
    and feasible; outside, its first full step adds its most violated face
    with a nonzero normal. Each round, a row at the projection onto its
    faces (`_kkt_points`, so its final point is that solve's) picks its
    most violated face; a row with none is done and feasible. A row with a
    face to add, picked now or before, steps towards it: the point moves
    along the face's normal within the active faces' hyperplanes while the
    multipliers move to keep the gradient balanced. A full step reaches
    the face and adds it; a partial step stops where a multiplier reaches
    zero, drops that face and keeps the face to add. A face whose normal
    depends on the active faces' (so the point cannot move) and whose dual
    direction has no positive component admits no step: the row is
    infeasible if the face is violated by more than tol[k] =
    1e-9 * (1 + max|b[k]|), and otherwise the face is waived until its
    violation exceeds that. Every per-row product rounds as that row alone
    does. Raises GeometryError after 3 rounds per face."""
    n, m = Q.shape[0], A.shape[0]
    tol = 1e-9 * (1.0 + np.abs(b).max(axis=1))
    X = Q.copy()
    lam = np.zeros((n, m))  # the multipliers of the active faces
    over = np.matmul(Q[:, None, :], A.T)[:, 0, :] - b
    feasible = ~(over > 0.0).any(axis=1)
    live = ~feasible
    # The first full step, to the most violated face with a nonzero normal.
    steps = np.where(A.any(axis=1), over, -np.inf)
    first = steps.argmax(axis=1)
    out = np.flatnonzero(steps[np.arange(n), first] > 0.0)
    active = np.zeros((n, m), dtype=bool)
    active[out, first[out]] = True
    waived = np.zeros((n, m), dtype=bool)
    adding = np.full(n, -1)  # the face each row steps towards, -1 if it must pick one
    for _ in range(3 * m):
        todo = np.flatnonzero(live)
        if not todo.size:
            return X, feasible
        while todo.size:  # one group per set of active faces
            face = active[todo[0]].copy()
            same = (active[todo] == face).all(axis=1)
            ks, todo = todo[same], todo[~same]
            fi = np.flatnonzero(face)
            pick = ks[adding[ks] < 0]
            if pick.size:
                X[pick], lam[pick[:, None], fi] = _kkt_points(A, face, Q[pick], b[pick])
                over = np.matmul(X[pick][:, None, :], A.T)[:, 0, :] - b[pick]
                over[(over <= np.where(waived[pick], tol[pick, None], 0.0)) | face] = -np.inf
                adding[pick] = over.argmax(axis=1)
                done = pick[over.max(axis=1) == -np.inf]
                feasible[done] = True
                live[done] = False
                ks = ks[live[ks]]
                if not ks.size:
                    continue
            p = adding[ks]
            ap, rows = A[p], A[face]
            gram = rows @ rows.T
            r = np.linalg.solve(np.broadcast_to(gram, (len(ks),) + gram.shape),
                                np.matmul(rows, ap[:, :, None]))[:, :, 0]
            z = ap - np.matmul(rows.T, r[:, :, None])[:, :, 0]  # the primal direction
            zz = row_dots(z, z)
            # The point can move: the face's normal is not in the span of the active ones.
            moves = (zz > 1e-20 * row_dots(ap, ap)) & (fi.size < A.shape[1])
            over_p = row_dots(ap, X[ks]) - b[ks, p]
            with np.errstate(divide="ignore", invalid="ignore"):
                t_full = np.where(moves, np.maximum(over_p, 0.0) / zz, np.inf)
                ratio = np.where(r > 0.0, np.maximum(lam[ks[:, None], fi], 0.0) / r, np.inf)
            t_part = ratio.min(axis=1, initial=np.inf)
            t = np.minimum(t_full, t_part)
            stuck = np.isinf(t)
            live[ks[stuck & (over_p > tol[ks])]] = False
            waived[ks[stuck], p[stuck]] = True
            adding[ks[stuck]] = -1
            go = ~stuck
            ks, p, t, z, r, moves = ks[go], p[go], t[go], z[go], r[go], moves[go]
            full = t_full[go] <= t_part[go]
            X[ks] -= np.where(moves, t, 0.0)[:, None] * z
            lam[ks[:, None], fi] -= t[:, None] * r
            active[ks[full], p[full]] = True
            adding[ks[full]] = -1
            part = ~full
            if part.any():
                drop = fi[ratio[go][part].argmin(axis=1)]
                active[ks[part], drop] = False
    if live.any():
        raise GeometryError(f"polytope active-set method did not settle in {3 * m} rounds")
    return X, feasible


class Polytope(SetDef):
    """Convex polytope {x : Ax <= b} in half-space form.

    The base definition is interpreted in the anchor frame: translating by t
    maps b to b + A t. Nonemptiness is checked at construction, by
    projecting the origin (`_nearest_points`): a polytope empty by more
    than 1e-9 * (1 + max|b|) raises GeometryError.

    Payloads read back from traces skip that check, so `project` raises
    GeometryError where its program is infeasible by the same test.
    """

    kind = "polytope"
    _fields = (("A", 2), ("b", 1))
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
        if check_feasible and not _nearest_points(self.A, np.zeros((1, self.dim)), self.b[None])[1][0]:
            raise GeometryError("polytope is empty: Ax <= b has no solution")

    def contains(self, points) -> bool:
        P = self._queries(points, "point")
        return bool((P @ self.A.T <= self.b).all(axis=1).any())

    def project(self, points) -> np.ndarray:
        """Nearest point of the polytope to the point (dim,), or to each
        point of a stack (n, dim), point k onto set k of a stack. Row k
        rounds as that point alone does: every product with the points is
        a matmul of per-row blocks (see `entry_time`).

        The nearest point is the projection of p onto the hyperplanes of
        the faces active there, from the KKT system of those faces, solved
        once for all points with the same active faces. The dual method of
        `_nearest_points` finds each point's faces; a point inside keeps
        no face and is its own projection.
        """
        P, one = self._measured(points, "a projection")
        X, feasible = _nearest_points(self.A, P, np.broadcast_to(self.b, (len(P), len(self.A))))
        if not feasible.all():
            raise GeometryError("polytope projection found no feasible point; "
                                "Ax <= b may have no solution")
        return X[0] if one else X

    def distance(self, points):
        """The norm of each point's offset from its projection."""
        P, one = self._measured(points, "a distance")
        return _one_or_rows(row_norms(P - self.project(P)), one)

    def _at(self, ref) -> "Polytope":
        # Translation of a nonempty polytope stays nonempty; no check. A @ ref is
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
        """Whether any box [lo[k], hi[k]] meets set k: two exact shortcuts,
        then one batched program over the boxes they leave, each projecting
        its centre onto {Ax <= b_k, lo[k] <= x <= hi[k]}."""
        A = self.A
        # A row whose minimum over a box exceeds its offset separates the two.
        row_min = (A * np.where(A > 0, lo[:, None, :], hi[:, None, :])).sum(axis=2)
        b = np.broadcast_to(self.b, row_min.shape)  # row k's offsets
        live = ~(row_min > b).any(axis=1)
        if not live.any():
            return False
        lo, hi, b = lo[live], hi[live], b[live]
        centre = (lo + hi) / 2.0
        if (centre @ A.T <= b).all(axis=1).any():
            return True
        # Box k's program runs on row k's offsets, which a stack of sets varies.
        eye = np.eye(self.dim)
        return bool(_nearest_points(np.vstack((A, eye, -eye)), centre,
                                    np.hstack((b, hi, -lo)))[1].any())

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
    against an (n, dim) stack of positions as a row-aligned stack of n sets:
    `spec.base.moved_to(anchor_position + offset)`, with the same errors.
    One finiteness test covers the position and the reference: the offset
    is finite, so their sum is finite only where the position is. An
    overflow is that error, never a numpy warning."""
    pos = _points(anchor_position, spec.offset.shape[0], "anchor position", finite=False)
    base = spec.base
    with np.errstate(over="ignore", invalid="ignore"):
        ref = pos + spec.offset
        if not np.isfinite(ref).all():
            if not np.isfinite(pos).all():
                raise GeometryError("anchor position must be finite")
            return base.moved_to(ref)  # raises as it does on a reference that overflowed
        base._one("moved_to")
        return base._at(ref)


_SET_CLASSES = {cls.kind: cls for cls in (PointSet, Ball, Hyperrectangle, Polytope)}
SET_KINDS = tuple(_SET_CLASSES)


def repeat_rows(set_def: SetDef, m: int) -> SetDef:
    """A stack of n sets as a stack of m * n, row j * n + k set k, so that
    m queries per set are measured in one call; one set, or a stack
    repeated once, stays itself. A row field that is one value for the
    whole stack (a moved ball's radius) stays one value."""
    if set_def.rows is None or m == 1:
        return set_def
    fields = {}
    for name in set_def._row_fields:
        value = getattr(set_def, name)
        if np.ndim(value):
            fields[name] = np.tile(value, (m,) + (1,) * (value.ndim - 1))
    return set_def._with(set_def.rows * m, **fields)


def parse_column(kind: str, payloads: list) -> list[tuple[int, SetDef]]:
    """The sets of a nonempty column of payloads, one per sample, as
    row-aligned stacks, each with the number of samples it holds: sample k
    of a stack is its row k. The column splits into runs of equal payloads,
    and a stack ends where a polytope's constraint matrix changes from the
    run before; a column of one run gives that set unstacked. One pass over
    the runs' first payloads builds each field of a stack with one array
    and runs the constructors' checks on the arrays, and a column has one
    dimension. A column that fails raises the error of its first payload
    that `set_from_payload` rejects, else the change of dimension, else
    that its payloads, which are then no sequences, do not stack."""
    starts = [0, *compress(range(1, len(payloads)), map(ne, islice(payloads, 1, None), payloads))]
    heads = [payloads[k] for k in starts]
    try:
        return _column_stacks(kind, heads, [*starts, len(payloads)])
    except (TypeError, ValueError, OverflowError):  # a failed check; ragged, nested or not numbers
        pass
    dims = [set_from_payload(kind, head).dim for head in heads]  # raises the first error
    changed = [d for d in dims if d != dims[0]]
    if not changed:  # payloads a constructor unpacks but that are no sequence, such as generators
        raise GeometryError(f"malformed {kind} column: its payloads do not stack")
    raise GeometryError(f"set dimension changed from {dims[0]} to {changed[0]}")


def _column_stacks(kind: str, heads: list, bounds: list[int]) -> list[tuple[int, SetDef]]:
    """`parse_column`'s pass over the first payload of each run, run i
    covering samples bounds[i] to bounds[i + 1]; a ValueError where a check
    fails."""
    if kind not in SET_KINDS:  # compared, not hashed, as in `set_from_payload`
        raise ValueError(f"unknown set type {kind!r}")
    cls = _SET_CLASSES[kind]
    if len(cls._fields) == 1:
        parts = [heads]
    elif set(map(len, heads)) == {2}:
        parts = list(zip(*heads))
    else:
        raise ValueError("a payload does not list two fields")
    firsts = [0]  # the first run of each stack
    if cls is Polytope:  # a stack's rows share A: a run whose A is not the last one's begins one
        A = parts[0]
        firsts += [i for i in range(1, len(A)) if A[i] is not A[i - 1] and A[i] != A[i - 1]]
    stacks, dim = [], None
    for i, j in zip(firsts, [*firsts[1:], len(heads)]):
        # Each field nests as deep as the payload says, one more for a field
        # with a row per run, with no empty axis and every entry finite.
        fields = {}
        for (name, depth), part in zip(cls._fields, parts):
            row = name in cls._row_fields
            value = fields[name] = np.array(part[i:j] if row else part[i], dtype=float)
            if value.ndim != depth + row or not value.size or not np.isfinite(value).all():
                raise ValueError(f"{name} is empty, not finite or of the wrong depth")
        first = fields[cls._fields[0][0]]  # its last axis is the dimension
        dim = first.shape[-1] if dim is None else dim
        if (first.shape[-1] != dim
                or kind == "ball" and (fields["radius"] < 0.0).any()
                or kind == "hyperrectangle" and (first.shape != fields["upper"].shape
                                                 or (first > fields["upper"]).any())
                or kind == "polytope" and fields["b"].shape[1] != first.shape[0]):
            raise ValueError("the fields are not sets of the column's dimension")
        out, n = object.__new__(cls), bounds[j] - bounds[i]
        if len(heads) == 1:  # one run: the set itself, as `set_from_payload` builds it
            for name, depth in cls._fields:
                if name in cls._row_fields:
                    fields[name] = fields[name][0] if depth else float(fields[name][0])
            out.__dict__.update(fields, dim=dim)
            return [(n, out)]
        counts = np.diff(bounds[i:j + 1])
        out.__dict__.update(fields, dim=dim, rows=n, **{
            name: np.repeat(fields[name], counts, axis=0) for name in cls._row_fields})
        stacks.append((n, out))
    return stacks


def set_from_payload(kind: str, payload) -> SetDef:
    """Rebuild a SetDef from its wire payload."""
    if kind not in SET_KINDS:  # compared, not hashed: a config's kind may be any JSON value
        raise GeometryError(f"unknown set type {kind!r}; expected one of {', '.join(SET_KINDS)}")
    cls = _SET_CLASSES[kind]
    try:
        if len(cls._fields) == 1:
            return cls(payload)
        first, second = payload  # every other kind lists two fields
        # No emptiness check: a trace payload was checked when its set was
        # built, and a config caller (config._build_unsafe) runs the check.
        if cls is Polytope:
            return Polytope(first, second, check_feasible=False)
        return cls(first, second)
    except GeometryError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise GeometryError(f"malformed {kind} payload: {exc}") from exc


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
    the box centre satisfies Ax <= b; otherwise the program Ax <= b with
    lo <= x <= hi decides, feasible within 1e-9 * (1 + the largest |offset|
    or |corner|). On a stack the centre test runs on every box not ruled out
    before any program does, so a stack never needs more programs than
    testing its boxes one by one.
    """
    lo, hi = _box_corners(set_def, lower, upper)
    return set_def._meets_boxes(lo, hi)
