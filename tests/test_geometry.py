"""Unsafe-set geometry: membership, distance, translation, payloads."""
import math

import numpy as np
import pytest
from scipy.optimize import linprog, minimize

from rtakit import (
    Ball,
    DimensionMismatch,
    GeometryError,
    Hyperrectangle,
    PointSet,
    Polytope,
    RelativeSetSpec,
    box_distance,
    box_intersects,
    set_from_payload,
    update_relative,
)
from rtakit.geometry import ball_entry_time, row_dots, row_norms, stack_sets
from helpers import (
    grid_distance_oracle,
    random_polytope,
    ref_ball_entry_time,
    ref_distance,
    ref_entry_time,
    ref_project,
)

UNIT_SQUARE = Polytope(
    [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [1.0, 0.0, 1.0, 0.0]
)


# -- contains ----------------------------------------------------------------

def test_contains_ball_covers_origin():
    assert Ball([5.0], 7.0).contains([0.0])


def test_contains_ball_center():
    assert Ball([0.0, 0.0], 1.0).contains([0.0, 0.0])


def test_contains_rect_outside_one_axis():
    assert not Hyperrectangle([0.0, 0.0], [1.0, 1.0]).contains([2.0, 0.5])


def test_contains_polytope_interval():
    # A = [[1], [-1]], b = [1, 1] encodes -1 <= x <= 1.
    p = Polytope([[1.0], [-1.0]], [1.0, 1.0])
    assert p.contains([0.5])
    assert p.contains([1.0])
    assert not p.contains([1.5])


def test_contains_boundary_counts_as_inside():
    assert Ball([0.0], 1.0).contains([1.0])
    assert Hyperrectangle([0.0], [1.0]).contains([1.0])


def test_contains_dimension_mismatch_names_both():
    with pytest.raises(DimensionMismatch) as err:
        Ball([0.0, 0.0], 1.0).contains([0.0, 0.0, 0.0])
    assert "2" in str(err.value) and "3" in str(err.value)


# -- distance ----------------------------------------------------------------

def test_distance_ball():
    assert Ball([10.0], 7.0).distance([0.0]) == pytest.approx(3.0)


def test_distance_point_identity():
    assert PointSet([1.0, 1.0]).distance([1.0, 1.0]) == 0.0


def test_distance_rect_corner_matches_grid_search():
    rect = Hyperrectangle([0.0, 0.0], [1.0, 1.0])
    got = rect.distance([2.0, 2.0])
    # independent check: dense grid over the box
    xs = np.linspace(0.0, 1.0, 501)
    grid = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    brute = np.min(np.linalg.norm(grid - np.array([2.0, 2.0]), axis=1))
    assert got == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert got == pytest.approx(brute, abs=1e-3)


def test_distance_polytope_matches_rect_for_box_encoding():
    rect = Hyperrectangle([0.0, 0.0], [1.0, 1.0])
    assert UNIT_SQUARE.distance([2.0, 2.0]) == pytest.approx(rect.distance([2.0, 2.0]), abs=1e-6)


def _half_spaces(box):
    """The box as a polytope: A = [I; -I], b = [upper; -lower]."""
    eye = np.eye(box.dim)
    return Polytope(np.vstack((eye, -eye)), np.concatenate((box.upper, -box.lower)))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_entry_time_of_a_box_and_its_half_space_form_are_bit_identical(dim):
    rng = np.random.default_rng(61 + dim)
    box = Hyperrectangle(-rng.uniform(0.5, 2.0, dim), rng.uniform(0.5, 2.0, dim))
    P, V = _courses(box, rng)  # zero-velocity axes, standing still, inside
    axis = rng.integers(dim, size=len(P[5::6]))
    P[5::6][np.arange(len(axis)), axis] = box.upper[axis]  # starting on a face
    V[5::12] = 0.0  # standing still on it
    poly = _half_spaces(box)
    taus = box.entry_time(P, V)
    assert taus.tobytes() == poly.entry_time(P, V).tobytes()
    assert {0.0, math.inf} < set(taus.tolist())  # inside, never and a finite entry
    one = np.array([box.entry_time(p, v) for p, v in zip(P, V)])
    assert one.tobytes() == np.array([poly.entry_time(p, v) for p, v in zip(P, V)]).tobytes()
    assert one.tobytes() == taus.tobytes()
    # A stack of boxes whose corners move unevenly, and its half-space forms.
    boxes = [Hyperrectangle(box.lower + rng.uniform(-1.0, 1.0, dim),
                            box.upper + rng.uniform(1.0, 2.0, dim)) for _ in P]
    (_, box_stack), = stack_sets(boxes)
    (_, poly_stack), = stack_sets([_half_spaces(b) for b in boxes])
    assert box_stack.entry_time(P, V).tobytes() == poly_stack.entry_time(P, V).tobytes()


def test_distance_polytope_box_encoding_randomized():
    rng = np.random.default_rng(7)
    for _ in range(25):
        lo = rng.uniform(-3.0, 0.0, size=2)
        hi = lo + rng.uniform(0.5, 3.0, size=2)
        rect = Hyperrectangle(lo, hi)
        poly = Polytope(
            [[1, 0], [-1, 0], [0, 1], [0, -1]], [hi[0], -lo[0], hi[1], -lo[1]]
        )
        q = rng.uniform(-6.0, 6.0, size=2)
        assert poly.distance(q) == pytest.approx(rect.distance(q), abs=1e-6)


def test_distance_polytope_against_grid_oracle():
    rng = np.random.default_rng(42)
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        A, b = random_polytope(rng, dim, int(rng.integers(3, 9)))
        poly = Polytope(A, b)
        q = rng.normal(scale=3.0, size=dim)
        want = grid_distance_oracle(A, b, q, np.zeros(dim))
        assert poly.distance(q) == pytest.approx(want, abs=1e-3)


def test_contains_iff_distance_zero():
    rng = np.random.default_rng(3)
    sets = [
        Ball([1.0, -2.0], 1.5),
        Hyperrectangle([-1.0, 0.0], [2.0, 2.0]),
        UNIT_SQUARE,
        PointSet([0.5, 0.5]),
    ]
    for s in sets:
        for _ in range(200):
            q = rng.uniform(-4.0, 4.0, size=2)
            if s.contains(q):
                assert s.distance(q) <= 1e-9
            else:
                assert s.distance(q) > 0.0


def test_distance_is_one_lipschitz():
    rng = np.random.default_rng(11)
    A, b = random_polytope(rng, 2, 5)
    sets = [Ball([0.0, 1.0], 2.0), Hyperrectangle([0.0, 0.0], [1.0, 3.0]),
            PointSet([2.0, 2.0]), Polytope(A, b)]
    for s in sets:
        for _ in range(100):
            p = rng.uniform(-5.0, 5.0, size=2)
            q = rng.uniform(-5.0, 5.0, size=2)
            assert abs(s.distance(p) - s.distance(q)) <= np.linalg.norm(p - q) + 1e-9


# -- update_relative ---------------------------------------------------------

def test_update_relative_ball_offset():
    spec = RelativeSetSpec("u", Ball([0.0], 7.0), [5.0], "leader")
    moved = update_relative(spec, [5.0])
    assert moved.center.tolist() == [10.0]
    assert moved.radius == 7.0


def test_update_relative_zero_offset_centers_on_anchor():
    spec = RelativeSetSpec("u", Ball([0.0], 7.0), [0.0], "leader")
    assert update_relative(spec, [5.0]).center.tolist() == [5.0]


def test_update_relative_rect_translates_corners():
    base = Hyperrectangle([-1.0, -1.0], [1.0, 1.0])
    spec = RelativeSetSpec("u", base, [0.0, 0.0], "a")
    moved = update_relative(spec, [3.0, 3.0])
    assert moved.lower.tolist() == [2.0, 2.0]
    assert moved.upper.tolist() == [4.0, 4.0]


def test_update_relative_dimension_mismatch():
    spec = RelativeSetSpec("u", Ball([0.0, 0.0], 1.0), [1.0, 1.0], "a")
    with pytest.raises(DimensionMismatch):
        update_relative(spec, [1.0])


def test_moved_set_preserves_shape():
    rng = np.random.default_rng(5)
    A, b = random_polytope(rng, 2, 6)
    for base in (Ball([0.0, 0.0], 1.5), Hyperrectangle([-1.0, 0.0], [1.0, 2.0]),
                 PointSet([0.0, 0.0]), Polytope(A, b)):
        ref = rng.uniform(-3.0, 3.0, size=2)
        moved = base.moved_to(ref)
        for _ in range(50):
            q = rng.uniform(-5.0, 5.0, size=2)
            if isinstance(base, Polytope):
                # polytope translation is b + A t with t = ref (anchor frame)
                shift = ref
            else:
                shift = ref - base.reference()
            assert moved.distance(q + shift) == pytest.approx(base.distance(q), abs=1e-9)


# -- construction validation ---------------------------------------------------

def test_negative_radius_rejected():
    with pytest.raises(GeometryError):
        Ball([0.0], -1.0)


@pytest.mark.parametrize("radius", [math.nan, math.inf])
def test_nonfinite_radius_rejected(radius):
    # a NaN radius would make contains() always false and distance() read 0
    with pytest.raises(GeometryError, match="radius"):
        Ball([0.0], radius)
    with pytest.raises(GeometryError, match="radius"):
        set_from_payload("ball", [[0.0], radius])


def test_rect_inverted_corners_rejected():
    with pytest.raises(GeometryError):
        Hyperrectangle([1.0], [0.0])


def test_rect_corners_of_different_lengths_name_both():
    with pytest.raises(GeometryError, match="lower corner has 2 coordinates "
                                            "but upper corner has 3") as err:
        Hyperrectangle([0.0, 0.0], [1.0, 1.0, 1.0])
    assert not isinstance(err.value, DimensionMismatch)  # no point is involved


def test_empty_polytope_rejected():
    # x <= -1 and x >= 1 cannot both hold
    with pytest.raises(GeometryError):
        Polytope([[1.0], [-1.0]], [-1.0, -1.0])


def test_polytope_row_count_mismatch_rejected():
    with pytest.raises(GeometryError):
        Polytope([[1.0], [-1.0]], [1.0])


# -- payloads ------------------------------------------------------------------

def test_payload_round_trip():
    sets = [
        PointSet([1.0, 2.0]),
        Ball([5.0], 7.0),
        Hyperrectangle([0.0, 0.0], [1.0, 2.0]),
        UNIT_SQUARE,
    ]
    for s in sets:
        rebuilt = set_from_payload(s.kind, s.payload())
        assert rebuilt.payload() == s.payload()


def test_ball_payload_layout_is_center_then_radius():
    payload = Ball([5.0], 7.0).payload()
    assert payload[0] == [5.0]
    assert payload[1] == 7.0
    # the near edge in 1-D is payload[0][0] - payload[1]
    assert payload[0][0] - payload[1] == pytest.approx(-2.0)


def test_unknown_payload_kind_rejected():
    with pytest.raises(GeometryError):
        set_from_payload("ellipsoid", [[0.0], 1.0])


def test_malformed_payload_rejected():
    with pytest.raises(GeometryError):
        set_from_payload("ball", [[0.0]])


# -- box distance (reach support) ----------------------------------------------

def test_box_distance_degenerate_box_equals_point_distance():
    rng = np.random.default_rng(9)
    A, b = random_polytope(rng, 2, 5)
    sets = [Ball([0.0, 0.0], 1.0), Hyperrectangle([0.0, 0.0], [1.0, 1.0]),
            PointSet([1.0, 1.0])]
    for s in sets:
        for _ in range(50):
            q = rng.uniform(-4.0, 4.0, size=2)
            want = s.distance(q)
            got = box_distance(s, q, q)
            assert got == pytest.approx(want, abs=1e-8)
    poly = Polytope(A, b)
    for _ in range(50):
        q = rng.uniform(-4.0, 4.0, size=2)
        assert box_intersects(poly, q, q) == poly.contains(q)


def test_box_intersects_ball_touching():
    ball = Ball([2.0, 0.0], 1.0)
    assert box_intersects(ball, [0.0, -1.0], [1.0, 1.0])  # gap exactly 0
    assert not box_intersects(ball, [0.0, -1.0], [0.9, 1.0])


def test_box_distance_rect_gap():
    rect = Hyperrectangle([2.0, 0.0], [3.0, 1.0])
    assert box_distance(rect, [0.0, 0.0], [1.0, 1.0]) == pytest.approx(1.0)
    assert box_distance(rect, [0.0, 3.0], [1.0, 4.0]) == pytest.approx(math.hypot(1.0, 2.0))


def test_box_distance_halfspace():
    # box_distance has no closed form for a polytope; box_intersects answers
    ground = Polytope([[0.0, 0.0, 1.0]], [0.0])
    with pytest.raises(GeometryError, match="box_intersects"):
        box_distance(ground, [0.0, 0.0, 2.0], [1.0, 1.0, 3.0])
    assert not box_intersects(ground, [0.0, 0.0, 2.0], [1.0, 1.0, 3.0])
    assert box_intersects(ground, [0.0, 0.0, -1.0], [1.0, 1.0, 1.0])


@pytest.mark.parametrize("query", [box_distance, box_intersects])
def test_box_corner_dimension_error_names_the_wrong_corner(query):
    ball = Ball([0.0, 0.0, 0.0], 1.0)
    with pytest.raises(DimensionMismatch) as err:
        query(ball, [0.0, 0.0, 0.0], [1.0, 1.0])
    assert (err.value.set_dim, err.value.point_dim) == (3, 2)
    with pytest.raises(DimensionMismatch) as err:
        query(ball, [0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    assert (err.value.set_dim, err.value.point_dim) == (3, 4)


@pytest.mark.parametrize("lower, upper", [
    ([0.0, math.nan], [1.0, 1.0]),
    ([0.0, 0.0], [1.0, math.inf]),
    ([1.0, 0.0], [0.0, 1.0]),
])
def test_box_corners_must_be_finite_and_ordered(lower, upper):
    for s in (Ball([0.0, 0.0], 1.0), UNIT_SQUARE):
        with pytest.raises(GeometryError):
            box_intersects(s, lower, upper)


RAGGED = [[0.0, 0.0], [1.0]]


@pytest.mark.parametrize("query, what", [
    (lambda: Ball([0.0, 0.0], 1.0).contains(RAGGED), "point"),
    (lambda: box_intersects(Ball([0.0, 0.0], 1.0), RAGGED, RAGGED), "box lower corner"),
    (lambda: Ball([0.0], 1.0).distance([[0.0], 1.0]), "point"),
    (lambda: update_relative(RelativeSetSpec("u", Ball([0.0, 0.0], 1.0), [0.0, 0.0], "a"),
                             [[0.0], 1.0]), "anchor position"),
], ids=["contains", "box_intersects", "distance", "update_relative"])
def test_ragged_query_raises_a_geometry_error_naming_it(query, what):
    with pytest.raises(GeometryError, match=f"^{what} must be numbers"):
        query()


# -- exact polytope box test -----------------------------------------------------

DIAMOND = Polytope([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]], [1.0] * 4)


def test_polytope_box_disjoint_only_an_lp_can_show():
    # No single row separates this box from |x| + |y| <= 1 and its centre is
    # outside: only the feasibility program decides.
    lo, hi = np.array([-0.2, 1.05]), np.array([0.2, 1.5])
    row_minima = np.sum(DIAMOND.A * np.where(DIAMOND.A > 0, lo, hi), axis=1)
    assert np.all(row_minima <= DIAMOND.b)
    assert not DIAMOND.contains((lo + hi) / 2.0)
    assert not box_intersects(DIAMOND, lo, hi)


def test_polytope_box_touching_at_a_vertex_intersects():
    # the box's bottom edge meets the diamond only at its vertex (0, 1)
    assert box_intersects(DIAMOND, [-0.2, 1.0], [0.2, 1.5])


def test_polytope_box_face_on_the_ground_plane_intersects():
    ground = Polytope([[0.0, 0.0, 1.0]], [0.0])
    assert box_intersects(ground, [-1.0, -1.0, 0.0], [1.0, 1.0, 2.0])
    assert not box_intersects(ground, [-1.0, -1.0, 1e-6], [1.0, 1.0, 2.0])


def _lp_meets_box(A, b, lo, hi):
    """Reference: does {Ax <= b} meet the box? One LP, no shortcuts."""
    res = linprog(np.zeros(A.shape[1]), A_ub=A, b_ub=b,
                  bounds=list(zip(lo, hi)), method="highs")
    assert res.status in (0, 2), res.message
    return res.status == 0


def test_polytope_box_test_agrees_with_lp_reference():
    rng = np.random.default_rng(2024)
    outcomes = set()
    for _ in range(300):
        dim = int(rng.integers(1, 4))
        A, b = random_polytope(rng, dim, int(rng.integers(1, 8)))
        centre = rng.uniform(-4.0, 4.0, size=dim)
        half = rng.uniform(0.0, 1.5, size=dim)
        lo, hi = centre - half, centre + half
        want = _lp_meets_box(A, b, lo, hi)
        assert box_intersects(Polytope(A, b), lo, hi) == want
        outcomes.add(want)
    assert outcomes == {True, False}


# -- projection: one exact path at every size ------------------------------------

def _slsqp_projection(A, b, p):
    res = minimize(lambda x: 0.5 * np.sum((x - p) ** 2), p, jac=lambda x: x - p,
                   constraints=[{"type": "ineq", "fun": lambda x: b - A @ x,
                                 "jac": lambda x: -A}],
                   method="SLSQP", options={"ftol": 1e-12, "maxiter": 500})
    assert res.success, res.message
    return res.x


def _assert_projection_matches_slsqp(A, b, q):
    poly = Polytope(A, b)
    want = _slsqp_projection(A, b, q)
    got = poly.project(q)
    assert np.all(A @ got <= b + 1e-9)
    assert got == pytest.approx(want, abs=1e-6)
    assert abs(poly.distance(q) - np.linalg.norm(q - want)) <= 1e-9


@pytest.mark.parametrize("seed", range(40))
def test_projection_of_a_40_row_polytope_matches_slsqp(seed):
    # 40 rows of unequal norm: far more active-set candidates than a
    # subset enumeration can try.
    rng = np.random.default_rng(seed)
    A, b = random_polytope(rng, 3, 40)
    scale = rng.uniform(0.2, 5.0, size=(40, 1))
    A, b = A * scale, b * scale[:, 0]
    checked = 0
    while checked < 5:
        q = rng.normal(scale=4.0, size=3)
        if np.all(A @ q <= b):
            continue
        _assert_projection_matches_slsqp(A, b, q)
        checked += 1


def test_projection_of_a_30_row_polytope_matches_slsqp():
    rng = np.random.default_rng(5)
    A, b = random_polytope(rng, 3, 30)
    for _ in range(5):
        q = rng.normal(scale=4.0, size=3)
        if not np.all(A @ q <= b):
            _assert_projection_matches_slsqp(A, b, q)


def test_projection_onto_a_pyramid_apex_from_above():
    # Four faces meet at the apex (0, 0, 2), more than the dimension.
    A = [[2.0, 0.0, 1.0], [-2.0, 0.0, 1.0], [0.0, 2.0, 1.0], [0.0, -2.0, 1.0],
         [0.0, 0.0, -1.0]]
    poly = Polytope(A, [2.0, 2.0, 2.0, 2.0, 0.0])
    q = [0.0, 0.0, 7.0]
    assert poly.project(q) == pytest.approx([0.0, 0.0, 2.0], abs=1e-12)
    assert poly.distance(q) == pytest.approx(5.0, abs=1e-12)


def test_distance_to_an_empty_polytope_payload_is_a_geometry_error():
    # Payloads skip the feasibility LP; x <= -1 and x >= 1 cannot both hold.
    poly = set_from_payload("polytope", [[[1.0], [-1.0]], [-1.0, -1.0]])
    with pytest.raises(GeometryError, match="no feasible point"):
        poly.distance([0.0])


# -- projection of a stack: every row as that point alone -------------------------

def _projection_queries(rng, A, b, sets):
    """One point per set, row k for set k: inside the base set, far
    outside, or on set k's boundary as the one-at-a-time projection of an
    outside point, which rounding leaves just inside or just outside."""
    P = rng.normal(scale=3.0, size=(len(sets), A.shape[1]))
    P[0::4] = rng.uniform(-0.35, 0.35, size=P[0::4].shape) * (
        np.abs(b).min() / np.abs(A).sum(axis=1).max())
    P[1::4] *= 10.0
    P[2::4] = [ref_project(s, p) for s, p in zip(sets[2::4], P[2::4])]
    return P


def _assert_projects_as_one_at_a_time(s, P, sets):
    want = np.array([ref_project(one, p) for one, p in zip(sets, P)])
    assert s.project(P).tobytes() == want.tobytes()
    dist = np.array([float(np.linalg.norm(p - x)) for p, x in zip(P, want)])
    assert s.distance(P).tobytes() == dist.tobytes()
    return dist


@pytest.mark.parametrize("seed", range(8))
def test_stacked_projection_is_bit_identical_to_one_point_at_a_time(seed):
    rng = np.random.default_rng(300 + seed)
    kinds = set()
    for _ in range(12):
        dim, m = int(rng.integers(1, 4)), int(rng.integers(1, 41))
        A, b = random_polytope(rng, dim, m)
        scale = rng.uniform(0.2, 5.0, size=(m, 1))
        poly = Polytope(A * scale, b * scale[:, 0])
        n = 22
        one_set = [poly] * n
        P = _projection_queries(rng, poly.A, poly.b, one_set)
        dist = _assert_projects_as_one_at_a_time(poly, P, one_set)
        kinds |= {"inside" if d == 0.0 else "outside" for d in dist}
        refs = rng.normal(scale=0.2, size=(n, dim))
        stack, ones = poly.moved_to(refs), [poly.moved_to(r) for r in refs]
        assert len({bk.tobytes() for bk in stack.b}) == n  # b varies row by row
        _assert_projects_as_one_at_a_time(stack, _projection_queries(rng, poly.A, poly.b, ones), ones)
    assert kinds == {"inside", "outside"}


def test_stacked_projection_onto_faces_that_meet_at_one_point(monkeypatch):
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
    # Four faces meet at the pyramid's apex (0, 0, 2), more than the dimension.
    pyramid = Polytope([[2.0, 0.0, 1.0], [-2.0, 0.0, 1.0], [0.0, 2.0, 1.0],
                        [0.0, -2.0, 1.0], [0.0, 0.0, -1.0]], [2.0, 2.0, 2.0, 2.0, 0.0])
    P = np.array([[0.0, 0.0, 7.0], [0.0, 0.0, 3.5], [0.0, 0.0, 1.0], [0.0, 0.0, 12.0]])
    _assert_projects_as_one_at_a_time(pyramid, P, [pyramid] * len(P))
    assert pyramid.project(P)[[0, 1, 3]] == pytest.approx(np.tile([0.0, 0.0, 2.0], (3, 1)), abs=1e-12)
    # Five faces cut the plane down to the origin; from (0, 6) the NNLS keeps
    # three of them active, a singular Gram matrix: the per-row lstsq branch.
    cone = Polytope([[2.0, 0.0], [0.0, 2.0], [2.0, 2.0], [0.0, -1.0], [-1.0, -1.0]],
                    [0.0] * 5)
    P = np.array([[0.0, 6.0], [3.0, 1.0], [0.0, 0.0], [0.0, 6.0], [-2.0, 5.0]])
    calls.clear()
    want = np.array([ref_project(cone, p) for p in P])
    assert len(calls) == 2
    calls.clear()
    assert cone.project(P).tobytes() == want.tobytes()
    assert len(calls) == 2  # the two rows at (0, 6), one group
    assert want[0] == pytest.approx([0.0, 0.0], abs=1e-12)


def test_projection_of_one_point_is_a_stack_of_one():
    rng = np.random.default_rng(17)
    A, b = random_polytope(rng, 3, 12)
    poly = Polytope(A, b)
    for p in rng.normal(scale=4.0, size=(20, 3)):
        one = poly.project(p)
        assert one.shape == (3,)
        assert one.tobytes() == poly.project(p[None, :])[0].tobytes()
        assert one.tobytes() == ref_project(poly, p).tobytes()


def test_distance_makes_one_projection_per_stack(monkeypatch):
    calls = []
    project = Polytope.project
    monkeypatch.setattr(Polytope, "project", lambda s, P: calls.append(len(P)) or project(s, P))
    P = np.random.default_rng(19).normal(scale=3.0, size=(50, 2))
    UNIT_SQUARE.distance(P)
    UNIT_SQUARE.moved_to(P).distance(P[::-1])
    assert calls == [50, 50]


def test_projection_of_a_stack_keeps_the_guards():
    empty = set_from_payload("polytope", [[[1.0], [-1.0]], [-1.0, -1.0]])
    for call in (empty.project, empty.distance):
        with pytest.raises(GeometryError, match="no feasible point"):
            call([[0.0], [5.0], [-3.0]])
    P = np.array([[0.25, 0.5], [1.0, 0.0], [0.0, 1.0], [0.75, 0.75]])  # inside or on a face
    X = UNIT_SQUARE.project(P)
    assert X.tobytes() == P.tobytes() and X is not P
    assert UNIT_SQUARE.distance(P).tobytes() == np.zeros(4).tobytes()
    stack = UNIT_SQUARE.moved_to(np.zeros((2, 2)))
    with pytest.raises(GeometryError, match="a projection takes one polytope, got a stack of 2"):
        stack.project([0.0, 0.0])
    with pytest.raises(GeometryError, match="point stack of 3 against a stack of 2 sets"):
        stack.project(np.zeros((3, 2)))


# -- stacks: one call answers "any" over the rows ----------------------------------

# One set of each kind in 2-D, with queries that land exactly on its boundary.
STACK_SETS = [
    (PointSet([0.5, -0.25]), [[0.5, -0.25]]),
    (Ball([0.5, -0.25], 1.0), [[1.5, -0.25], [0.5, 0.75]]),
    (Hyperrectangle([-1.0, -0.5], [0.5, 1.0]), [[0.5, 0.0], [-1.0, 1.0]]),
    (DIAMOND, [[0.0, 1.0], [0.5, 0.5]]),
]
STACK_KINDS = [s.kind for s, _ in STACK_SETS]


def _contains_reference(s, p):
    """Per-point membership, written out once per kind."""
    if isinstance(s, PointSet):
        return bool(np.all(p == s.coords))
    if isinstance(s, Ball):
        return bool(np.linalg.norm(p - s.center) <= s.radius)
    if isinstance(s, Hyperrectangle):
        return bool(np.all(s.lower <= p) and np.all(p <= s.upper))
    return bool(np.all(s.A @ p <= s.b))


def _box_reference(s, lo, hi):
    """Per-box intersection, written out once per kind."""
    if isinstance(s, PointSet):
        return bool(np.all(lo <= s.coords) and np.all(s.coords <= hi))
    if isinstance(s, Ball):
        return bool(np.linalg.norm(s.center - np.clip(s.center, lo, hi)) <= s.radius)
    if isinstance(s, Hyperrectangle):
        return bool(np.all(lo <= s.upper) and np.all(s.lower <= hi))
    return _lp_meets_box(s.A, s.b, lo, hi)


@pytest.mark.parametrize("s, boundary", STACK_SETS, ids=STACK_KINDS)
def test_contains_on_a_stack_is_any_over_its_rows(s, boundary):
    rng = np.random.default_rng(11)
    outcomes = set()
    for _ in range(200):
        P = rng.uniform(-2.0, 2.0, size=(int(rng.integers(1, 6)), 2))
        if rng.random() < 0.5:
            P[rng.integers(len(P))] = boundary[rng.integers(len(boundary))]
        rows = [s.contains(p) for p in P]
        assert rows == [_contains_reference(s, p) for p in P]
        assert s.contains(P) == any(rows)
        outcomes.add(any(rows))
    assert outcomes == {True, False}


@pytest.mark.parametrize("s, boundary", STACK_SETS, ids=STACK_KINDS)
def test_box_intersects_on_a_stack_is_any_over_its_rows(s, boundary):
    rng = np.random.default_rng(12)
    outcomes = set()
    for _ in range(100):
        n = int(rng.integers(1, 5))
        centre = rng.uniform(-2.0, 2.0, size=(n, 2))
        half = rng.uniform(0.0, 0.6, size=(n, 2))
        lo, hi = centre - half, centre + half
        if rng.random() < 0.3:  # a box with a corner on the boundary
            j = rng.integers(n)
            lo[j] = boundary[rng.integers(len(boundary))]
            hi[j] = lo[j] + half[j]
        if s is DIAMOND and rng.random() < 0.3:  # disjoint, only the LP shows it
            j = rng.integers(n)
            lo[j], hi[j] = [-0.2, 1.05], [0.2, 1.5]
        rows = [box_intersects(s, l, h) for l, h in zip(lo, hi)]
        assert rows == [_box_reference(s, l, h) for l, h in zip(lo, hi)]
        assert box_intersects(s, lo, hi) == any(rows)
        outcomes.add(any(rows))
    assert outcomes == {True, False}


def test_polytope_box_stack_runs_no_more_lps_than_box_by_box(monkeypatch):
    lps = []
    real = Polytope._feasible
    monkeypatch.setattr(Polytope, "_feasible",
                        lambda self, bounds=None: lps.append(bounds) or real(self, bounds))
    lp_only = ([-0.2, 1.05], [0.2, 1.5])  # disjoint; neither shortcut decides it
    centre_in = ([-0.1, -0.1], [0.1, 0.1])
    lo, hi = zip(lp_only, lp_only, centre_in)
    assert any(box_intersects(DIAMOND, l, h) for l, h in zip(lo, hi))
    assert len(lps) == 2
    lps.clear()
    assert box_intersects(DIAMOND, lo, hi)
    assert lps == []
    assert not box_intersects(DIAMOND, lo[:2], hi[:2])
    assert len(lps) == 2


@pytest.mark.parametrize("s", [s for s, _ in STACK_SETS], ids=STACK_KINDS)
def test_stacks_are_checked_like_single_queries(s):
    ok = np.zeros((3, 2))
    with pytest.raises(DimensionMismatch) as err:
        s.contains(np.zeros((3, 3)))
    assert (err.value.set_dim, err.value.point_dim) == (2, 3)
    with pytest.raises(DimensionMismatch) as err:
        box_intersects(s, ok, np.ones((3, 1)))
    assert (err.value.set_dim, err.value.point_dim) == (2, 1)
    with pytest.raises(GeometryError, match="nonempty"):
        s.contains(np.zeros((0, 2)))
    with pytest.raises(GeometryError, match="nonempty"):
        box_intersects(s, np.zeros((0, 2)), np.zeros((0, 2)))
    with pytest.raises(GeometryError, match="finite"):
        s.contains([[0.0, 0.0], [math.nan, 0.0]])
    with pytest.raises(GeometryError, match="finite"):
        box_intersects(s, ok, [[1.0, 1.0], [1.0, math.inf], [1.0, 1.0]])
    with pytest.raises(GeometryError, match="3 lower corners but 2 upper"):
        box_intersects(s, ok, np.ones((2, 2)))
    with pytest.raises(GeometryError, match="must not exceed"):
        box_intersects(s, ok, [[1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])


def test_box_distance_takes_one_box():
    ball = Ball([0.0, 0.0], 1.0)
    with pytest.raises(GeometryError, match="one box"):
        box_distance(ball, np.zeros((2, 2)), np.ones((2, 2)))


# -- row-aligned stacks of sets: row k is the set moved to reference k -------------

# The stack sets, plus a polytope with oblique normals, whose translation b + A t
# rounds.
MOVED_SETS = STACK_SETS + [(Polytope(*random_polytope(np.random.default_rng(3), 2, 7)), [])]
MOVED_KINDS = STACK_KINDS + ["oblique-polytope"]
FAR = 1e6  # no set here, wherever it is moved, reaches a query this far out


def _shift(s, ref):
    """The translation that moved_to(ref) applies to `s`."""
    return ref if isinstance(s, Polytope) else ref - s.reference()


def _only_row(k, row, n):
    """An (n, 2) stack that is `row` at k and far from every set elsewhere."""
    stack = np.full((n, 2), FAR)
    stack[k] = row
    return stack


@pytest.mark.parametrize("s, boundary", MOVED_SETS, ids=MOVED_KINDS)
def test_row_k_of_a_moved_stack_tests_as_the_set_moved_to_reference_k(s, boundary):
    rng = np.random.default_rng(13)
    outcomes = set()
    for trial in range(60):
        n = int(rng.integers(1, 6))
        if trial % 2:  # quarter steps, so moved boundary points stay exact
            refs = rng.integers(-12, 12, size=(n, 2)) / 4.0
        else:
            refs = rng.uniform(-3.0, 3.0, size=(n, 2))
        stack = s.moved_to(refs)
        ones = [s.moved_to(ref) for ref in refs]
        P = refs + rng.uniform(-2.0, 2.0, size=(n, 2))
        for k in range(n):
            if boundary and rng.random() < 0.4:
                P[k] = np.asarray(boundary[rng.integers(len(boundary))]) + _shift(s, refs[k])
        half = rng.uniform(0.0, 0.6, size=(n, 2))
        lo, hi = P - half, P + half
        for k, one in enumerate(ones):
            assert stack.contains(_only_row(k, P[k], n)) == one.contains(P[k])
            assert (box_intersects(stack, _only_row(k, lo[k], n), _only_row(k, hi[k], n))
                    == box_intersects(one, lo[k], hi[k]))
            outcomes.add(one.contains(P[k]))
        assert stack.contains(P) == any(one.contains(p) for one, p in zip(ones, P))
        assert box_intersects(stack, lo, hi) == any(
            box_intersects(one, l, h) for one, l, h in zip(ones, lo, hi))
        if isinstance(s, Polytope):  # row k's offsets round as the set moved alone
            assert np.array_equal(stack.b, [one.b for one in ones])
    assert outcomes == {True, False}


@pytest.mark.parametrize("s", [s for s, _ in STACK_SETS], ids=STACK_KINDS)
def test_a_stack_of_sets_takes_one_query_per_row(s):
    stack = s.moved_to(np.zeros((3, 2)))
    with pytest.raises(GeometryError, match="point stack of 2 against a stack of 3 sets"):
        stack.contains(np.zeros((2, 2)))
    with pytest.raises(GeometryError, match="point stack of 1 against a stack of 3 sets"):
        stack.contains([0.0, 0.0])
    with pytest.raises(GeometryError,
                       match="box lower corner stack of 4 against a stack of 3 sets"):
        box_intersects(stack, np.zeros((4, 2)), np.ones((4, 2)))


@pytest.mark.parametrize("s", [s for s, _ in STACK_SETS], ids=STACK_KINDS)
def test_a_stack_of_sets_has_no_payload(s):
    stack = s.moved_to(np.zeros((2, 2)))
    with pytest.raises(GeometryError, match=f"payload takes one {s.kind}, got a stack of 2"):
        stack.payload()
    with pytest.raises(GeometryError, match="got a stack of 2"):
        stack.distance([0.0, 0.0])
    with pytest.raises(GeometryError, match="got a stack of 2"):
        stack.moved_to([0.0, 0.0])


def test_update_relative_on_a_stack_moves_the_base_to_each_position_plus_offset():
    spec = RelativeSetSpec("u", Hyperrectangle([-1.0, 0.0], [1.0, 2.0]), [0.5, -0.25], "a")
    positions = [[0.0, 0.0], [3.0, 1.5], [-2.25, 4.0]]
    stack = update_relative(spec, positions)
    assert stack.rows == 3
    for k, pos in enumerate(positions):
        one = update_relative(spec, pos)
        assert one.rows is None
        assert (stack.lower[k].tolist(), stack.upper[k].tolist()) == \
            (one.lower.tolist(), one.upper.tolist())


# -- entry_time and reference: the closed forms eval's TTC reads ---------------

T_MARCH, H_MARCH = 20.0, 1.0 / 256  # dyadic step: marched times are exact


def _first_inside(s, pos, vel):
    """The first marched time j * H_MARCH <= T_MARCH at which the ray is in
    the set, by `contains`; math.inf if none. Membership of a prefix of the
    march only grows, so a bisection over prefixes finds it."""
    taus = np.arange(int(T_MARCH / H_MARCH) + 1) * H_MARCH
    ray = pos + vel * taus[:, None]
    if not s.contains(ray):
        return math.inf
    lo, hi = 0, len(taus)  # ray[:lo] holds no point of the set, ray[:hi] one
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if s.contains(ray[:mid]) else (mid, hi)
    return float(taus[lo])


def _entry_rays(s, boundary, rng):
    """Seeded random rays, plus rays with a zero-velocity axis, rays
    standing still, rays from boundary points and rays aimed at the set's
    reference point at a marched time."""
    rays = [(rng.uniform(-4.0, 4.0, 2), rng.uniform(-2.0, 2.0, 2)) for _ in range(40)]
    for axis in (0, 1):
        for _ in range(6):
            pos, vel = rng.uniform(-4.0, 4.0, 2), rng.uniform(-2.0, 2.0, 2)
            vel[axis] = 0.0
            rays.append((pos, vel))
    rays += [(rng.uniform(-4.0, 4.0, 2), np.zeros(2)) for _ in range(4)]
    rays += [(np.asarray(b, dtype=float), rng.uniform(-2.0, 2.0, 2))
             for b in boundary for _ in range(3)]
    ref = s.reference()
    for vel, tau in (([2.0, -1.0], 1.5), ([0.0, 0.5], 3.0), ([-1.0, 0.0], 0.25)):
        vel = np.array(vel)
        rays.append((ref - vel * tau, vel))
    return rays


@pytest.mark.parametrize("s, boundary", MOVED_SETS, ids=MOVED_KINDS)
def test_entry_time_brackets_the_first_marched_sample_inside(s, boundary):
    rng = np.random.default_rng(29)
    outcomes = set()
    for pos, vel in _entry_rays(s, boundary, rng):
        tau = s.entry_time(pos, vel)
        first = _first_inside(s, pos, vel)
        assert tau >= 0.0
        if math.isinf(tau):
            # A ray that never enters has no marched sample inside.
            assert math.isinf(first), (pos, vel, first)
            outcomes.add("never")
            continue
        # The entry point is on the set, and no sample before it is inside.
        assert s.distance(pos + vel * tau) <= 1e-9, (pos, vel, tau)
        assert tau <= first + 1e-9, (pos, vel, tau, first)
        if not math.isinf(first):
            # The in-set times form an interval, so the sample one step
            # before the first one inside lies before the entry.
            assert tau > first - H_MARCH - 1e-9, (pos, vel, tau, first)
            outcomes.add("start" if first == 0.0 else "enter")
    assert outcomes == {"never", "start", "enter"}


@pytest.mark.parametrize("s", [PointSet([0.5, -0.25]), Ball([0.5, -0.25], 1.0),
                               Hyperrectangle([-1.0, -0.5], [0.5, 1.0])],
                         ids=["point", "ball", "hyperrectangle"])
def test_reference_is_the_point_moved_to_places(s):
    rng = np.random.default_rng(31)
    for ref in rng.uniform(-5.0, 5.0, size=(30, 2)):
        assert s.moved_to(ref).reference() == pytest.approx(ref, rel=1e-15, abs=1e-15)


def test_polytope_reference_moves_with_the_translation():
    rng = np.random.default_rng(37)
    poly = Polytope(*random_polytope(rng, 2, 6))  # six rows in 2-D: full column rank
    base = poly.reference()
    for shift in rng.uniform(-5.0, 5.0, size=(30, 2)):
        assert poly.moved_to(shift).reference() == pytest.approx(base + shift, abs=1e-12)


# -- stacked distance and entry_time equal the per-row references, bit for bit --------

def test_row_dots_round_as_one_row_alone():
    """matmul of 1 x dim by dim x 1 blocks runs the dot of `a @ b` for each
    row; (a * b).sum(axis=1) would not. A numpy that breaks this fails here."""
    rng = np.random.default_rng(41)
    for dim in (1, 2, 3):
        scale = 10.0 ** rng.integers(-3, 4, size=(5000, 1))
        a, b = rng.normal(size=(5000, dim)) * scale, rng.normal(size=(5000, dim))
        assert row_dots(a, b).tolist() == [float(x @ y) for x, y in zip(a, b)]
        assert row_norms(a).tolist() == [float(np.linalg.norm(x)) for x in a]


# (rel_pos, rel_vel, radius, the branch the scalar quadratic takes)
BALL_CASES = [
    ([0.5, 0.0], [1.0, 0.0], 1.0, "inside"),
    ([1.0, 0.0], [3.0, 1.0], 1.0, "inside"),        # on the sphere: c == 0
    ([3.0, 0.0], [0.0, 0.0], 1.0, "a == 0"),
    ([3.0, 0.0], [1.0, 0.0], 1.0, "b >= 0"),
    ([3.0, 0.5], [2.0, 0.1], 1.0, "b >= 0"),
    ([3.0, 0.0], [0.0, 2.0], 1.0, "missed"),
    ([-5.0, 1.0], [1.0, 0.0], 1.0 - 1e-14, "grazing"),
    ([-5.0, 1.0], [1.0, 0.0], 1.0 - 1e-9, "missed"),
    ([-5.0, 1.0], [1.0, 0.0], 1.0, "root"),         # tangent: disc == 0
    ([-5.0, 0.5], [2.0, 0.0], 1.0, "root"),
    ([-4.0], [0.5], 0.0, "root"),
    # Near-parallel agents 0.67 m apart: the tolerance's floor of 1 calls it grazing.
    ([-1.0, 0.67], [6.9e-7, 0.0], 0.0, "grazing"),
    ([-2.0, 1.0, 0.5], [1.0, -0.5, -0.25], 0.0, "root"),
    ([-2.0, 1.0, 0.5], [1.0, -0.5, -0.2], 0.3, "root"),
]


def _branch(rel_pos, rel_vel, radius):
    """The case of the scalar quadratic that one row takes."""
    rel_pos, rel_vel = np.asarray(rel_pos, dtype=float), np.asarray(rel_vel, dtype=float)
    c = float(rel_pos @ rel_pos) - radius * radius
    a = float(rel_vel @ rel_vel)
    b = 2.0 * float(rel_pos @ rel_vel)
    disc = b * b - 4.0 * a * c
    if c <= 0.0:
        return "inside"
    if a == 0.0:
        return "a == 0"
    if disc < 0.0:
        return "grazing" if disc > -1e-12 * max(b * b, abs(4.0 * a * c), 1.0) else "missed"
    return "b >= 0" if b >= 0.0 else "root"


@pytest.mark.parametrize("rel_pos, rel_vel, radius, branch", BALL_CASES)
def test_ball_entry_time_rows_equal_the_scalar_quadratic(rel_pos, rel_vel, radius, branch):
    assert _branch(rel_pos, rel_vel, radius) == branch
    P, V = np.array([rel_pos]), np.array([rel_vel])
    assert ball_entry_time(P, V, radius).tolist() == [ref_ball_entry_time(P[0], V[0], radius)]


def test_ball_entry_time_of_random_rows_equals_the_scalar_quadratic():
    rng = np.random.default_rng(43)
    for dim in (1, 2, 3):
        P = rng.uniform(-4.0, 4.0, size=(3000, dim))
        V = rng.uniform(-2.0, 2.0, size=(3000, dim))
        V[::7] = 0.0
        V[1::7, 0] = 0.0
        radii = rng.uniform(0.0, 2.0, size=3000)
        radii[::5] = 0.0
        want = [ref_ball_entry_time(p, v, r) for p, v, r in zip(P, V, radii.tolist())]
        assert ball_entry_time(P, V, radii).tolist() == want
        branches = {_branch(p, v, r) for p, v, r in zip(P, V, radii.tolist())}
        # a 1-D course cannot miss: it runs through the ball or away from it
        assert branches >= {"inside", "a == 0", "b >= 0", "root", *(["missed"] if dim > 1 else [])}
        # the same radius for every row
        want = [ref_ball_entry_time(p, v, 1.25) for p, v in zip(P, V)]
        assert ball_entry_time(P, V, 1.25).tolist() == want


# Sets of each kind in 1-D, 2-D and 3-D.
EXACT_SETS = [
    PointSet([0.5]), Ball([0.5], 1.0), Hyperrectangle([-1.0], [0.5]),
    Polytope([[1.0], [-1.0]], [0.5, 1.0]),
    PointSet([0.5, -0.25]), Ball([0.5, -0.25], 1.0), Hyperrectangle([-1.0, -0.5], [0.5, 1.0]),
    DIAMOND, Polytope(*random_polytope(np.random.default_rng(3), 2, 7)),
    PointSet([0.5, -0.25, 1.0]), Ball([0.5, -0.25, 1.0], 0.75),
    Hyperrectangle([-1.0, -0.5, 0.0], [0.5, 1.0, 0.25]),
    Polytope(*random_polytope(np.random.default_rng(5), 3, 6)),
]
EXACT_IDS = [f"{s.kind}-{s.dim}d" for s in EXACT_SETS]


def _courses(s, rng, n=60):
    """Random courses, with a zero velocity on one axis in some, standing
    still in some, from inside the set in some, and some aimed at the
    reference point in quarter steps, so that they reach it exactly."""
    P = s.reference() + rng.uniform(-3.0, 3.0, size=(n, s.dim))
    V = rng.uniform(-2.0, 2.0, size=(n, s.dim))
    V[1::6, rng.integers(s.dim)] = 0.0
    V[2::6] = 0.0
    P[3::6] = s.reference()
    V[4::6] = rng.integers(-8, 9, size=V[4::6].shape) / 4.0
    P[4::6] = s.reference() - 1.5 * V[4::6]
    return P, V


@pytest.mark.parametrize("s", EXACT_SETS, ids=EXACT_IDS)
def test_distance_and_entry_time_of_a_stack_of_queries_equal_the_per_row_references(s):
    rng = np.random.default_rng(47)
    P, V = _courses(s, rng)
    assert s.distance(P).tolist() == [ref_distance(s, p) for p in P]
    taus = s.entry_time(P, V).tolist()
    assert taus == [ref_entry_time(s, p, v) for p, v in zip(P, V)]
    assert {0.0, math.inf} < set(taus)  # inside, never and a finite entry
    assert [s.distance(p) for p in P] == s.distance(P).tolist()
    assert [s.entry_time(p, v) for p, v in zip(P, V)] == taus


@pytest.mark.parametrize("s", EXACT_SETS, ids=EXACT_IDS)
def test_a_stack_of_sets_measures_row_k_against_set_k(s):
    rng = np.random.default_rng(53)
    P, V = _courses(s, rng)
    refs = s.reference() + rng.uniform(-1.0, 1.0, size=(len(P), s.dim))
    moved = s.moved_to(refs)
    ones = [s.moved_to(r) for r in refs]
    assert moved.distance(P).tolist() == [ref_distance(o, p) for o, p in zip(ones, P)]
    assert moved.entry_time(P, V).tolist() == [
        ref_entry_time(o, p, v) for o, p, v in zip(ones, P, V)]


@pytest.mark.parametrize("s", EXACT_SETS, ids=EXACT_IDS)
def test_stack_sets_stacks_the_definitions_own_arrays(s):
    """Parsed definitions, stacked as they are: a box's corners are never
    rebuilt from its reference, nor a ball's radius made one."""
    rng = np.random.default_rng(59)
    P, V = _courses(s, rng, n=12)
    defs = []
    for k in range(len(P)):
        payload = s.moved_to(s.reference() + rng.uniform(-1.0, 1.0, s.dim)).payload()
        if isinstance(s, Ball):
            payload[1] = float(rng.uniform(0.5, 1.5))  # a radius per sample
        if isinstance(s, Hyperrectangle):
            payload[1][0] += float(rng.uniform(0.0, 1.0))  # corners moving unevenly
        defs.append(set_from_payload(s.kind, payload))
    (n, stack), = stack_sets(defs)
    assert (n, stack.rows) == (len(defs), len(defs))
    assert stack.distance(P).tolist() == [ref_distance(d, p) for d, p in zip(defs, P)]
    assert stack.entry_time(P, V).tolist() == [
        ref_entry_time(d, p, v) for d, p, v in zip(defs, P, V)]
    assert stack_sets([defs[0]] * 3) == [(3, defs[0])]


def test_stack_sets_ends_a_stack_where_the_polytope_matrix_changes():
    square = Polytope([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [1.0] * 4)
    defs = [square, square.moved_to([1.0, 0.0]), DIAMOND, DIAMOND, square]
    stacks = stack_sets(defs)
    assert [(n, s.rows) for n, s in stacks] == [(2, 2), (2, 2), (1, 1)]
    P = np.array([[2.0, 0.0], [2.5, 0.5], [1.5, 0.0], [0.0, -2.0], [0.0, 3.0]])
    got = np.concatenate([s.distance(P[k:k + n]) for k, (n, s) in zip((0, 2, 4), stacks)])
    assert got.tolist() == [ref_distance(d, p) for d, p in zip(defs, P)]


@pytest.mark.parametrize("s", [s for s, _ in STACK_SETS], ids=STACK_KINDS)
def test_one_course_against_a_stack_of_sets_is_rejected(s):
    stack = s.moved_to(np.zeros((2, 2)))
    with pytest.raises(GeometryError, match="got a stack of 2"):
        stack.entry_time([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(GeometryError, match="point stack of 3 against a stack of 2 sets"):
        stack.distance(np.zeros((3, 2)))
    with pytest.raises(GeometryError, match="2 positions but 1 velocities"):
        s.entry_time(np.zeros((2, 2)), [[1.0, 0.0]])
