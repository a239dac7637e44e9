import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from rifslab import (BernoulliSampler, CarpetSpec, CylinderMeasure, OmegaSeq,
                     ResourceError, Rifs, UsageError, attractor_points,
                     carpet_system, continuity_probe, cylinder_cover,
                     cylinder_images, hausdorff_distance, level_masses,
                     resolution_depth, sample_omega, splice)
from rifslab.geometry import (Affine2, AmbientBox, ClosedFormMap, Similarity,
                              unit_box)
from rifslab import hausdorff, model
from rifslab.hausdorff import _SweepSet, _TILT, _directed_sq_sweep
from rifslab.model import (DEFAULT_BUDGET, DeterministicIfs, _ExactSum,
                           _boxes, _chunks, _points)

from composition import compose

THIRD = 1.0 / 3.0


def cantor_rifs():
    sparse = DeterministicIfs(
        (Similarity(THIRD, (0.0,)), Similarity(THIRD, (2 * THIRD,))),
        "sparse")
    full = DeterministicIfs(
        (Similarity(THIRD, (0.0,)), Similarity(THIRD, (THIRD,)),
         Similarity(THIRD, (2 * THIRD,))), "full")
    return Rifs((sparse, full), unit_box(1))


def test_system_needs_maps_of_one_dimension():
    with pytest.raises(UsageError):
        DeterministicIfs((), "empty")
    with pytest.raises(UsageError):
        DeterministicIfs(
            (Similarity(0.5, (0.0,)), Similarity(0.5, (0.0, 0.0))), "mixed")


def test_systems_and_maps_are_stored_as_tuples():
    # as lists they left the records unhashable, and unequal to the same
    # records built from tuples
    maps = [Similarity(0.5, (0.0,)), Similarity(0.5, (0.5,))]
    listed = DeterministicIfs(maps, "halves")
    tupled = DeterministicIfs(tuple(maps), "halves")
    assert listed.maps == tuple(maps)
    assert listed == tupled and hash(listed) == hash(tupled)
    rifs = Rifs([listed], unit_box(1))
    assert rifs.systems == (tupled,)
    assert rifs == Rifs((tupled,), unit_box(1))
    assert hash(rifs) == hash(Rifs((tupled,), unit_box(1)))


def test_ambient_box_ends_are_stored_as_floats():
    # int ends gave the walk int64 families, which failed at the first
    # product with the maps' float coefficients
    assert AmbientBox([0.0], [1.0]) == unit_box(1)
    box = AmbientBox((0,), (1,))
    assert [type(v) for v in box.lo + box.hi] == [float, float]
    system = DeterministicIfs(
        (Similarity(0.5, (0.0,)), Similarity(0.5, (0.5,))), "halves")
    omega = OmegaSeq((), (1,))
    got = cylinder_cover(Rifs((system,), box), omega, 2)
    want = cylinder_cover(Rifs((system,), unit_box(1)), omega, 2)
    assert got.boxes.dtype == np.float64
    np.testing.assert_array_equal(got.boxes, want.boxes)


def test_rifs_rejects_maps_leaving_the_box():
    runaway = DeterministicIfs((Similarity(0.5, (0.9,)),), "runaway")
    # only points near the top edge leave: (0.5, 1.2498) -> (0.5, 1.2499)
    arch = DeterministicIfs((ClosedFormMap("arch_top_mid"),), "arch")
    for system, box in ((runaway, unit_box(1)),
                        (arch, AmbientBox((0.0, 0.0), (1.0, 1.2498)))):
        with pytest.raises(UsageError, match="leaves the ambient box"):
            Rifs((system,), box)


def test_rifs_accepts_boundary_touching_maps():
    # images may touch the boundary.  In exact arithmetic 0.1 * 1 + 0.9 ends
    # 2.8e-17 past 1, but the floats the walk computes end at 1.0, and
    # those are what is checked
    cantor_rifs()
    for ratio in (0.1, 0.2):
        top = Similarity(ratio, (1.0 - ratio,))
        assert top.image_box(unit_box(1))[0][1] == 1.0
        Rifs((DeterministicIfs((top,), "top"),), unit_box(1))


def test_rifs_refuses_an_overshoot_of_any_size():
    # containment is checked on the floats, with no tolerance: this map's
    # image ends 5e-10 past the box
    edge = Similarity(0.5, (0.5 + 5e-10,))
    assert edge.image_box(unit_box(1))[0][1] > 1.0
    with pytest.raises(UsageError, match="leaves the ambient box"):
        Rifs((DeterministicIfs((edge,), "edge"),), unit_box(1))


def test_rifs_accepts_every_square_carpet_grid_up_to_64():
    for m in range(2, 65):
        cells = tuple(itertools.product(range(m), repeat=2))
        carpet = carpet_system(CarpetSpec(m, m, cells), f"{m}x{m}")
        Rifs((carpet,), unit_box(2))


@pytest.mark.parametrize("reflect", (False, True))
@pytest.mark.parametrize("deg", (0.0, 90.0, 180.0, 270.0, -90.0, 450.0))
def test_rifs_accepts_quarter_turns_into_each_quadrant(deg, reflect):
    # quarter turns are exact, so each image's float box is its quadrant;
    # math.cos(pi / 2) is 6.1e-17, which would push some ends past 0
    linear = Similarity(0.5, (0.0, 0.0), deg, reflect).image_box(unit_box(2))
    for corner in itertools.product((0.0, 0.5), repeat=2):
        shift = tuple(c - lo for c, (lo, _) in zip(corner, linear))
        quadrant = Similarity(0.5, shift, deg, reflect)
        assert quadrant.image_box(unit_box(2)) == tuple(
            (c, c + 0.5) for c in corner)
        Rifs((DeterministicIfs((quadrant,), "quadrant"),), unit_box(2))


def test_carpet_system_grid_cells():
    carpet = CarpetSpec(2, 4, ((0, 0), (1, 3)))
    sys_ = carpet_system(carpet, "cells")
    assert len(sys_.maps) == 2
    box = unit_box(2).as_array()[None, :, :]
    img = sys_.maps[1].image_box_array(box)[0]
    assert img[0].tolist() == [0.5, 1.0]
    assert img[1].tolist() == [0.75, 1.0]
    # square grids degrade to similarities
    square = carpet_system(CarpetSpec(3, 3, ((1, 1),)), "sq")
    assert square.maps[0].kind == "similarity"


def _words(rifs, om, depth):
    """Every depth-k word, lexicographic with the first symbol most
    significant: the order the covers promise."""
    return list(itertools.product(
        *(range(len(rifs.system_for_level(om, l).maps))
          for l in range(1, depth + 1))))


def _composition(rifs, om, word):
    return compose(rifs.system_for_level(om, l).maps[i]
                   for l, i in enumerate(word, start=1))


def test_cylinder_cover_counts_and_order():
    rifs = cantor_rifs()
    om = OmegaSeq((2,), (1,))
    cover = cylinder_cover(rifs, om, 3)
    # level 1 has 3 maps, levels 2..3 have 2
    assert cover.count == 3 * 2 * 2
    words = _words(rifs, om, 3)
    assert words[0] == (0, 0, 0)
    assert words[1] == (0, 0, 1)
    assert words[-1] == (2, 1, 1)
    # row j is word j: its left end has ternary digits (i1, 2 i2, 2 i3)
    lefts = [(a + 2 * b * THIRD + 2 * c * THIRD ** 2) * THIRD
             for a, b, c in words]
    assert cover.boxes[:, 0, 0] == pytest.approx(lefts, abs=1e-15)


def mixed_rifs():
    rot = Similarity(0.4, (0.3, 0.4), rotation_deg=30.0)
    shear = Affine2([[0.4, 0.2], [0.0, 0.5]], (0.1, 0.2))
    carpet = carpet_system(CarpetSpec(2, 3, ((0, 0), (1, 2))), "cells")
    closed = DeterministicIfs((ClosedFormMap("arch_left"),
                               ClosedFormMap("quad_x_top_left")), "closed")
    return Rifs((DeterministicIfs((rot, shear), "linear"), carpet, closed),
                unit_box(2))


def test_cylinder_boxes_match_compositions():
    for rifs, om, depth in ((cantor_rifs(), OmegaSeq((), (1,)), 2),
                            (cantor_rifs(), OmegaSeq((2,), (1, 2)), 4),
                            (mixed_rifs(), OmegaSeq((3, 1), (2, 1, 3)), 4)):
        cover = cylinder_cover(rifs, om, depth)
        ambient = rifs.ambient.as_array()[None, :, :]
        words = _words(rifs, om, depth)
        assert cover.count == len(words)
        for word, box in zip(words, cover.boxes):
            comp = _composition(rifs, om, word)
            assert np.array_equal(comp.image_box_array(ambient)[0], box)


def test_cylinder_cover_nests():
    rifs = cantor_rifs()
    om = OmegaSeq((), (2, 1))
    parent = cylinder_cover(rifs, om, 2)
    child = cylinder_cover(rifs, om, 3)
    branch = child.count // parent.count
    grouped = child.boxes.reshape(parent.count, branch, 1, 2)
    assert np.all(grouped[:, :, :, 0] >= parent.boxes[:, None, :, 0] - 1e-12)
    assert np.all(grouped[:, :, :, 1] <= parent.boxes[:, None, :, 1] + 1e-12)


def test_cylinder_cover_error_bound_shrinks():
    rifs = cantor_rifs()
    om = OmegaSeq((), (1,))
    errs = [cylinder_cover(rifs, om, k).error_bound for k in (1, 2, 3, 4)]
    assert errs == sorted(errs, reverse=True)
    assert errs[3] == pytest.approx(THIRD ** 4)


def test_cylinder_budget_enforced():
    rifs = cantor_rifs()
    om = OmegaSeq((), (2,))
    with pytest.raises(ResourceError) as exc:
        cylinder_cover(rifs, om, 10, budget=100)
    # the count at the first level over budget: 3^4 = 81 fits, 3^5 does not
    assert exc.value.count == 3 ** 5


def cover_chunks(rifs, om, depth, budget=DEFAULT_BUDGET):
    """cylinder_cover's boxes, streamed by the walk."""
    return _chunks(*_boxes(rifs, om, depth, budget)[0])


def _streamed_count(rifs, om, k, budget):
    # two-leaf chunks: the walk never builds a family of the full count
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_CHUNK_LEAVES", 2)
        return sum(len(boxes) for boxes in cover_chunks(rifs, om, k, budget))


# each builder returns the number of cylinders it built
@pytest.mark.parametrize("build", [
    lambda rifs, om, k, budget: cylinder_cover(rifs, om, k, budget).count,
    lambda rifs, om, k, budget: len(
        cylinder_images(rifs, om, k, [[0.5]], budget)),
    lambda rifs, om, k, budget: len(
        level_masses(CylinderMeasure(rifs, om), k, budget)),
    _streamed_count,
], ids=["cylinder_cover", "cylinder_images", "level_masses", "cover_chunks"])
def test_every_cylinder_family_checks_the_budget(build):
    rifs = cantor_rifs()
    om = OmegaSeq((2,), (1,))
    count = 3 * 2 * 2 * 2
    with pytest.raises(ResourceError) as exc:
        build(rifs, om, 4, count - 1)
    assert exc.value.count == count
    assert build(rifs, om, 4, count) == count


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_cover_chunks_concatenate_to_the_cover(data):
    # 1-D similarities; rotation, shear, grid cells, arch and quad forms
    rifs = data.draw(st.sampled_from((cantor_rifs(), mixed_rifs())))
    n = len(rifs.systems)
    om = OmegaSeq(tuple(data.draw(st.lists(st.integers(1, n), max_size=4))),
                  tuple(data.draw(st.permutations(range(1, n + 1)))))
    depth = data.draw(st.integers(1, 6))
    # chunks of one leaf up to the whole cover: every prefix length
    target = data.draw(st.sampled_from((1, 2, 3, 7, model._CHUNK_LEAVES)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_CHUNK_LEAVES", target)
        chunks = [boxes.copy() for boxes in cover_chunks(rifs, om, depth)]
    assert max(len(boxes) for boxes in chunks) <= target
    assert np.array_equal(np.concatenate(chunks),
                          cylinder_cover(rifs, om, depth).boxes)


def sum_values(kind, n, rng):
    sign = rng.choice((-1.0, 1.0), n)
    if kind == "wide":          # 1e-8..1e8, a tenth of them zeros
        values = sign * 10.0 ** rng.uniform(-8.0, 8.0, n)
        values[rng.random(n) < 0.1] = 0.0
    elif kind == "range":       # 1e-300..1e300 within one array
        values = sign * 10.0 ** rng.uniform(-300.0, 300.0, n)
    elif kind == "subnormal":   # below 2**-1022, down to one ulp
        values = sign * rng.integers(0, 2 ** 52, n) * 2.0 ** -1074
    elif kind == "cancel":      # x and -x in any order
        half = sign[:n // 2] * 10.0 ** rng.uniform(-300.0, 300.0, n // 2)
        values = rng.permutation(np.concatenate((half, -half, [1.0][:n % 2])))
    else:                       # near the float max, mixed with 1e-100..
        values = sign * np.finfo(float).max * rng.uniform(0.5, 1.0, n)
        small = rng.random(n) < 0.5
        values[small] = sign[small] * 10.0 ** rng.uniform(-100.0, 300.0,
                                                          small.sum())
    return values


@given(n=st.one_of(st.sampled_from((0, 1, 7, 8, 127, 128, 129)),
                   st.integers(0, 3000),
                   st.integers(2 ** 17 + 1, 3 * 2 ** 17)),
       kind=st.sampled_from(("wide", "range", "subnormal", "cancel", "huge")),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
@settings(max_examples=200, deadline=None)
def test_exact_sum_equals_fsum(n, kind, seed, data):
    # pushed in up to 13 pieces, empty ones included
    values = sum_values(kind, n, np.random.default_rng(seed))
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=12)))
    acc = _ExactSum()
    for piece in np.split(values, cuts):
        acc.push(piece)
    if kind == "huge":
        # fsum raises once a partial sum leaves the float range, so it sums
        # the values scaled by 2**-100 (exact for these), and the scaled
        # total, rounded once, is scaled back: +-inf beyond the range
        assert acc.total == math.fsum(values * 2.0 ** -100) * 2.0 ** 100
    else:
        assert acc.total == math.fsum(values)


BIG = float(np.finfo(float).max)


@pytest.mark.parametrize("pushes", [
    [[BIG, BIG]], [[-BIG], [], [-BIG, 1.0]],            # finite, beyond range
    [[1.0, math.inf], [2.0]], [[math.inf], [math.inf, -1.0]],
    [[-math.inf, 3.0]], [[math.inf], [-1.0, -math.inf]],
    [[math.nan], []], [[1.0], [math.inf, math.nan]],
])
def test_exact_sum_overflow_inf_and_nan_as_np_sum(pushes):
    acc = _ExactSum()
    for piece in pushes:
        acc.push(np.array(piece, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.concatenate([np.array(p, dtype=float)
                                   for p in pushes]).sum()
    assert repr(acc.total) == repr(float(expected))


def reflected_rifs(rifs):
    # one more system of reflected similarities, rotated or not
    if rifs.ambient.dim == 1:
        maps = (Similarity(THIRD, (1.0,), reflect=True),)
    else:
        maps = (Similarity(0.3, (0.5, 0.3), rotation_deg=60.0, reflect=True),
                Similarity(0.25, (0.6, 0.5), reflect=True))
    return Rifs(rifs.systems + (DeterministicIfs(maps, "reflected"),),
                rifs.ambient)


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_image_chunks_concatenate_to_the_images(data):
    # 1-D similarities; rotation, reflection, shear, grid cells, arch and
    # quad forms; one seed or several
    rifs = reflected_rifs(data.draw(st.sampled_from((cantor_rifs(),
                                                     mixed_rifs()))))
    n = len(rifs.systems)
    om = OmegaSeq(tuple(data.draw(st.lists(st.integers(1, n), max_size=4))),
                  tuple(data.draw(st.permutations(range(1, n + 1)))))
    depth = data.draw(st.integers(0, 6))
    dim = rifs.ambient.dim
    seeds = data.draw(hnp.arrays(
        float, st.tuples(st.integers(1, 3), st.just(dim)),
        elements=st.floats(0.0, 1.0)))
    # one map of a single row can round unlike a batch: one-cylinder chunks
    # of one seed must still match
    target = data.draw(st.sampled_from((1, 2, 3, 7, model._CHUNK_LEAVES)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "_CHUNK_LEAVES", target)
        walk = _points(rifs, om, depth, seeds, DEFAULT_BUDGET)
        chunks = [pts.copy() for pts in _chunks(*walk)]
    assert max(len(pts) // len(seeds) for pts in chunks) <= target
    assert np.array_equal(np.concatenate(chunks),
                          cylinder_images(rifs, om, depth, seeds))


def test_cover_walk_holds_the_family_and_two_buffers(traced_peak):
    # depth 8 of the carpet mix: 13,824-box chunks below two prefix levels.
    # A new array per map step held four chunk arrays while the caller kept
    # the last chunk (the family, that chunk and two steps); two reused
    # buffers hold three
    rifs, chunk = _carpet_mix(), 13_824 * 2 * 2 * 8

    def walk():
        for boxes in cover_chunks(rifs, _mix, 8):
            assert len(boxes) == 13_824

    _, peak = traced_peak(walk)
    assert peak < 3.25 * chunk


def test_many_seeds_stream_in_chunks_of_rows(run_isolated):
    # 2048 seeds at depth 6 of the carpet mix: 13,824 cylinders, 28.3M
    # rows.  Chunks cut at 2^15 cylinders made them one 432 MiB family;
    # cut at 2^15 rows, a chunk holds three words' seed blocks
    code = """
import numpy as np
from rifslab import CarpetSpec, OmegaSeq, Rifs, carpet_system
from rifslab.geometry import unit_box
from rifslab.model import DEFAULT_BUDGET, _chunks, _points
cells = tuple((c, r) for r in range(3) for c in range(3) if (c, r) != (1, 1))
rifs = Rifs((carpet_system(CarpetSpec(3, 3, cells), "sierpinski"),
             carpet_system(CarpetSpec(2, 3, ((0, 0), (1, 1), (0, 2))),
                           "grid")), unit_box(2))
t = np.linspace(0.0, 1.0, 2048)
rows = most = 0
for pts in _chunks(*_points(rifs, OmegaSeq((), (1, 2)), 6,
                           np.column_stack((t, 1.0 - t)), DEFAULT_BUDGET)):
    rows, most = rows + len(pts), max(most, len(pts))
print(rows, most)
"""
    res = run_isolated(code, timeout=120, max_bytes=300 << 20)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == [str(13_824 * 2048), str(3 * 2048)]


def flipped_rifs():
    # negative diagonals on either axis, among a rotation and a shear
    flips = DeterministicIfs(
        (Affine2([[0.5, 0.0], [0.0, -0.4]], (0.5, 0.9)),
         Affine2([[-0.3, 0.0], [0.0, 0.5]], (0.3, 0.0))), "flips")
    linear = DeterministicIfs(
        (Similarity(0.4, (0.3, 0.4), rotation_deg=30.0),
         Affine2([[0.4, 0.2], [0.0, 0.5]], (0.1, 0.2))), "linear")
    return reflected_rifs(Rifs((flips, linear), unit_box(2)))


def contiguous_cover(rifs, om, depth):
    # every level maps the whole family below it, held as one contiguous
    # (n, dim, 2) array, map by map in word order
    boxes = rifs.ambient.as_array()[None]
    for level in range(depth, 0, -1):
        maps = rifs.system_for_level(om, level).maps
        boxes = np.concatenate([m.image_box_array(np.ascontiguousarray(boxes))
                                for m in maps])
    return boxes


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_flipped_axes_walk_equals_contiguous_maps(data):
    # reflected 1-D similarities; negative diagonals of affine maps and
    # reflected similarities next to a rotation and a shear
    rifs = data.draw(st.sampled_from((reflected_rifs(cantor_rifs()),
                                      flipped_rifs())))
    n = len(rifs.systems)
    om = OmegaSeq(tuple(data.draw(st.lists(st.integers(1, n), max_size=3))),
                  tuple(data.draw(st.permutations(range(1, n + 1)))))
    depth = data.draw(st.integers(2, 5))
    want = contiguous_cover(rifs, om, depth)
    assert np.all(want[:, :, 0] <= want[:, :, 1])     # flipped ends swap
    got = cylinder_cover(rifs, om, depth).boxes
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    sizes = [len(rifs.system_for_level(om, level).maps)
             for level in range(1, depth + 1)]
    for j in (0, 1, 2):
        # chunks of the leaves below level j: a walk of j prefix levels
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "_CHUNK_LEAVES", math.prod(sizes[j:]))
            chunks = [boxes.copy()
                      for boxes in cover_chunks(rifs, om, depth)]
        assert len(chunks) == math.prod(sizes[:j])
        got = np.concatenate(chunks)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_similarity_diameters_are_ratio_products():
    uneven = DeterministicIfs(
        (Similarity(0.5, (0.0,)), Similarity(0.25, (0.75,))), "uneven")
    rifs = Rifs((uneven, cantor_rifs().systems[1]), AmbientBox((0.0,), (2.0,)))
    om = OmegaSeq((2,), (1,))
    cover = cylinder_cover(rifs, om, 4)
    expect = [2.0 * _composition(rifs, om, w).lip_hi_bound
              for w in _words(rifs, om, 4)]
    assert cover.diameters() == pytest.approx(expect, rel=1e-15, abs=0.0)


def test_cylinder_images_block_layout():
    rifs = cantor_rifs()
    om = OmegaSeq((), (1,))
    seeds = np.array([[0.0], [1.0]])
    pts = cylinder_images(rifs, om, 1, seeds)
    # word-major blocks, seed order inside each block
    assert pts[:, 0].tolist() == pytest.approx([0.0, THIRD, 2 * THIRD, 1.0])


def test_resolution_depth_arithmetic():
    rifs = cantor_rifs()
    om = OmegaSeq((), (1,))
    assert resolution_depth(rifs, om, 0.5) == 1
    assert resolution_depth(rifs, om, THIRD ** 5 * 1.01) == 5
    for target in (0.0, math.nan):
        with pytest.raises(UsageError, match="target error must be > 0"):
            resolution_depth(rifs, om, target)


def test_resolution_depth_reports_best_error_on_budget():
    rifs = cantor_rifs()
    om = OmegaSeq((), (1,))
    with pytest.raises(ResourceError) as exc:
        resolution_depth(rifs, om, 1e-6, budget=100)
    # 2^6 = 64 fits, 2^7 = 128 does not
    assert exc.value.count == 128
    assert exc.value.best_error == pytest.approx(THIRD ** 6)


def test_walks_and_resolution_depth_refuse_the_same_level():
    # one level walk checks both: the first level over budget, with the
    # error bound of the level above it
    rifs = cantor_rifs()
    om = OmegaSeq((), (1,))
    with pytest.raises(ResourceError) as by_target:
        resolution_depth(rifs, om, 1e-6, budget=100)
    with pytest.raises(ResourceError) as by_depth:
        cylinder_cover(rifs, om, 12, budget=100)
    for exc in (by_target, by_depth):
        assert exc.value.count == 128
        assert exc.value.best_error == cylinder_cover(rifs, om, 6).error_bound
        assert str(exc.value) == ("cylinder count 128 at depth 7 exceeds "
                                  "budget 100; best achievable error "
                                  "0.00137174")


def one_map_rifs():
    # 0.999^10000 is about 4.5e-5, so 1e-6 needs more than 10,000 levels
    slow = DeterministicIfs((Similarity(0.999, (0.0,)),), "slow")
    return Rifs((slow,), unit_box(1))


def test_depth_limit_is_ten_thousand_levels():
    om = OmegaSeq((), (1,))
    assert cylinder_cover(one_map_rifs(), om, 10_000).count == 1
    for build in (lambda: cylinder_cover(one_map_rifs(), om, 10_001),
                  lambda: resolution_depth(one_map_rifs(), om, 1e-6)):
        with pytest.raises(ResourceError,
                           match="^depth 10001 exceeds 10000 levels$"):
            build()


def test_deep_one_map_cover_is_refused_at_once(run_isolated):
    # one map per level never raises the count, so only the depth limit
    # stops the walk, before it builds a level list a million long
    code = """
from rifslab import (DeterministicIfs, OmegaSeq, ResourceError, Rifs,
                     Similarity, cylinder_cover, unit_box)
rifs = Rifs((DeterministicIfs((Similarity(0.999, (0.0,)),), "slow"),),
            unit_box(1))
try:
    cylinder_cover(rifs, OmegaSeq((), (1,)), 10 ** 6)
except ResourceError as exc:
    print(exc)
"""
    res = run_isolated(code, timeout=2)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "depth 10001 exceeds 10000 levels"


def halving_rifs(ambient):
    return Rifs((DeterministicIfs((Similarity(0.5, (0.0,)),), "half"),),
                ambient)


def test_error_bound_never_underflows_to_zero():
    # 2^-1075 rounds to 0.0; the bound stays at the least positive float
    om = OmegaSeq((), (1,))
    rifs = halving_rifs(unit_box(1))
    assert cylinder_cover(rifs, om, 1074).error_bound == 2.0 ** -1074
    assert cylinder_cover(rifs, om, 1075).error_bound == math.ulp(0.0)
    with pytest.raises(ResourceError) as refused:
        cylinder_cover(rifs, om, 10 ** 6)
    assert refused.value.best_error == math.ulp(0.0)


def test_error_bound_on_a_huge_box_keeps_its_scale():
    # the level product 2^-1100 underflows on its own, yet times the 1e300
    # diameter the bound is about 7e-32; a product that dropped to 0 would
    # leave only the least positive float, which understates it
    rifs = halving_rifs(AmbientBox((0.0,), (1e300,)))
    bound = cylinder_cover(rifs, OmegaSeq((), (1,)), 1100).error_bound
    assert bound >= math.ldexp(1e300, -1100)


def test_attractor_points_certificate():
    rifs = cantor_rifs()
    om = OmegaSeq((), (1,))
    approx = attractor_points(rifs, om, 0.01)
    assert approx.depth == 5
    assert approx.error_bound <= 0.01
    assert approx.points.shape == (2 ** 5, 1)
    # every point in the box: each axis's least and greatest coordinate
    assert rifs.ambient.holds(zip(approx.points.min(axis=0),
                                  approx.points.max(axis=0)))


def test_hausdorff_known_values():
    a = [[0.0, 0.0]]
    b = [[3.0, 4.0]]
    assert hausdorff_distance(a, b) == pytest.approx(5.0)
    assert hausdorff_distance(a, a) == 0.0
    # asymmetric sets: the directed gap from the far point dominates
    assert hausdorff_distance([[0.0], [10.0]], [[0.0]]) == pytest.approx(10.0)


def test_hausdorff_input_checks():
    with pytest.raises(UsageError):
        hausdorff_distance(np.empty((0, 1)), [[0.0]])
    with pytest.raises(UsageError):
        hausdorff_distance([[0.0]], [[0.0, 0.0]])
    with pytest.raises(UsageError, match="finite"):
        hausdorff_distance([[0.0, math.nan]], [[0.0, 0.0]])
    for shape in ((5, 2, 2), (1, 1, 1)):
        with pytest.raises(UsageError, match="dim"):
            hausdorff_distance(np.zeros(shape), np.zeros(shape))
        with pytest.raises(UsageError, match="dim"):
            hausdorff_distance([[0.0, 0.0]], np.zeros(shape))


def _directed_sq_brute(a, b):
    """max over a of min over b of squared distance, brute force over every
    pair, at most `hausdorff._BRUTE_CHUNK` pairs at a time."""
    rows = max(1, hausdorff._BRUTE_CHUNK // b.shape[0])
    worst = 0.0
    for start in range(0, a.shape[0], rows):
        chunk = a[start:start + rows]
        d2 = ((chunk[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1)
        worst = max(worst, float(d2.min(axis=1).max()))
    return worst


def _brute_hausdorff(a, b):
    return math.sqrt(max(_directed_sq_brute(a, b), _directed_sq_brute(b, a)))


def test_hausdorff_methods_agree_exactly_2d():
    rng = np.random.default_rng(11)
    a = rng.random((400, 2))
    b = rng.random((350, 2)) * 1.2 - 0.1
    assert hausdorff_distance(a, b) == _brute_hausdorff(a, b)


def test_hausdorff_methods_agree_exactly_1d():
    rng = np.random.default_rng(12)
    a = rng.random((500, 1))
    b = rng.random((450, 1))
    assert hausdorff_distance(a, b) == _brute_hausdorff(a, b)


def test_hausdorff_against_scipy():
    scipy_spatial = pytest.importorskip("scipy.spatial")
    rng = np.random.default_rng(13)
    a = rng.random((200, 2))
    b = rng.random((180, 2))
    want = max(scipy_spatial.distance.directed_hausdorff(a, b)[0],
               scipy_spatial.distance.directed_hausdorff(b, a)[0])
    assert hausdorff_distance(a, b) == pytest.approx(want, rel=1e-12)


LAYOUTS = ("free", "grid", "cluster", "outlier", "duplicates", "vertical",
           "horizontal", "diagonal")


@st.composite
def point_set(draw, dim):
    n = draw(st.integers(1, 40))
    pts = draw(hnp.arrays(np.float64, (n, dim), elements=st.floats(-1e5, 1e5)))
    layout = draw(st.sampled_from(LAYOUTS))
    if layout == "grid":            # ties in both coordinates and distances
        pts = np.round(pts / 2e4)
    elif layout == "cluster":       # spread below 1e-6
        pts = pts[0] + pts * 1e-11
    elif layout == "outlier":
        far = draw(st.sampled_from((-1e6, 1e6)))
        pts = np.vstack((pts * 1e-3, np.full((1, dim), far)))
    elif layout == "duplicates":
        pts = pts[draw(st.lists(st.integers(0, n - 1), min_size=1,
                                max_size=60))]
    elif dim > 1 and layout == "vertical":
        pts[:, 0] = pts[0, 0]
    elif dim > 1 and layout == "horizontal":
        pts[:, 1] = pts[0, 1]
    elif dim > 1 and layout == "diagonal":
        pts[:, 1] = pts[:, 0]
    return pts


@st.composite
def point_set_pairs(draw):
    dim = draw(st.sampled_from((1, 2, 3)))
    return draw(point_set(dim)), draw(point_set(dim))


# more points than one sweep block, half of them in a dense cluster
_rng = np.random.default_rng(14)
_many = np.vstack((_rng.random((1500, 2)), 0.5 + 1e-9 * _rng.random((1500, 2))))


def _carpet_mix():
    # 3x3 Sierpinski carpet alternating with cells of a 2x3 grid
    sierpinski = tuple((c, r) for r in range(3) for c in range(3)
                       if (c, r) != (1, 1))
    return Rifs((carpet_system(CarpetSpec(3, 3, sierpinski), "sierpinski"),
                 carpet_system(CarpetSpec(2, 3, ((0, 0), (1, 1), (0, 2))),
                               "grid")), unit_box(2))


def _carpet_mix_points(omega):
    # depth 5, one point per cylinder
    return cylinder_images(_carpet_mix(), omega, 5, np.full((1, 2), 0.5))


# 4608 points in 108 columns of tied x, over more than two sweep blocks
_mix = OmegaSeq((), (1, 2))
_mix_ties = (_carpet_mix_points(_mix),
             _carpet_mix_points(splice(_mix, 2, OmegaSeq((2, 2, 1, 1),
                                                         (1, 2)))))

# Layouts on which the sweep key ties or rounds, each set larger than one
# sweep block: two vertical lines; one point repeated against a spread set;
# two runs along the key's level lines x + alpha * y = c
_n = hausdorff._SWEEP_BLOCK + 52
_vertical = tuple(np.column_stack((np.zeros(m), _rng.random(m)))
                  for m in (_n, _n + 100))
_one_point = (np.full((_n, 2), 0.25), _rng.random((_n, 2)))
_level_lines = tuple(np.column_stack((c - _TILT * y, y))
                     for c, y in ((0.5, _rng.random(_n)),
                                  (0.5 + 1e-9, _rng.random(_n + 7))))


def _key_rounding_sets():
    """Points near (1e5, 1e5), spread about 1e-6, whose sweep keys round.

    In units U of one ulp at 1e5 (2^-36), each point p of a has three
    points of b: q1 = p - (7, 7) at distance sqrt(98), r = p + (., 1000)
    far away but just ahead of p on the key, and q2 = p + (9, 4) at
    distance sqrt(97), whose key gap 9 + 4 alpha rounds to 10 for some p.
    A bound eps on a pair's key error below 0.1 U lets the sweep stop
    after q1 and r, since 10 > sqrt(98 (1 + alpha^2)), and miss q2.
    Triples sit 128 U apart in x, and p's y is drawn from 2^15 steps of U
    so that keys round differently from one triple to the next.
    """
    ulp = 2.0 ** -36
    p = np.column_stack((1e5 + 128 * ulp * np.arange(_n),
                         1e5 + ulp * _rng.integers(0, 1 << 15, _n)))
    offsets = np.array([[-7, -7], [4 - math.floor(1000 * _TILT), 1000],
                        [9, 4]])
    return p, np.vstack([p + ulp * o for o in offsets])


def _bound_not_farthest():
    """Points of a at (0, 0), (10, 0) and (20, 0) whose nearest points of
    b, 0.1, 0.3 and 0.2 to the right, lie past far points of b on each
    side of the key: one on each side for the first two, four for the
    third.

    Their window-1 bounds are about 900, 100 and 900, and the largest does
    not belong to the farthest point: the directed value is 0.09, that of
    (10, 0).  The second pass certifies (0, 0) and (10, 0) one window
    before (20, 0) reaches its nearest point.  Every far point of b has a
    partner in a 0.001 away, so the reverse direction is 0.09 as well.
    Raising the running maximum from a bound not yet certified, in either
    pass, returns about 900.
    """
    far = np.array([[0.05, -30.0], [-0.05, 30.0], [10.05, -10.0], [9.95, 10.0]]
                   + [[20.05 - 0.01 * j, -30.0 - j] for j in range(4)]
                   + [[19.95 + 0.01 * j, 30.0 + j] for j in range(4)])
    partners = far + [0.0, 0.001] * np.sign(far)
    a = np.vstack(([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0]], partners))
    b = np.vstack((far, [[0.1, 0.0], [10.3, 0.0], [20.2, 0.0]]))
    return a, b


# uniform sets: almost no point is certified at window 1, so nearly all
# are left to widen, more than the first two second-pass batches hold
_survivors = (
    _rng.random((hausdorff._FIRST_BATCH + hausdorff._BATCH + 200, 2)),
    _rng.random((1000, 2)))
# a larger than one superblock, its farthest points (x near 1) in the last
_superblocks = (_rng.random((hausdorff._SUPERBLOCK + 1000, 2)),
                _rng.random((300, 2)) * [0.9, 1.0])
# points on a horizontal line against a grid on it: each point's key
# neighbours are its nearest points, so the first pass certifies every one
_certified = (np.column_stack((_rng.random(_n), np.full(_n, 0.25))),
              np.column_stack((np.arange(1001) / 1000, np.full(1001, 0.25))))


@given(point_set_pairs())
@example((_many, _rng.random((700, 2)) * 3.0))
@example(_mix_ties)
@example(_vertical)
@example(_one_point)
@example(_level_lines)
@example(_key_rounding_sets())
@example(_bound_not_farthest())
@example(_survivors)
@example(_superblocks)
@example(_certified)
@settings(deadline=None)
def test_hausdorff_sweep_equals_brute(sets):
    a, b = sets
    assert _directed_sq_sweep(_SweepSet(a), _SweepSet(b)) == \
        _directed_sq_brute(a, b)
    assert hausdorff_distance(a, b) == _brute_hausdorff(a, b)


def test_hausdorff_sweep_scans_past_every_window_edge():
    # k points tied at the origin fill the first windows on one side; the
    # nearest point comes right after them in sorted order, for every k
    for k in range(1, 70):
        ties = np.zeros((k, 2))
        right = np.vstack((ties, [[1.0, -1.0]]))
        left = np.vstack(([[-1.0, 1.0]], ties))
        assert _directed_sq_sweep(_SweepSet(np.array([[0.0, -2.0]])),
                                  _SweepSet(right)) == 2.0
        assert _directed_sq_sweep(_SweepSet(np.array([[0.0, 2.0]])),
                                  _SweepSet(left)) == 2.0


def test_hausdorff_sweep_stop_rule_allows_for_the_tilt():
    # q lies along the key's gradient (1, alpha), nearer to the origin
    # than (-1, 0) but at a key gap of about 1 + alpha^2 / 4 from it; the
    # point at key 0.5 is scanned first and is far away.  A stop rule
    # without the factor 1 + alpha^2 would end the scan before q.
    grad = np.array([1.0, _TILT]) / math.hypot(1.0, _TILT)
    b = np.array([[-1.0, 0.0], [0.5 - 10 * _TILT, 10.0],
                  (1.0 - _TILT ** 2 / 4) * grad])
    a = np.zeros((1, 2))
    want = _directed_sq_brute(a, b)
    assert want < 1.0
    assert _directed_sq_sweep(_SweepSet(a), _SweepSet(b)) == want


@pytest.mark.parametrize("side", [1, -1], ids=["above", "below"])
def test_hausdorff_sweep_stop_rule_clamps_the_key_margin(side):
    # near (1e5, 1e5) the key error margin eps is about 12 ulps U, more
    # than the key gaps to the far points r1 and r2 (1 U and 2 U on one
    # side of p); a stop rule taking (gap - eps)^2 without clamping at 0
    # would stop after r1, before q2 = p + (4, 1) U on that side, which is
    # nearer than q1 = p - (3, 3) U on the other
    ulp = 2.0 ** -36
    a = np.array([[1e5, 1e5]])
    up = math.floor(1000 * _TILT)
    b = a + side * ulp * np.array([[-3, -3], [1 - up, 1000],
                                   [2 - up, 1000], [4, 1]])
    want = _directed_sq_brute(a, b)
    assert want == 17 * ulp ** 2
    assert _directed_sq_sweep(_SweepSet(a), _SweepSet(b)) == want


@pytest.mark.parametrize("log_n", [15, 17])
def test_hausdorff_sweep_state_stays_bounded(log_n, traced_peak):
    # one superblock's bounds and order at most, whatever the set sizes:
    # 1.24 and 1.31 MiB; with the whole of a as one superblock, 2^17
    # points read 4.02 MiB
    rng = np.random.default_rng(17)
    a, b = (_SweepSet(rng.random((1 << log_n, 2))) for _ in range(2))
    _, peak = traced_peak(lambda: _directed_sq_sweep(a, b))
    assert peak < 2 << 20


def test_hausdorff_outlier_exact_in_bounded_memory(run_isolated):
    # 20k points plus a far outlier: a grid of cells sized to the point
    # count returned inf here and held one dense cell against every point
    code = """
import numpy as np
from rifslab import hausdorff_distance
s = np.random.default_rng(15).random((20_000, 2))
o = np.array([[100.0, 100.0]])
print(repr(hausdorff_distance(s, np.vstack((s, o)))),
      repr(float(np.sqrt(((s - o) ** 2).sum(axis=-1).min()))))
"""
    res = run_isolated(code, timeout=120, max_bytes=1 << 30)
    assert res.returncode == 0, res.stderr
    got, want = res.stdout.split()
    assert got == want


def test_hausdorff_vertical_lines_in_time(run_isolated):
    # two lines of 100k points at x = 0: keyed on x alone, each point
    # scanned its whole tied line (2.0-2.7 s on a 2-core Xeon); the tilted
    # key takes about 0.1 s
    code = """
import time
import numpy as np
from rifslab import hausdorff_distance
rng = np.random.default_rng(16)
a, b = (np.column_stack((np.zeros(100_000), rng.random(100_000)))
        for _ in range(2))
start = time.perf_counter()
got = hausdorff_distance(a, b)
took = time.perf_counter() - start

def directed(p, q):
    # brute force over each point's two neighbours in y order, the nearest
    # points of q on one line, in chunks
    q = q[np.argsort(q[:, 1])]
    worst = 0.0
    for chunk in np.array_split(p, 100):
        at = np.searchsorted(q[:, 1], chunk[:, 1])
        near = q[np.clip(np.stack((at - 1, at)), 0, len(q) - 1)]
        d2 = ((chunk - near) ** 2).sum(axis=-1)
        worst = max(worst, float(d2.min(axis=0).max()))
    return worst

want = np.sqrt(max(directed(a, b), directed(b, a)))
print(repr(got), repr(float(want)), took)
"""
    res = run_isolated(code, timeout=60, max_bytes=1 << 30)
    assert res.returncode == 0, res.stderr
    got, want, took = res.stdout.split()
    assert got == want
    assert float(took) < 1.0


def test_sampler_reproducible_and_in_range():
    s = BernoulliSampler((0.25, 0.75), seed=42)
    one = sample_omega(s, 200)
    two = sample_omega(s, 200)
    assert one == two
    assert set(one.prefix) <= {1, 2}
    assert len(one.prefix) == 200
    assert one.cycle == (one.prefix[-1],)


def test_sampler_weight_frequencies():
    s = BernoulliSampler((0.25, 0.75), seed=3)
    seq = sample_omega(s, 20_000)
    share = seq.prefix.count(2) / len(seq.prefix)
    assert abs(share - 0.75) < 0.02


def test_sampler_rejects_bad_weights():
    with pytest.raises(UsageError):
        BernoulliSampler((0.5, 0.6), seed=0)
    with pytest.raises(UsageError):
        sample_omega(BernoulliSampler((1.0,), seed=0), 0)


_SEEDS = (0, 7, 42, 2 ** 32 + 5, 2 ** 64 + 3, 10 ** 30)


@pytest.mark.parametrize("seed", _SEEDS)
def test_seed_words_are_numpys_seed_sequence(seed):
    # numpy.random serves as a test oracle only
    from numpy.random import SeedSequence
    want = SeedSequence(seed).generate_state(8, np.uint32).tolist()
    assert model._seed_words(seed) == want


@pytest.mark.parametrize("lanes, n", [
    (1, 9), (3, 1), (3, 2), (3, 3), (3, 50), (64, 1000),
    (model._PCG_LANES, model._PCG_LANES + 1),
    (model._PCG_LANES, 3 * model._PCG_LANES - 7),
])
@pytest.mark.parametrize("seed", _SEEDS)
def test_pcg64_stream_is_numpys_bit_for_bit(seed, lanes, n, monkeypatch):
    from numpy.random import PCG64, Generator
    monkeypatch.setattr(model, "_PCG_LANES", lanes)
    want = Generator(PCG64(seed)).random(n)
    assert model._pcg64_random(seed, n).tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [-1, 1.5, True, "7"])
def test_sampler_rejects_a_seed_that_is_not_a_natural(seed):
    with pytest.raises(UsageError, match="seed"):
        BernoulliSampler((0.5, 0.5), seed=seed)


def test_sample_run_leaves_numpy_random_unimported(run_isolated, tmp_path):
    # importing numpy.random adds about 6 MB to a process's peak RSS
    code = f"""
import sys
from rifslab import cli, corpus
cli.main(["run", corpus.corpus_path("sample"), "--out", {str(tmp_path)!r}])
print("numpy.random" in sys.modules)
"""
    res = run_isolated(code, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["False"]


def test_degenerate_weight_never_drawn():
    s = BernoulliSampler((1.0, 0.0), seed=9)
    assert set(sample_omega(s, 500).prefix) == {1}


def test_continuity_probe_certifies_bound():
    rifs = cantor_rifs()
    om = OmegaSeq((), (1,))
    tails = [OmegaSeq((), (2,)), OmegaSeq((), (1,)), OmegaSeq((2, 1), (2,))]
    rows = continuity_probe(rifs, om, 3, tails, depth=7)
    assert len(rows) == 3
    for row in rows:
        assert row.d_omega <= 2.0 ** -3
        assert row.d_hausdorff <= row.bound
    # the identical tail reproduces the sequence
    assert rows[1].d_omega == 0.0
    assert rows[1].d_hausdorff == 0.0
    with pytest.raises(UsageError):
        continuity_probe(rifs, om, 5, tails, depth=3)


def test_continuity_probe_equals_brute_on_every_tail():
    # one prepared base set serves every tail: every arrangement of two 1s
    # and two 2s at depth 4, where (1 2 1 2) splices the sequence back to
    # itself, at distance 0 with nothing left for the second pass
    rifs, center = _carpet_mix(), np.full((1, 2), 0.5)
    tails = [OmegaSeq(t, (1, 2))
             for t in sorted(set(itertools.permutations((1, 1, 2, 2))))]
    rows = continuity_probe(rifs, _mix, 2, tails, depth=4)
    base = cylinder_images(rifs, _mix, 4, center)
    for tail, row in zip(tails, rows, strict=True):
        pts = cylinder_images(rifs, splice(_mix, 2, tail), 4, center)
        assert row.d_hausdorff == _brute_hausdorff(base, pts)
    assert rows[tails.index(OmegaSeq((1, 2, 1, 2), (1, 2)))].d_hausdorff == 0.0
    # depth 5, over more than two sweep blocks
    tails = [OmegaSeq(t, (1, 2)) for t in ((2, 2, 1, 1), (1, 1, 2, 2))]
    rows = continuity_probe(_carpet_mix(), _mix, 2, tails, depth=5)
    for tail, row in zip(tails, rows):
        pts = _carpet_mix_points(splice(_mix, 2, tail))
        assert row.d_hausdorff == _brute_hausdorff(_mix_ties[0], pts)
