"""Tests for rigid registration: Procrustes fit, RANSAC, ICP, and the full loop."""
from __future__ import annotations

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from oracles import rotation_angle
from pasdf import registration, shapes
from pasdf.errors import CoarseAlignmentError, InvalidInputError, InvalidParameterError
from pasdf.geometry import (
    PointCloud,
    RigidTransform,
    apply_transform,
    chamfer_loss,
    compose,
    estimate_normals,
    random_rigid,
    rotation_about_axis,
    voxel_downsample,
)
from pasdf.mesh import TriMesh, sample_surface
from pasdf.registration import (
    fit_rigid,
    icp_refine,
    pose_align,
    ransac_align,
)
from pasdf.rng import derive_seed, stream


def lumpy_blob(sample_seed: int, n: int = 2000) -> PointCloud:
    """Closed star-shaped surface with no rotational symmetry.

    Mixed odd and even radial terms with generic coefficients, so transform
    recovery against it is well posed.
    """
    rng = np.random.default_rng(sample_seed)
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    x, y, z = dirs.T
    polar = np.arccos(np.clip(z, -1.0, 1.0))
    r = (
        1.0
        + 0.38 * x
        + 0.30 * y
        - 0.25 * z * x
        + 0.22 * y * z
        + 0.175 * np.cos(3.0 * polar)
        + 0.18 * x * y * z
    )
    return PointCloud(dirs * r[:, None] * 0.5)


def torus_cloud(sample_seed: int, n: int = 2000, major: float = 0.4, minor: float = 0.15) -> PointCloud:
    rng = np.random.default_rng(sample_seed)
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    ring = major + minor * np.cos(phi)
    return PointCloud(
        np.column_stack([ring * np.cos(theta), ring * np.sin(theta), minor * np.sin(phi)])
    )


def moved_stack(rng: np.random.Generator, h: int, s: int) -> tuple[np.ndarray, np.ndarray, list]:
    """``h`` random point sets of ``s`` points and each moved by its own motion."""
    src = rng.normal(size=(h, s, 3))
    truths = [random_rigid(rng) for _ in range(h)]
    tgt = np.stack([pts @ t.rotation.T + t.translation for pts, t in zip(src, truths)])
    return src, tgt, truths


class TestFitRigid:
    def test_exact_recovery(self):
        src, tgt, truths = moved_stack(np.random.default_rng(50), h=6, s=40)
        rot, trans = fit_rigid(src, tgt)
        assert rot.shape == (6, 3, 3) and trans.shape == (6, 3)
        for row, truth in enumerate(truths):
            np.testing.assert_allclose(rot[row], truth.rotation, atol=1e-12)
            np.testing.assert_allclose(trans[row], truth.translation, atol=1e-12)

    def test_never_returns_reflection(self):
        rng = np.random.default_rng(51)
        rot, _ = fit_rigid(rng.normal(size=(50, 3, 3)), rng.normal(size=(50, 3, 3)))
        np.testing.assert_allclose(np.linalg.det(rot), 1.0, atol=1e-9)

    def test_mixed_stack_flips_only_the_rows_that_need_it(self):
        # Rows 1 and 3 map their points onto a mirror image, which the
        # unguarded SVD product answers with a reflection; the other rows
        # are proper motions and must come back exact.
        rng = np.random.default_rng(52)
        src, tgt, truths = moved_stack(rng, h=5, s=12)
        mirrored = [1, 3]
        tgt[mirrored] = src[mirrored] * np.array([-1.0, 1.0, 1.0])
        src_c = src - src.mean(axis=1, keepdims=True)
        tgt_c = tgt - tgt.mean(axis=1, keepdims=True)
        u, _, vt = np.linalg.svd(np.einsum("hsi,hsj->hij", src_c, tgt_c))
        unguarded = np.linalg.det(np.einsum("hji,hkj->hik", vt, u))
        assert list(np.flatnonzero(unguarded < 0.0)) == mirrored

        rot, trans = fit_rigid(src, tgt)
        np.testing.assert_allclose(np.linalg.det(rot), 1.0, atol=1e-12)
        for row in (0, 2, 4):
            np.testing.assert_allclose(rot[row], truths[row].rotation, atol=1e-12)
            np.testing.assert_allclose(trans[row], truths[row].translation, atol=1e-12)
        # The best rotation onto a mirror image, from scipy's independent
        # solution of Wahba's problem.
        for row in mirrored:
            best, _ = Rotation.align_vectors(tgt_c[row], src_c[row])
            np.testing.assert_allclose(rot[row], best.as_matrix(), atol=1e-12)

    def test_rows_match_fitting_each_row_alone(self):
        rng = np.random.default_rng(53)
        src = rng.normal(size=(20, 7, 3))
        tgt = rng.normal(size=(20, 7, 3))
        rot, trans = fit_rigid(src, tgt)
        for row in range(len(src)):
            alone_rot, alone_trans = fit_rigid(src[row : row + 1], tgt[row : row + 1])
            np.testing.assert_allclose(rot[row], alone_rot[0], rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(trans[row], alone_trans[0], rtol=0.0, atol=1e-12)

    def test_rejects_too_few_points(self):
        with pytest.raises(InvalidInputError):
            fit_rigid(np.zeros((1, 2, 3)), np.zeros((1, 2, 3)))


def crafted_pair(seed: int) -> tuple[PointCloud, PointCloud, np.ndarray, RigidTransform, int]:
    """Cloud pair whose descriptors force identity matching, with known outliers."""
    rng = np.random.default_rng(seed)
    n, n_outliers = 30, 10
    src_pts = rng.uniform(-1.0, 1.0, size=(n, 3))
    truth = random_rigid(rng)
    tgt_pts = src_pts @ truth.rotation.T + truth.translation
    # Last n_outliers target points wander far from their true positions.
    tgt_pts[-n_outliers:] += rng.uniform(1.0, 2.0, size=(n_outliers, 3)) * rng.choice(
        [-1.0, 1.0], size=(n_outliers, 3)
    )
    descriptors = rng.normal(size=(n, 33)) * 10.0
    return PointCloud(src_pts), PointCloud(tgt_pts), descriptors, truth, n - n_outliers


class TestRansacAlign:
    def test_recovers_transform_despite_outliers(self):
        src, tgt, desc, truth, n_inliers = crafted_pair(60)
        result = ransac_align(src, tgt, desc, desc, 0.05, seed=0)
        assert result.correspondence_count == 30
        assert result.inlier_count == n_inliers
        err = compose(result.transform, truth.inverse())
        assert np.degrees(rotation_angle(err.rotation)) < 1e-3
        assert np.linalg.norm(err.translation) < 1e-3

    def test_noise_descriptors_never_beat_true_ones(self):
        def inlier_ratio(result) -> float:
            return result.inlier_count / result.correspondence_count

        true_fracs, noise_fracs = [], []
        for seed in range(20):
            src, tgt, desc, _, _ = crafted_pair(100 + seed)
            true_fracs.append(inlier_ratio(ransac_align(src, tgt, desc, desc, 0.05, seed=seed)))
            rng = np.random.default_rng(900 + seed)
            noise_src = rng.normal(size=desc.shape)
            noise_tgt = rng.normal(size=desc.shape)
            try:
                noise_fracs.append(
                    inlier_ratio(ransac_align(src, tgt, noise_src, noise_tgt, 0.05, seed=seed))
                )
            except CoarseAlignmentError:
                noise_fracs.append(0.0)
        assert np.mean(noise_fracs) <= np.mean(true_fracs)

    def test_deterministic_per_seed(self):
        src, tgt, desc, _, _ = crafted_pair(61)
        a = ransac_align(src, tgt, desc, desc, 0.05, seed=7)
        b = ransac_align(src, tgt, desc, desc, 0.05, seed=7)
        np.testing.assert_array_equal(a.transform.rotation, b.transform.rotation)
        np.testing.assert_array_equal(a.transform.translation, b.transform.translation)
        assert a.inlier_count == b.inlier_count

    def test_too_few_correspondences_raise(self):
        pts = np.eye(3) * 0.5
        cloud = PointCloud(pts)
        # Descriptors match mutually for only two of three points.
        src_desc = np.array([[1.0, 0.0], [0.0, 1.0], [10.0, 10.0]])
        tgt_desc = np.array([[1.0, 0.0], [0.0, 1.0], [-10.0, -10.0]])
        with pytest.raises(CoarseAlignmentError):
            ransac_align(cloud, cloud, src_desc, tgt_desc, 0.1, seed=0)


def mse_history(src: PointCloud, tgt: PointCloud) -> np.ndarray:
    """The residual before ICP and after each step it keeps, from the
    identity: the run capped at n steps ends on the n-th kept residual."""
    history = []
    with pytest.MonkeyPatch.context() as patch:
        for cap in range(registration._ICP_MAX_ITERATIONS + 1):
            patch.setattr(registration, "_ICP_MAX_ITERATIONS", cap)
            result = icp_refine(src, tgt, init=RigidTransform.identity())
            if result.iterations < cap:
                break
            history.append(result.mse)
    return np.asarray(history)


class TestIcpRefine:
    def test_prealigned_pair_stays_put(self):
        cloud = lumpy_blob(70, n=500)
        result = icp_refine(cloud, cloud, init=RigidTransform.identity())
        assert np.degrees(rotation_angle(result.transform.rotation)) < 1e-6
        assert np.linalg.norm(result.transform.translation) < 1e-6
        history = mse_history(cloud, cloud)
        assert history[-1] - history[0] <= 1e-12

    def test_residual_history_never_increases(self):
        rng = np.random.default_rng(71)
        tgt = lumpy_blob(72, n=800)
        perturb = RigidTransform(
            rotation_about_axis(rng.normal(size=3), 0.3), rng.normal(scale=0.05, size=3)
        )
        src = apply_transform(perturb, lumpy_blob(73, n=800))
        history = mse_history(src, tgt)
        assert len(history) > 2
        assert (np.diff(history) <= 1e-15).all()

    def test_recovers_small_motion_of_identical_points(self):
        cloud = lumpy_blob(74, n=600)
        small = RigidTransform(
            rotation_about_axis(np.array([0.0, 0.0, 1.0]), np.radians(8.0)),
            np.array([0.01, -0.02, 0.015]),
        )
        src = apply_transform(small.inverse(), cloud)
        result = icp_refine(src, cloud, init=RigidTransform.identity())
        err = compose(result.transform, small.inverse())
        assert np.degrees(rotation_angle(err.rotation)) < 1e-6
        assert np.linalg.norm(err.translation) < 1e-8

    def test_returns_full_transform_including_init(self):
        cloud = lumpy_blob(75, n=400)
        init = random_rigid(np.random.default_rng(76), translation_scale=0.02)
        src = apply_transform(init.inverse(), cloud)
        result = icp_refine(src, cloud, init=init)
        moved = apply_transform(result.transform, src)
        assert np.abs(moved.points - cloud.points).max() < 1e-6

    def test_normal_signs_do_not_matter(self):
        tgt, _ = estimate_normals(lumpy_blob(77, n=800), k=16, viewpoint=np.zeros(3))
        flipped_normals = tgt.normals.copy()
        flipped_normals[::2] *= -1.0
        flipped = PointCloud(tgt.points, flipped_normals)
        rng = np.random.default_rng(78)
        perturb = RigidTransform(
            rotation_about_axis(rng.normal(size=3), 0.2), rng.normal(scale=0.03, size=3)
        )
        src = apply_transform(perturb, lumpy_blob(79, n=800))
        a = icp_refine(src, tgt, init=RigidTransform.identity())
        b = icp_refine(src, flipped, init=RigidTransform.identity())
        np.testing.assert_allclose(a.transform.rotation, b.transform.rotation, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(
            a.transform.translation, b.transform.translation, rtol=0.0, atol=1e-12
        )

    @pytest.mark.parametrize("with_normals", [True, False])
    def test_planar_target_is_rank_deficient_but_safe(self, with_normals):
        # A plane constrains only its normal offset and two tilts; the
        # in-plane slide and the turn about the normal are left unsolved.
        rng = np.random.default_rng(93)
        tilt = RigidTransform(rotation_about_axis(np.array([1.0, 2.0, 0.5]), 0.4), np.zeros(3))
        flat = np.column_stack([rng.uniform(-1.0, 1.0, (2, 400)).T, np.zeros(400)])
        normals = np.tile([0.0, 0.0, 1.0], (400, 1)) if with_normals else None
        tgt = apply_transform(tilt, PointCloud(flat, normals))
        lifted = RigidTransform(
            rotation_about_axis(np.array([0.0, 1.0, 0.0]), 0.05), np.array([0.0, 0.0, 0.05])
        )
        src = apply_transform(compose(tilt, lifted), PointCloud(flat[::2]))
        result = icp_refine(src, tgt, init=RigidTransform.identity())
        history = mse_history(src, tgt)
        assert (np.diff(history) <= 0.0).all()
        assert history[-1] < history[0]
        assert np.isfinite(result.transform.translation).all()

    @pytest.mark.parametrize("seed", [96, 97, 98])
    def test_local_bulge_does_not_pull_the_fit(self, seed):
        # About 50 of 1500 points sit 12% further out than the surface.
        # Pairs that far off their plane are rejected from each step, so
        # the rest of the cloud sets the pose.
        tgt, _ = estimate_normals(lumpy_blob(seed, n=1500), k=16, viewpoint=np.zeros(3))
        points = lumpy_blob(seed + 10, n=1500).points.copy()
        bulge = np.linalg.norm(points - points[0], axis=1) < 0.2
        points[bulge] *= 1.12
        small = RigidTransform(
            rotation_about_axis(np.array([1.0, -1.0, 0.5]), np.radians(4.0)),
            np.array([0.02, 0.01, -0.015]),
        )
        src = apply_transform(small, PointCloud(points))
        result = icp_refine(src, tgt, init=RigidTransform.identity())
        err = compose(result.transform, small)
        assert np.degrees(rotation_angle(err.rotation)) < 0.5
        assert np.linalg.norm(err.translation) < 0.002

    def test_target_without_normals_still_aligns(self):
        tgt = lumpy_blob(94, n=1500)
        assert tgt.normals is None
        small = RigidTransform(
            rotation_about_axis(np.array([1.0, -1.0, 0.5]), np.radians(6.0)),
            np.array([0.02, 0.01, -0.015]),
        )
        src = apply_transform(small, lumpy_blob(95, n=1500))
        result = icp_refine(src, tgt, init=RigidTransform.identity())
        err = compose(result.transform, small)
        assert np.degrees(rotation_angle(err.rotation)) < 0.5
        assert np.linalg.norm(err.translation) < 0.005


class TestPoseAlign:
    def test_self_alignment_is_identity(self):
        cloud = lumpy_blob(80)
        result = pose_align(cloud, cloud, seed=1)
        assert result.converged
        assert np.degrees(rotation_angle(result.transform.rotation)) < 1.0
        assert np.linalg.norm(result.transform.translation) < 0.01

    def test_torus_axis_recovery_under_random_poses(self):
        """The torus is symmetric about its axis and under flipping it, so
        pose quality is judged by undirected axis tilt and center error."""
        tgt = torus_cloud(1000)
        passed = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            truth = random_rigid(rng, translation_scale=0.5)
            src = apply_transform(truth, torus_cloud(3000 + seed))
            result = pose_align(src, tgt, seed=seed)
            rel = compose(result.transform, truth)
            axis_tilt = np.degrees(np.arccos(np.clip(abs(rel.rotation[2, 2]), -1.0, 1.0)))
            center_err = np.linalg.norm(rel.translation)
            if result.converged and axis_tilt < 5.0 and center_err < 0.02 * tgt.bbox_diagonal():
                passed += 1
        assert passed >= 18

    @pytest.mark.parametrize("scale", [0.125, 1.0, 8.0, 64.0])
    def test_acceptance_does_not_depend_on_units(self, scale):
        # Two samplings of one surface in one pose align in the first round
        # whatever the unit; powers of two rescale the points exactly.
        mesh = shapes.blob()
        tgt, src = (sample_surface(mesh, 2000, seed) for seed in (1, 2))
        result = pose_align(
            PointCloud(src.points * scale, src.normals),
            PointCloud(tgt.points * scale, tgt.normals),
            seed=0,
        )
        assert result.converged
        assert result.rounds == 1

    def test_round_budget_is_respected_when_threshold_unreachable(self, monkeypatch):
        # No round is accepted, so all three run, and the first round's
        # pose comes back with its own discrepancy.
        monkeypatch.setattr(registration, "_ACCEPT_LOSS_VOXELS", 0.0)
        monkeypatch.setattr(registration, "_MAX_ROUNDS", 3)
        cloud = lumpy_blob(81, n=600)
        moved = apply_transform(random_rigid(np.random.default_rng(82), 0.3), lumpy_blob(83, n=600))
        calls = []

        def recorded_loss(a, b):
            calls.append((a, chamfer_loss(a, b)))
            return calls[-1][1]

        monkeypatch.setattr(registration, "chamfer_loss", recorded_loss)
        result = pose_align(moved, cloud, seed=0)
        assert result.rounds == 3
        assert not result.converged
        assert len(calls) == 3
        measured, loss = calls[0]
        voxel = cloud.bbox_diagonal() / registration._VOXEL_DIVISOR
        np.testing.assert_array_equal(
            measured.points, voxel_downsample(result.aligned, voxel).points
        )
        assert result.chamfer == loss

    @pytest.mark.parametrize(
        "accept, icp_calls", [(4.0, 1), (0.0, 3)], ids=["converging", "unaccepted"]
    )
    def test_describes_once_and_refines_once_per_round(self, monkeypatch, accept, icp_calls):
        monkeypatch.setattr(registration, "_ACCEPT_LOSS_VOXELS", accept)
        monkeypatch.setattr(registration, "_MAX_ROUNDS", 3)
        calls = []

        def count(name):
            inner = getattr(registration, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return inner(*args, **kwargs)

            monkeypatch.setattr(registration, name, counted)

        count("compute_fpfh")
        count("icp_refine")
        mesh = shapes.blob()
        tgt, src = (sample_surface(mesh, 2000, seed) for seed in (1, 2))
        posed = apply_transform(random_rigid(np.random.default_rng(9), 0.3), src)
        result = pose_align(posed, tgt, seed=0)
        assert result.converged == (accept > 0.0)
        assert result.rounds == icp_calls
        assert calls == ["compute_fpfh"] * 2 + ["icp_refine"] * icp_calls

    def test_rounds_without_a_hypothesis_refine_only_once(self, monkeypatch):
        # The first round falls back to ICP from the identity; later rounds
        # without a coarse hypothesis have nothing new to refine.
        monkeypatch.setattr(registration, "_ACCEPT_LOSS_VOXELS", 0.0)
        monkeypatch.setattr(registration, "_MAX_ROUNDS", 3)

        def no_hypothesis(*args, **kwargs):
            raise CoarseAlignmentError("no hypothesis")

        refined = []
        inner = registration.icp_refine

        def counted(*args, **kwargs):
            refined.append(kwargs["init"])
            return inner(*args, **kwargs)

        monkeypatch.setattr(registration, "ransac_align", no_hypothesis)
        monkeypatch.setattr(registration, "icp_refine", counted)
        result = pose_align(lumpy_blob(93, n=600), lumpy_blob(94, n=600), seed=0)
        assert (result.rounds, result.ransac_failures) == (3, 3)
        assert len(refined) == 1
        np.testing.assert_array_equal(refined[0].rotation, np.eye(3))
        np.testing.assert_array_equal(refined[0].translation, np.zeros(3))

    def test_aligned_cloud_matches_transform_application(self):
        tgt = lumpy_blob(84)
        src = apply_transform(random_rigid(np.random.default_rng(85), 0.4), lumpy_blob(86))
        result = pose_align(src, tgt, seed=3)
        expected = apply_transform(result.transform, src)
        assert np.abs(result.aligned.points - expected.points).max() < 1e-9

    def test_bitwise_deterministic_per_seed(self):
        tgt = lumpy_blob(87)
        src = apply_transform(random_rigid(np.random.default_rng(88), 0.4), lumpy_blob(89))
        a = pose_align(src, tgt, seed=11)
        b = pose_align(src, tgt, seed=11)
        np.testing.assert_array_equal(a.transform.rotation, b.transform.rotation)
        np.testing.assert_array_equal(a.transform.translation, b.transform.translation)
        assert a.chamfer == b.chamfer

    def test_coarse_failure_falls_back_to_icp(self, monkeypatch):
        # A voxel bigger than the cloud leaves too few points for RANSAC;
        # the failure is logged and counted, yet ICP still runs.
        monkeypatch.setattr(registration, "_VOXEL_DIVISOR", 0.1)
        tgt = lumpy_blob(90, n=300)
        src = lumpy_blob(91, n=300)
        result = pose_align(src, tgt, seed=0)
        assert result.ransac_failures == 1
        assert result.rounds == 1

    def test_validates_parameters(self):
        # A target whose points coincide has a zero voxel.
        cloud = lumpy_blob(92, n=100)
        point = PointCloud(np.ones((100, 3)))
        with pytest.raises(InvalidParameterError):
            pose_align(cloud, point)


def stress_view(
    mesh: TriMesh, seed: int, *, half: bool = False, outliers: float = 0.0
) -> tuple[PointCloud, RigidTransform]:
    """A 2,048-point sampling of ``mesh`` in a random pose, and that pose.

    ``half`` keeps the side of a random plane through the centroid, as a
    single scan sees it; ``outliers`` adds that share of points drawn
    uniformly in the bounding box.
    """
    rng = np.random.default_rng(seed)
    points = sample_surface(mesh, 2048, seed).points
    if half:
        points = points[(points - points.mean(axis=0)) @ rng.normal(size=3) >= 0.0]
    if outliers:
        extra = rng.uniform(points.min(axis=0), points.max(axis=0), (round(outliers * len(points)), 3))
        points = np.vstack([points, extra])
    truth = random_rigid(rng)
    return apply_transform(truth, PointCloud(points)), truth


def blob_error(src: PointCloud, truth: RigidTransform, target: PointCloud) -> float:
    """Degrees between the recovered pose and the true one."""
    result = pose_align(src, target, seed=0)
    return np.degrees(rotation_angle(compose(result.transform, truth).rotation))


def axis_error(recovered: RigidTransform, truth: RigidTransform) -> float:
    """Degrees between the recovered and the true torus axis; the torus
    turns freely about its axis and flips onto itself."""
    tilt = compose(recovered, truth).rotation[2, 2]
    return np.degrees(np.arccos(min(abs(tilt), 1.0)))


def torus_axis_error(src: PointCloud, truth: RigidTransform, target: PointCloud) -> float:
    return axis_error(pose_align(src, target, seed=0).transform, truth)


def detect_torus_case(run_seed: int, index: int) -> tuple[PointCloud, RigidTransform, PointCloud, int]:
    """Posed normal torus cloud ``index`` of the perfbench ``detect`` run at
    ``run_seed``, drawn as ``perfbench/inputs.py`` draws it: the cloud, its
    pose, the run's canonical cloud and the seed the workload aligns with."""
    mesh = shapes.torus()
    case = derive_seed(run_seed, f"detect-torus-{index}")
    cloud = sample_surface(mesh, 2048, seed=derive_seed(case, "cloud"))
    pose = random_rigid(stream(case, "pose"), translation_scale=mesh.bbox_diagonal() / 2.0)
    canonical = sample_surface(mesh, 2048, seed=derive_seed(run_seed, "canonical-torus"))
    return apply_transform(pose, cloud), pose, canonical, derive_seed(case, "detect")


def known_misses(seeds, misses: dict[int, str]) -> list:
    return [
        pytest.param(seed, marks=pytest.mark.xfail(strict=True, reason=misses[seed]))
        if seed in misses
        else seed
        for seed in seeds
    ]


# Half views whose ICP ends on a step that raises the point-to-point
# residual, a few degrees short of the pose; judging steps by the
# point-to-plane residual (ROADMAP item 2) brings all twelve within 0.8.
_ICP_STOPS_EARLY = "ICP stops short on a half view (ROADMAP item 2)"
_HALF_BLOB_MISSES = {seed: _ICP_STOPS_EARLY for seed in (105, 106, 108, 110)}
_HALF_TORUS_MISSES = {104: "RANSAC picks a wrong pose (ROADMAP item 3)"}


@pytest.fixture(scope="module")
def blob_target() -> PointCloud:
    return sample_surface(shapes.blob(), 2048, 1)


@pytest.fixture(scope="module")
def torus_target() -> PointCloud:
    return sample_surface(shapes.torus(), 2048, 1)


class TestPoseStress:
    """Partial and cluttered clouds with known poses, against a full
    sampling of the same shape."""

    @pytest.mark.parametrize("seed", known_misses(range(100, 112), _HALF_BLOB_MISSES))
    def test_blob_half_view(self, blob_target, seed):
        src, truth = stress_view(shapes.blob(), seed, half=True)
        assert blob_error(src, truth, blob_target) < 2.0

    @pytest.mark.parametrize("seed", known_misses(range(100, 112), _HALF_TORUS_MISSES))
    def test_torus_half_view(self, torus_target, seed):
        src, truth = stress_view(shapes.torus(), seed, half=True)
        assert torus_axis_error(src, truth, torus_target) < 2.0

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
    @pytest.mark.parametrize("outliers", [0.1, 0.2])
    def test_blob_with_uniform_outliers(self, blob_target, outliers):
        errors = [
            blob_error(*stress_view(shapes.blob(), seed, outliers=outliers), blob_target)
            for seed in range(100, 112)
        ]
        assert max(errors) < 2.0

    # Full torus clouds from perfbench ``detect`` whose first RANSAC seed
    # gives a pose 81 and 89 degrees off the axis; a later round's seed
    # finds the right one.
    @pytest.mark.parametrize("run_seed, index", [(25102, 8), (25113, 22)])
    def test_later_round_replaces_a_wrong_first_pose(self, monkeypatch, run_seed, index):
        src, truth, target, seed = detect_torus_case(run_seed, index)
        result = pose_align(src, target, seed=seed)
        assert result.converged and result.rounds > 1
        assert axis_error(result.transform, truth) < 2.0
        monkeypatch.setattr(registration, "_MAX_ROUNDS", 1)
        first = pose_align(src, target, seed=seed)
        assert not first.converged
        assert axis_error(first.transform, truth) > 45.0
