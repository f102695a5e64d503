"""The scan path's worker thread: every call waits for its jobs, errors keep
their serial precedence, one usable core runs every job inline, and a
forked child gets a worker of its own."""

import hashlib
import os
import signal
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from semfuse import parallel
from semfuse.fusion import CameraView, Detection, SegmentationFrame, SemanticCloud, fuse_cloud
from semfuse.geometry import (APPLY_BLOCK_ROWS, CameraModel, Pose, SphericalModel, Trajectory,
                              apply)
from semfuse.labels import InvalidInputError
from semfuse.voxelmap import VoxelMap
from tests.conftest import assert_same_bits, assert_same_state, map_state

IDENTITY_Q = np.array([1.0, 0, 0, 0])
TWO_CORES = parallel._cores() >= 2
needs_two_cores = pytest.mark.skipif(not TWO_CORES, reason="the worker needs a second core")


def ran_on() -> int:
    """The thread that runs a job whose caller waits for it to start."""
    started = threading.Event()

    def job():
        started.set()
        return threading.get_ident()

    with parallel.beside(job) as j:
        started.wait(5)
    return j.result()


def scan_inputs(seed=0):
    """A scan of three apply blocks in front of a camera with detections."""
    rng = np.random.default_rng(seed)
    C, n = 5, 3 * APPLY_BLOCK_ROWS
    xyz = np.column_stack([rng.uniform(-4, 4, (n, 2)), rng.uniform(1, 12, n)])
    cam = CameraModel(fx=100, fy=100, cx=50, cy=40, width=100, height=80)
    frame = SegmentationFrame(rng.dirichlet(np.ones(C), (80, 100)), timestamp=0.2)
    view = CameraView(cam, frame, [Detection(1, 0.9, (30, 20, 70, 60))])
    traj = Trajectory([Pose(0.0, np.zeros(3), IDENTITY_Q), Pose(1.0, [1.0, 0, 0], IDENTITY_Q)])
    return dict(xyz=xyz, t_scan=0.2, lidar_probs=rng.dirichlet(np.ones(C), n), views=[view],
                traj=traj, T_base_lidar=np.eye(4), model=SphericalModel(), num_classes=C)


def scan_digest(seed=0) -> str:
    """sha256 of a fused cloud, its map-frame points and the map after two
    integrations, on a fresh map."""
    args = scan_inputs(seed)
    cloud = fuse_cloud(**args)
    world = apply(Pose(0.0, [3.0, -1.0, 0.5], IDENTITY_Q).matrix(), cloud.xyz)
    vm = VoxelMap(num_classes=args["num_classes"])
    for k in range(2):
        vm.integrate_scan(SemanticCloud(world + k, cloud.probs), k)
    h = hashlib.sha256()
    for a in [cloud.xyz, cloud.probs, world, *map_state(vm).values()]:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def test_split_rows_runs_every_row_once_cut_at_a_block_edge():
    for n in range(9):
        for block in (1, 2, 3):
            seen = []
            parallel.split_rows(lambda lo, hi: seen.append((lo, hi)), n, block)
            assert sorted(r for lo, hi in seen for r in range(lo, hi)) == list(range(n))
            assert all(lo % block == 0 for lo, _ in seen)
            assert len(seen) == (1 if n <= block else 2)


def test_a_call_waits_for_its_job_also_when_the_body_raises():
    done = threading.Event()

    def slow():
        time.sleep(0.05)
        done.set()

    with pytest.raises(KeyError):
        with parallel.beside(slow):
            raise KeyError("body")
    assert done.is_set()


def test_the_jobs_error_wins_over_the_bodys():
    """The job is the earlier step in serial order."""
    def fails():
        raise ValueError("job")

    with pytest.raises(ValueError, match="job"):
        with parallel.beside(fails):
            raise KeyError("body")


@needs_two_cores
def test_a_worker_side_error_leaves_the_worker_free():
    def fails():
        raise ValueError("job")

    with pytest.raises(ValueError, match="job"):
        with parallel.beside(fails):
            pass
    assert ran_on() != threading.get_ident()


@needs_two_cores
def test_a_job_started_while_the_worker_is_busy_runs_inline():
    started, release = threading.Event(), threading.Event()

    def hold():
        started.set()
        release.wait(5)

    with parallel.beside(hold):
        started.wait(5)
        try:
            assert ran_on() == threading.get_ident()
        finally:
            release.set()


def test_callers_on_many_threads_get_the_serial_bits_and_free_the_worker():
    """More calling threads than cores, switching threads as often as the
    interpreter allows: each scan gives the bits of a lone caller, and the
    worker is free afterwards (a lost update of its busy mark would leave it
    held, or hand it two jobs at once)."""
    want = {seed: scan_digest(seed) for seed in range(2)}
    got, errors = [], []

    def caller(seed):
        try:
            for _ in range(2):
                got.append(scan_digest(seed) == want[seed])
        except Exception as e:
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(k % 2,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and got == [True] * 8
    assert (ran_on() != threading.get_ident()) == TWO_CORES


def test_a_worker_that_refuses_jobs_runs_them_inline_and_stays_free(monkeypatch):
    """An executor refuses new jobs once the interpreter has begun to exit;
    the job then runs on the caller and the worker is not left marked busy."""
    refusing = parallel.ThreadPoolExecutor(max_workers=1)
    refusing.shutdown()
    monkeypatch.setattr(parallel, "_pool", refusing)
    assert ran_on() == threading.get_ident()
    assert ran_on() == threading.get_ident()
    assert not parallel._busy


def test_cores_fall_back_to_the_core_count_without_an_affinity_mask(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert parallel._cores() == (os.cpu_count() or 1)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no affinity mask to cut")
def test_one_usable_core_runs_every_job_inline_with_equal_bits():
    """With the caller's affinity cut to one core, jobs run on the caller,
    and the scan path gives the bits it gives with the worker."""
    cores = os.sched_getaffinity(0)
    two = scan_digest()
    os.sched_setaffinity(0, {min(cores)})
    try:
        assert ran_on() == threading.get_ident()
        one = scan_digest()
    finally:
        os.sched_setaffinity(0, cores)
    assert one == two


def test_probs_error_wins_over_a_coordinate_error_and_leaves_the_map_unchanged(rng):
    """The worker checks probs while the caller bins the points; a scan bad
    in both raises the probs error, as the serial code did."""
    C = 3
    vm = VoxelMap(voxel_size=1.0, num_classes=C)
    vm.integrate_scan(SemanticCloud(rng.uniform(0, 3, (20, 3)), rng.dirichlet(np.ones(C), 20)), 0)
    before = map_state(vm)
    xyz = rng.uniform(0, 3, (50, 3))
    xyz[7] = [2.0 ** 21, 0, 0]
    probs = rng.dirichlet(np.ones(C), 50)
    probs[40, 1] = np.nan
    with pytest.raises(InvalidInputError, match="scan 1: cloud probs has non-finite"):
        vm.integrate_scan(SemanticCloud(xyz, probs), 1)
    assert_same_state(map_state(vm), before)
    probs[40, 1] = 0.5
    with pytest.raises(InvalidInputError, match="21-bit"):
        vm.integrate_scan(SemanticCloud(xyz, probs), 1)
    assert_same_state(map_state(vm), before)


def test_a_worker_side_error_is_raised_by_the_caller_and_the_next_scan_is_fresh(rng):
    """Non-finite probs are found on the worker: the caller raises them, and
    the next valid scan gives the bits it gives on a fresh map; the same for
    a non-finite LiDAR prior in `fuse_cloud`."""
    C = 4
    xyz = rng.uniform(0, 4, (5000, 3))
    good = rng.dirichlet(np.ones(C), 5000)
    bad = good.copy()
    bad[4321, 2] = np.inf
    vm, fresh = VoxelMap(num_classes=C), VoxelMap(num_classes=C)
    with pytest.raises(InvalidInputError, match="non-finite"):
        vm.integrate_scan(SemanticCloud(xyz, bad), 0)
    vm.integrate_scan(SemanticCloud(xyz, good), 0)
    fresh.integrate_scan(SemanticCloud(xyz, good), 0)
    assert_same_state(map_state(vm), map_state(fresh))

    args = scan_inputs()
    want = fuse_cloud(**args)
    prior = args["lidar_probs"].copy()
    prior[-1, 0] = np.nan
    with pytest.raises(InvalidInputError, match="cloud lidar_probs must be finite"):
        fuse_cloud(**{**args, "lidar_probs": prior})
    got = fuse_cloud(**args)
    assert_same_bits(got.probs, want.probs)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the platform cannot fork")
def test_a_forked_child_runs_the_scan_path_on_a_worker_of_its_own():
    """After a scan has started the worker, a forked child's scans finish
    (an alarm ends a child that hangs), on a live worker of the child's
    own, with the parent's bits."""
    want = scan_digest()
    read_end, write_end = os.pipe()
    with warnings.catch_warnings():
        # Python 3.12+ warns on forking a process that has threads
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        status = 1
        try:
            signal.alarm(10)
            own = ran_on() != threading.get_ident()
            os.write(write_end, f"{scan_digest()} {own}".encode())
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end) as f:
        got = f.read()
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0, status
    assert got == f"{want} {TWO_CORES}"
