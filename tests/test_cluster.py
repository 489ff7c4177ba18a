"""Tests for the distributed execution backend (``repro.cluster``).

Covers the contract promised in docs/CLUSTER.md: the length-prefixed
frame protocol with its bit-identical ndarray codec and hostile-length
guard, mutual HMAC authentication (wrong secrets are rejected on both
sides), the backend conformance contract (the same sweep through the
local pool and through a TCP cluster produces bit-identical truth
tables with identical cache-hit accounting), the coordinator's shared
cache tier and cross-client single-flight brokering, worker-death
recovery through both heartbeat loss and kill -9, the fcntl store
lock that makes concurrent same-key cache writes safe across
processes, and the typed ClusterConfigError surfaces in the CLI.
"""

import contextlib
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.cli import main
from repro.cluster import (
    ClusterClient,
    Coordinator,
    TcpClusterBackend,
    Worker,
    protocol,
)
from repro.errors import (
    ClusterAuthError,
    ClusterConfigError,
    ClusterError,
    ReproError,
)
from repro.micromag.experiments import sweep_gate_truth_table
from repro.resilience import FaultPlan, FaultSpec, faults
from repro.runtime import (
    DiskCache,
    Executor,
    JobSpec,
    LocalPoolBackend,
    create_backend,
    prune_cache,
)
from repro.runtime.cache import cache_stats, count_quarantined
from repro.runtime.report import (
    MODE_CACHED,
    MODE_CLUSTER,
    STATUS_FAILED,
    STATUS_HIT,
    STATUS_OK,
)

ROOT_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(ROOT_DIR, "src")
N_XOR = 4  # XOR truth-table rows


@pytest.fixture(autouse=True)
def _clean_process_state():
    yield
    faults.uninstall()
    obs.disable()
    obs.drain_spans()
    obs.reset_metrics()


# -- module-level job functions (resolvable by in-process workers) ----------

def add(a, b):
    return a + b


def always_boom():
    raise RuntimeError("boom from the worker")


def returns_unshippable():
    return object()  # no JSON/npz encoding exists


def slow_marker(marker_dir, delay_s=0.8, token="x"):
    """Record one execution as a unique file, then sleep."""
    stamp = f"run-{os.getpid()}-{threading.get_ident()}-{time.monotonic_ns()}"
    with open(os.path.join(marker_dir, stamp), "w") as handle:
        handle.write(token)
    time.sleep(delay_s)
    return {"token": token, "answer": 42}


# -- harness ----------------------------------------------------------------

def _wait_until(predicate, timeout=10.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {message}")


@contextlib.contextmanager
def running_cluster(cache_root=None, n_workers=1, capacity=2, **kwargs):
    """A live in-process coordinator with ``n_workers`` thread workers."""
    cache = DiskCache(root=cache_root) if cache_root else None
    coordinator = Coordinator(cache=cache, **kwargs).start()
    workers, threads = [], []
    try:
        for index in range(n_workers):
            worker = Worker(coordinator.url, capacity=capacity,
                            name=f"t{index}")
            worker.connect()
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            workers.append(worker)
            threads.append(thread)
        _wait_until(
            lambda: len(coordinator.status()["workers"]) >= n_workers,
            message=f"{n_workers} registered worker(s)")
        yield coordinator
    finally:
        coordinator.stop()
        for worker in workers:
            worker.close()
        for thread in threads:
            thread.join(timeout=2.0)


def assert_values_identical(left, right, path="value"):
    """Bit-identical structural equality (exact floats, exact arrays)."""
    assert type(left) is type(right), f"{path}: {type(left)} vs {type(right)}"
    if isinstance(left, dict):
        assert sorted(left) == sorted(right), path
        for name in left:
            assert_values_identical(left[name], right[name],
                                    f"{path}.{name}")
    elif isinstance(left, (list, tuple)):
        assert len(left) == len(right), path
        for index, (a, b) in enumerate(zip(left, right)):
            assert_values_identical(a, b, f"{path}[{index}]")
    elif isinstance(left, np.ndarray):
        assert left.dtype == right.dtype, path
        assert left.shape == right.shape, path
        assert np.array_equal(left, right, equal_nan=True), path
    else:
        assert left == right or (left != left and right != right), \
            f"{path}: {left!r} != {right!r}"


# -- the wire protocol ------------------------------------------------------

class TestProtocol:
    def test_frame_roundtrip(self):
        a, b = socket.socketpair()
        try:
            protocol.send_frame(a, {"type": "ping", "n": 7,
                                    "text": "uñicode"})
            frame = protocol.recv_frame(b)
        finally:
            a.close()
            b.close()
        assert frame == {"type": "ping", "n": 7, "text": "uñicode"}

    def test_eof_is_none_not_an_error(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert protocol.recv_frame(b) is None
        finally:
            b.close()

    def test_hostile_length_prefix_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall((protocol.MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            with pytest.raises(ClusterError, match="limit"):
                protocol.recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_non_object_frame_rejected(self):
        a, b = socket.socketpair()
        try:
            payload = json.dumps([1, 2]).encode()
            a.sendall(len(payload).to_bytes(4, "big") + payload)
            with pytest.raises(ClusterError, match="JSON object"):
                protocol.recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_ndarray_codec_bit_identical(self):
        rng = np.random.default_rng(7)
        value = {"field": rng.normal(size=(5, 3)),
                 "mask": np.array([True, False, True]),
                 "nan": np.array([np.nan, 1.0]),
                 "scalar": 0.1 + 0.2,  # not representable exactly
                 "nested": (1, [2.5, {"deep": np.arange(4)}])}
        decoded = protocol.decode_value(protocol.encode_value(value))
        assert_values_identical(decoded, value)

    def test_parse_url(self):
        assert protocol.parse_url("tcp://10.0.0.2:7421") == ("10.0.0.2",
                                                            7421)
        for bad in ("http://x:1", "tcp://nohost", "tcp://h:notaport",
                    "tcp://h:0", "tcp://:5"):
            with pytest.raises(ClusterConfigError):
                protocol.parse_url(bad)

    def test_mutual_handshake(self):
        a, b = socket.socketpair()
        seen = {}

        def server():
            seen["auth"] = protocol.server_handshake(a, "s3cret")

        thread = threading.Thread(target=server)
        thread.start()
        try:
            protocol.client_handshake(b, "s3cret", role="worker",
                                      extra={"capacity": 3})
        finally:
            thread.join(timeout=5)
            a.close()
            b.close()
        assert seen["auth"]["role"] == "worker"
        assert seen["auth"]["capacity"] == 3

    def test_client_rejects_impostor_server(self):
        """A server that cannot answer the client's nonce gets no work."""
        a, b = socket.socketpair()

        def impostor():
            # Replays the challenge flow but MACs with the wrong
            # secret; like the real coordinator, it closes the socket
            # when the handshake fails.
            try:
                protocol.server_handshake(a, "wrong-secret")
            except ClusterError:
                a.close()

        thread = threading.Thread(target=impostor)
        thread.start()
        try:
            with pytest.raises(ClusterAuthError):
                protocol.client_handshake(b, "s3cret")
        finally:
            thread.join(timeout=5)
            a.close()
            b.close()


class TestAuth:
    def test_worker_with_wrong_secret_rejected(self, tmp_path):
        with running_cluster(n_workers=0, secret="right") as coordinator:
            worker = Worker(coordinator.url, secret="wrong")
            with pytest.raises(ClusterAuthError):
                worker.connect()
            # The coordinator survives the rejected peer.
            client = ClusterClient(coordinator.url,
                                   secret="right").connect()
            try:
                assert client.ping()["type"] == "pong"
            finally:
                client.close()

    def test_client_with_wrong_secret_rejected(self):
        with running_cluster(n_workers=0, secret="right") as coordinator:
            with pytest.raises(ClusterAuthError):
                ClusterClient(coordinator.url, secret="wrong").connect()


# -- backend conformance ----------------------------------------------------

def _run_xor_sweep(backend, cache_dir):
    executor = Executor(workers=2, cache=DiskCache(root=str(cache_dir)),
                        backend=backend)
    sweep = sweep_gate_truth_table("xor", tier="network", executor=executor)
    return sweep, executor


class TestBackendContract:
    """The same sweep through every backend: identical answers,
    identical accounting."""

    def test_truth_tables_bit_identical_across_backends(self, tmp_path):
        local_sweep, _ = _run_xor_sweep(LocalPoolBackend(),
                                        tmp_path / "local")
        with running_cluster(n_workers=2) as coordinator:
            tcp_sweep, _ = _run_xor_sweep(
                TcpClusterBackend(coordinator.url), tmp_path / "tcp")
        assert local_sweep.format_table() == tcp_sweep.format_table()
        assert sorted(local_sweep.cases) == sorted(tcp_sweep.cases)
        for bits, local_case in local_sweep.cases.items():
            assert_values_identical(tcp_sweep.cases[bits], local_case,
                                    path=str(bits))

    @pytest.mark.parametrize("kind", ["local", "tcp"])
    def test_cache_hit_accounting(self, kind, tmp_path):
        """Cold run computes everything, warm run hits everything --
        with the same counters whichever backend executed."""
        with contextlib.ExitStack() as stack:
            if kind == "tcp":
                coordinator = stack.enter_context(
                    running_cluster(n_workers=2))
                make = lambda: TcpClusterBackend(coordinator.url)  # noqa: E731
                cold_mode = MODE_CLUSTER
            else:
                make = LocalPoolBackend
                cold_mode = None  # pool/serial both legitimate
            cold, cold_exec = _run_xor_sweep(make(), tmp_path / "cache")
            warm, warm_exec = _run_xor_sweep(make(), tmp_path / "cache")

        cold_records = list(cold.report.records)
        warm_records = list(warm.report.records)
        assert [r.status for r in cold_records] == [STATUS_OK] * N_XOR
        if cold_mode is not None:
            assert [r.mode for r in cold_records] == [cold_mode] * N_XOR
        assert [r.status for r in warm_records] == [STATUS_HIT] * N_XOR
        assert cold_exec.cache.stats.misses == N_XOR
        assert cold_exec.cache.stats.writes == N_XOR
        assert warm_exec.cache.stats.hits == N_XOR
        assert warm_exec.cache.stats.misses == 0

    def test_non_portable_jobs_run_locally_on_tcp_backend(self):
        with running_cluster(n_workers=1) as coordinator:
            executor = Executor(workers=2, cache=None,
                                backend=TcpClusterBackend(coordinator.url))
            result = executor.run([JobSpec(fn=lambda: 11, label="lam")])
        outcome = result.outcomes[0]
        assert outcome.ok and outcome.value == 11
        assert outcome.record.mode != MODE_CLUSTER


class TestSharedCache:
    def test_second_client_hits_coordinator_cache(self, tmp_path):
        """Two cacheless clients, one computation: the coordinator's
        shared tier answers the second sweep."""
        with running_cluster(cache_root=str(tmp_path / "shared"),
                             n_workers=1) as coordinator:
            backend = TcpClusterBackend(coordinator.url)
            first = Executor(workers=1, cache=None, backend=backend)
            sweep_gate_truth_table("xor", tier="network", executor=first)
            second = Executor(workers=1, cache=None, backend=backend)
            sweep = sweep_gate_truth_table("xor", tier="network",
                                           executor=second)
            records = list(sweep.report.records)
            assert [r.status for r in records] == [STATUS_HIT] * N_XOR
            assert [r.mode for r in records] == [MODE_CACHED] * N_XOR
            assert all(r.notes == "cluster-cache" for r in records)
            assert coordinator.cache_hits == N_XOR
            assert coordinator.completed == N_XOR  # first sweep only


class TestSingleFlight:
    def test_identical_jobs_from_two_clients_execute_once(self, tmp_path):
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        spec = JobSpec(fn="tests.test_cluster:slow_marker",
                       params={"marker_dir": str(marker_dir),
                               "delay_s": 0.8},
                       label="slow")
        results = [None, None]

        def client_run(slot):
            executor = Executor(workers=1, cache=None,
                                backend=TcpClusterBackend(coordinator.url))
            results[slot] = executor.run([spec]).outcomes[0]

        with running_cluster(n_workers=1, capacity=2) as coordinator:
            threads = [threading.Thread(target=client_run, args=(slot,),
                                         daemon=True)
                       for slot in range(2)]
            threads[0].start()
            _wait_until(lambda: coordinator.status()["inflight"] >= 1,
                        message="first submission inflight")
            threads[1].start()
            for thread in threads:
                thread.join(timeout=30)
            assert coordinator.coalesced == 1
        executions = os.listdir(str(marker_dir))
        assert len(executions) == 1  # single-flight: 2 clients, 1 run
        for outcome in results:
            assert outcome is not None and outcome.ok
            assert outcome.value["answer"] == 42


# -- failure handling -------------------------------------------------------

class TestRemoteFailures:
    def test_remote_exception_becomes_failed_record(self):
        with running_cluster(n_workers=1) as coordinator:
            executor = Executor(workers=1, cache=None, retries=1,
                                backend=TcpClusterBackend(coordinator.url))
            outcome = executor.run([JobSpec(
                fn="tests.test_cluster:always_boom",
                label="boom")]).outcomes[0]
            assert coordinator.failed == 1
        assert not outcome.ok
        assert outcome.record.status == STATUS_FAILED
        assert outcome.record.mode == MODE_CLUSTER
        assert "boom from the worker" in outcome.record.error
        assert outcome.record.attempts == 2  # initial try + 1 retry

    def test_unshippable_result_is_a_typed_failure(self):
        with running_cluster(n_workers=1) as coordinator:
            executor = Executor(workers=1, cache=None, retries=0,
                                backend=TcpClusterBackend(coordinator.url))
            outcome = executor.run([JobSpec(
                fn="tests.test_cluster:returns_unshippable",
                label="opaque")]).outcomes[0]
        assert not outcome.ok
        assert "unshippable result" in outcome.record.error

    def test_connection_lost_mid_batch_fails_in_place(self, tmp_path):
        marker_dir = tmp_path / "markers"
        marker_dir.mkdir()
        spec = JobSpec(fn="tests.test_cluster:slow_marker",
                       params={"marker_dir": str(marker_dir),
                               "delay_s": 5.0},
                       label="doomed")
        holder = {}

        def client_run():
            # reconnect_window=0: fail in place immediately instead of
            # redialling the (gone for good) coordinator for 30 s.
            backend = TcpClusterBackend(coordinator.url,
                                        reconnect_window=0.0)
            executor = Executor(workers=1, cache=None, backend=backend)
            holder["outcome"] = executor.run([spec]).outcomes[0]

        with running_cluster(n_workers=1) as coordinator:
            thread = threading.Thread(target=client_run, daemon=True)
            thread.start()
            _wait_until(lambda: coordinator.status()["inflight"] >= 1,
                        message="job inflight")
            coordinator.stop()  # the whole cluster goes away mid-batch
            thread.join(timeout=30)
        outcome = holder["outcome"]
        assert not outcome.ok
        assert outcome.record.status == STATUS_FAILED
        assert "cluster connection lost" in outcome.record.error


class TestWorkerDeath:
    def test_heartbeat_loss_reschedules_to_surviving_worker(self):
        """A registered worker that goes silent (no EOF -- the socket
        stays open) is declared dead by the heartbeat monitor and its
        job reruns elsewhere."""
        with running_cluster(n_workers=0, heartbeat_interval=0.1,
                             heartbeat_timeout=0.5) as coordinator:
            # A zombie worker: authenticates, registers capacity, then
            # never sends another frame.  Keep its socket open.
            zombie = socket.create_connection(coordinator.address)
            protocol.client_handshake(
                zombie, protocol.resolve_secret(None), role="worker",
                extra={"capacity": 1, "name": "zombie"})
            _wait_until(
                lambda: len(coordinator.status()["workers"]) == 1,
                message="zombie registered")

            holder = {}

            def client_run():
                executor = Executor(
                    workers=1, cache=None,
                    backend=TcpClusterBackend(coordinator.url))
                holder["outcome"] = executor.run([JobSpec(
                    fn="tests.test_cluster:add",
                    params={"a": 2, "b": 3}, label="add")]).outcomes[0]

            thread = threading.Thread(target=client_run, daemon=True)
            thread.start()
            # The job lands on the zombie, the monitor times it out,
            # and a healthy late-joining worker picks up the requeue.
            _wait_until(lambda: coordinator.rescheduled >= 1,
                        message="heartbeat-timeout reschedule")
            rescuer = Worker(coordinator.url, capacity=1, name="rescue")
            rescuer.connect()
            rescue_thread = threading.Thread(target=rescuer.run,
                                             daemon=True)
            rescue_thread.start()
            thread.join(timeout=30)
            zombie.close()
            rescuer.close()
            rescue_thread.join(timeout=2)

        outcome = holder["outcome"]
        assert outcome.ok and outcome.value == 5
        assert "rescheduled x1" in (outcome.record.notes or "")

    def test_kill_nine_worker_mid_sweep(self, tmp_path):
        """The acceptance drill: kill -9 one of two real worker
        processes mid-sweep; the sweep still completes exactly."""
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        # Every remote job dawdles 0.3 s so the SIGKILL lands mid-work.
        env["REPRO_FAULTS"] = FaultPlan(specs=[
            FaultSpec(site="executor.invoke", kind="slow", at=1,
                      count=1000, delay_s=0.3)]).to_json()

        with running_cluster(n_workers=0) as coordinator:
            procs = [subprocess.Popen(
                [sys.executable, "-m", "repro", "worker", coordinator.url,
                 "--capacity", "2", "--name", f"proc{i}"],
                env=env, cwd=str(tmp_path),
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
                for i in range(2)]
            try:
                _wait_until(
                    lambda: len(coordinator.status()["workers"]) == 2,
                    timeout=30, message="2 subprocess workers")

                holder = {}

                def client_run():
                    executor = Executor(
                        workers=2, cache=None,
                        backend=TcpClusterBackend(coordinator.url))
                    holder["sweep"] = sweep_gate_truth_table(
                        "xor", tier="network", executor=executor)

                thread = threading.Thread(target=client_run, daemon=True)
                thread.start()

                def victim_busy():
                    return any(w["inflight"] >= 1
                               for w in coordinator.status()["workers"]
                               if w["name"] == "proc0")

                _wait_until(victim_busy, timeout=30,
                            message="victim worker has inflight jobs")
                os.kill(procs[0].pid, signal.SIGKILL)
                thread.join(timeout=60)
                assert "sweep" in holder, "sweep did not finish"
            finally:
                for proc in procs:
                    proc.kill()
                    proc.wait(timeout=10)

            assert coordinator.rescheduled >= 1
            assert coordinator.failed == 0
        sweep = holder["sweep"]
        records = list(sweep.report.records)
        assert len(records) == N_XOR
        assert all(r.status == STATUS_OK for r in records)
        assert any("rescheduled" in (r.notes or "") for r in records)
        # Exactly the uninterrupted answer, chaos notwithstanding.
        reference = sweep_gate_truth_table(
            "xor", tier="network",
            executor=Executor(workers=1, cache=None))
        assert sweep.format_table() == reference.format_table()


# -- the fcntl store lock ---------------------------------------------------

KEY_A = "a" * 64


class TestDiskCacheStoreLock:
    def test_lock_file_is_not_a_cache_entry(self, tmp_path):
        root = str(tmp_path / "cache")
        cache = DiskCache(root=root)
        cache.put(KEY_A, {"field": np.arange(6.0)})
        lock_files = [name for _, _, names in os.walk(root)
                      for name in names if name.endswith(".lock")]
        assert lock_files == [KEY_A + ".lock"]
        assert cache_stats(root).entries == 1  # the lock is invisible

    def test_prune_removes_lock_files(self, tmp_path):
        root = str(tmp_path / "cache")
        DiskCache(root=root).put(KEY_A, {"field": np.arange(6.0)})
        result = prune_cache(root, max_bytes=0)
        assert result.removed == 1
        leftovers = [name for _, _, names in os.walk(root)
                     for name in names]
        assert leftovers == []

    def test_array_free_put_leaves_only_the_document(self, tmp_path):
        root = str(tmp_path / "cache")
        DiskCache(root=root).put(KEY_A, {"levels": [0.5, 1.0], "ok": True})
        names = [name for _, _, names in os.walk(root) for name in names]
        assert names == [KEY_A + ".json"]

    def test_concurrent_array_free_stores_never_corrupt(self, tmp_path):
        """Without a sidecar an entry is one atomic rename: N processes
        rewriting one key take no lock and readers never see a torn
        document."""
        root = str(tmp_path / "cache")
        script = (
            "import sys\n"
            "from repro.runtime import DiskCache\n"
            "root, seed = sys.argv[1], int(sys.argv[2])\n"
            "cache = DiskCache(root=root)\n"
            "value = {'levels': [float(seed)] * 512, 'seed': seed}\n"
            "for _ in range(50):\n"
            "    cache.put('%s', value)\n"
            "    ok, got = cache.get('%s')\n"
            "    assert ok, 'concurrent reader saw a torn entry'\n"
            "    assert len(got['levels']) == 512\n"
            "    assert got['levels'] == [float(got['seed'])] * 512\n"
            % (KEY_A, KEY_A))
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        procs = [subprocess.Popen(
            [sys.executable, "-c", script, root, str(seed)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for seed in range(4)]
        for proc in procs:
            _, stderr = proc.communicate(timeout=120)
            assert proc.returncode == 0, stderr.decode()
        assert count_quarantined(root) == 0
        names = [name for _, _, names in os.walk(root) for name in names]
        assert names == [KEY_A + ".json"]  # no lock, no stray temp file
        ok, value = DiskCache(root=root).get(KEY_A)
        assert ok and len(value["levels"]) == 512

    def test_concurrent_same_key_stores_never_corrupt(self, tmp_path):
        """N processes hammering one key: the flock serializes the
        npz+json sequence, so readers never see a torn pair."""
        root = str(tmp_path / "cache")
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from repro.runtime import DiskCache\n"
            "root, seed = sys.argv[1], int(sys.argv[2])\n"
            "cache = DiskCache(root=root)\n"
            "value = {'field': np.full(4096, float(seed)),\n"
            "         'seed': seed}\n"
            "for _ in range(25):\n"
            "    cache.put('%s', value)\n"
            "    ok, got = cache.get('%s')\n"
            "    assert ok, 'concurrent reader saw a torn entry'\n"
            "    assert got['field'].shape == (4096,)\n" % (KEY_A, KEY_A))
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        procs = [subprocess.Popen(
            [sys.executable, "-c", script, root, str(seed)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for seed in range(4)]
        for proc in procs:
            _, stderr = proc.communicate(timeout=120)
            assert proc.returncode == 0, stderr.decode()
        assert count_quarantined(root) == 0
        ok, value = DiskCache(root=root).get(KEY_A)
        assert ok and value["field"].shape == (4096,)
        assert cache_stats(root).entries == 1


# -- configuration errors and the CLI ---------------------------------------

class TestClusterConfig:
    def test_create_backend_kinds(self):
        assert isinstance(create_backend(None), LocalPoolBackend)
        assert isinstance(create_backend("local"), LocalPoolBackend)
        backend = create_backend("tcp://127.0.0.1:7421")
        assert isinstance(backend, TcpClusterBackend)
        assert backend.describe() == "tcp(tcp://127.0.0.1:7421)"
        with pytest.raises(ClusterConfigError):
            create_backend("redis://127.0.0.1:6379")

    def test_config_errors_are_repro_errors(self):
        assert issubclass(ClusterConfigError, ClusterError)
        assert issubclass(ClusterAuthError, ClusterError)
        assert issubclass(ClusterError, ReproError)

    def test_unreachable_coordinator_is_typed_not_a_traceback(self):
        with pytest.raises(ClusterConfigError, match="cluster start"):
            ClusterClient("tcp://127.0.0.1:1").connect()

    def test_require_ready_names_the_join_command(self):
        with running_cluster(n_workers=0) as coordinator:
            client = ClusterClient(coordinator.url).connect()
            try:
                with pytest.raises(ClusterConfigError,
                                   match="repro worker"):
                    client.require_ready(min_workers=1)
            finally:
                client.close()


class TestClusterCLI:
    def test_sweep_against_dead_coordinator_exits_2(self, tmp_path,
                                                    capsys):
        rc = main(["sweep", "xor", "--tier", "network",
                   "--backend", "tcp://127.0.0.1:1",
                   "--cache-dir", str(tmp_path / "cache")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "cannot reach cluster coordinator" in err
        assert "Traceback" not in err

    def test_status_requires_url(self, capsys):
        assert main(["cluster", "status"]) == 2
        assert "URL required" in capsys.readouterr().err

    def test_status_json_against_live_coordinator(self, capsys):
        with running_cluster(n_workers=1) as coordinator:
            rc = main(["cluster", "status", coordinator.url, "--json"])
        assert rc == 0
        status = json.loads(capsys.readouterr().out)
        assert status["url"] == coordinator.url
        assert len(status["workers"]) == 1
        for field in ("queued", "inflight", "completed", "failed",
                      "rescheduled", "coalesced", "cache_hits"):
            assert field in status

    def test_sweep_through_cli_over_tcp(self, tmp_path, capsys):
        with running_cluster(n_workers=1) as coordinator:
            rc = main(["sweep", "xor", "--tier", "network",
                       "--backend", coordinator.url,
                       "--cache-dir", str(tmp_path / "cache")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 worker(s) ready" in out
        assert "XOR FO2 truth-table sweep" in out
        assert "cluster" in out  # the mode column


class TestPreforkConfig:
    def test_prefork_requires_a_fixed_port(self):
        from repro.serve import ServeConfig, run_prefork

        with pytest.raises(ClusterConfigError, match="fixed --port"):
            run_prefork(ServeConfig(port=0), processes=2)
