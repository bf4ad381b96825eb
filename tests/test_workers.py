"""The worker pool ``grid`` runs in: order, errors, the caller's context, one
BLAS thread, and workers that never outlive the process that started them."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import spoofmeter
from helpers import MEDIUM_CQT, make_wav_corpus, resonant_noise
from spoofmeter import workers
from spoofmeter.config import to_doc
from spoofmeter.detector import CACHE_ENV_VAR
from spoofmeter.manifest import MANIFEST_COLUMNS, parse_manifest
from spoofmeter.tables import write_table

SRC = str(Path(spoofmeter.__file__).parent.parent)


class TestOrderedMap:
    def test_results_in_item_order(self):
        assert workers.ordered_map(abs, range(-6, 6)) == [abs(i) for i in
                                                          range(-6, 6)]
        assert workers.ordered_map(abs, []) == []

    def test_first_error_in_item_order_is_raised_and_the_pool_survives(self):
        with pytest.raises(ValueError, match="'x'"):
            workers.ordered_map(int, ["1", "x", "2", "y"])
        pids = [worker.process.pid for worker in workers._pool]
        assert workers.ordered_map(abs, [-1]) == [1]
        assert [worker.process.pid for worker in workers._pool] == pids

    def test_a_reply_that_does_not_pickle_is_raised_and_the_pool_survives(
            self):
        workers.ordered_map(abs, [0])
        pids = [worker.process.pid for worker in workers._pool]
        with pytest.raises(TypeError, match="reply does not pickle"):
            workers.ordered_map(__import__, ["os"])
        assert [worker.process.pid for worker in workers._pool] == pids

    def test_a_worker_that_dies_stops_the_pool(self):
        with pytest.raises(ChildProcessError, match="exited with 3$"):
            workers.ordered_map(os._exit, [3])
        assert workers._pool == []
        assert workers.ordered_map(abs, [-2]) == [2]

    def test_one_worker_per_item_up_to_one_per_usable_cpu_reused(self):
        workers.close()
        workers.ordered_map(abs, [0])
        assert len(workers._pool) == 1
        first = workers._pool[0].process.pid
        n_cpus = len(os.sched_getaffinity(0))
        workers.ordered_map(abs, range(n_cpus + 3))
        pids = [worker.process.pid for worker in workers._pool]
        assert len(pids) == n_cpus and pids[0] == first
        workers.ordered_map(abs, [0, 1])
        assert [worker.process.pid for worker in workers._pool] == pids

    def test_calls_see_the_callers_directory_and_environment(
            self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "cache"))
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert workers.ordered_map(os.path.abspath, ["."]) == [os.getcwd()]
        assert workers.ordered_map(os.getenv, [
            CACHE_ENV_VAR, "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
            "MKL_NUM_THREADS"]) == [str(tmp_path / "cache"), "1", "1", "1"]
        monkeypatch.delenv(CACHE_ENV_VAR)
        assert workers.ordered_map(os.getenv, [CACHE_ENV_VAR]) == [None]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A small grid on the medium CQT: 0.3 s utterances of 30 frames.

    At so few frames, the direct CQT and the DCT round by the BLAS thread
    count, so a grid run in one process at one thread and at two writes
    different feature-cache entries.
    """
    root = tmp_path_factory.mktemp("pool_corpus")
    rng = np.random.default_rng(27)
    low = dict(freq_range=(300.0, 900.0))
    high = dict(freq_range=(2500.0, 3800.0))

    def utterances(prefix, label, system, n, freqs):
        return [(f"{prefix}{i}", label, system, resonant_noise(rng, 4800, **freqs))
                for i in range(n)]

    paths = {
        "nat": make_wav_corpus(root / "nat", utterances("n", "bonafide", "-", 4, low)),
        "artif": make_wav_corpus(root / "artif", utterances("a", "spoof", "vcX", 4, high)),
        "eval": make_wav_corpus(root / "eval", (
            utterances("eb", "bonafide", "-", 3, low)
            + utterances("es", "spoof", "sysA", 3, high))),
        "config": root / "run.json",
    }
    paths["config"].write_text(json.dumps({
        "cqt": to_doc(MEDIUM_CQT), "gmm": {"em_iters_per_stage": 3}}))
    return paths


def _grid_argv(corpus, out, nat=None):
    return ["grid", "--nat", str(nat or corpus["nat"]),
            "--artif", str(corpus["artif"]),
            "--eval", str(corpus["eval"]), "--config", str(corpus["config"]),
            "--variants", "stat+delta,z+stat", "--gaussians", "1,4",
            "--out", str(out)]


def _env(**extra):
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop(CACHE_ENV_VAR, None)
    return {**env, **extra}


def test_grid_table_and_cache_do_not_depend_on_the_blas_thread_count(
        corpus, tmp_path):
    for threads in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-m", "spoofmeter.cli",
             *_grid_argv(corpus, tmp_path / f"grid{threads}.tsv")],
            env=_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                     MKL_NUM_THREADS=threads,
                     **{CACHE_ENV_VAR: str(tmp_path / f"cache{threads}")}),
            capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
    assert ((tmp_path / "grid1.tsv").read_bytes()
            == (tmp_path / "grid2.tsv").read_bytes())
    one, two = (sorted((tmp_path / f"cache{t}").iterdir()) for t in "12")
    assert [p.name for p in one] == [p.name for p in two]
    assert len(one) == 2 * 14  # two variants, 14 WAVs
    assert all(a.read_bytes() == b.read_bytes() for a, b in zip(one, two))


def _alive(pid) -> bool:
    """Whether ``pid`` runs; a zombie no longer does."""
    if not Path("/proc/self/stat").exists():
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _gone_within(pids, seconds) -> bool:
    deadline = time.monotonic() + seconds
    while any(_alive(pid) for pid in pids):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


# Runs grid at module level, with no ``if __name__ == "__main__"`` guard,
# then prints the pids of the workers it ran in.
UNGUARDED_GRID = """\
import sys
from spoofmeter import workers
from spoofmeter.cli import main

code = main({argv!r})
print(*(worker.process.pid for worker in workers._pool), flush=True)
sys.exit(code)
"""


def test_unguarded_script_runs_grid_and_its_workers_exit_with_it(
        corpus, tmp_path):
    script = tmp_path / "unguarded.py"
    script.write_text(UNGUARDED_GRID.format(
        argv=_grid_argv(corpus, tmp_path / "grid.tsv")))
    done = subprocess.run([sys.executable, str(script)], env=_env(),
                          cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "grid.tsv").exists()
    pids = [int(pid) for pid in done.stdout.splitlines()[-1].split()]
    assert len(pids) == min(len(os.sched_getaffinity(0)), 14)  # 14 WAVs
    assert not any(_alive(pid) for pid in pids)


def test_workers_exit_when_grid_is_killed_mid_task(corpus, tmp_path):
    # One natural "WAV" is a FIFO: the worker that reads it blocks in the
    # middle of its task until the FIFO has a writer and then data.
    fifo = tmp_path / "blocking.wav"
    os.mkfifo(fifo)
    nat = tmp_path / "nat.tsv"
    write_table(nat, MANIFEST_COLUMNS, [
        (e.utt_id, str(fifo) if e.utt_id == "n0" else e.path, e.label,
         e.system_id) for e in parse_manifest(corpus["nat"])])
    script = tmp_path / "killed.py"
    script.write_text(
        "import os\n"
        "from spoofmeter import workers\n"
        "from spoofmeter.cli import main\n"
        "workers.ordered_map(abs, range(len(os.sched_getaffinity(0))))\n"
        "print(*(worker.process.pid for worker in workers._pool), flush=True)\n"
        f"main({_grid_argv(corpus, tmp_path / 'grid.tsv', nat)!r})\n")
    # A killed grid leaves its temporary directory behind: keep it here.
    proc = subprocess.Popen([sys.executable, str(script)],
                            env=_env(TMPDIR=str(tmp_path)), cwd=tmp_path, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    writer = None
    try:
        pids = [int(pid) for pid in proc.stdout.readline().split()]
        assert pids, proc.stderr.read()
        deadline = time.monotonic() + 60
        while writer is None:
            try:  # succeeds once a worker has the FIFO open to read
                writer = os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
            except OSError:
                assert proc.poll() is None, proc.stderr.read()
                assert time.monotonic() < deadline
                time.sleep(0.05)
        proc.kill()
        proc.wait()
        assert _gone_within(pids, 5.0)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
        if writer is not None:
            os.close(writer)
